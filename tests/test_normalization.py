"""Pooled z-score normalization."""
import math
from collections import Counter

import numpy as np
import pytest

from distress_lda import (
    GroupLabel,
    InsufficientGroupError,
    LabeledSample,
    NormalizationStats,
    RatioVector,
    TrainingSet,
    VARIABLES,
    ZeroVarianceError,
    build_training_set,
    fit_normalizer,
    normalize_training_set,
)


def _training_set(matrix, n0=2):
    samples = [
        LabeledSample(
            f"bank{i}",
            RatioVector(*row.tolist()),
            GroupLabel.BANKRUPT if i < n0 else GroupLabel.NONBANKRUPT,
        )
        for i, row in enumerate(matrix)
    ]
    return build_training_set(samples)


def test_bundled_panel_moments(norm_stats):
    """Pooled EAA has mean 0.21144 and sd 0.18212 on the bundled panel."""
    assert norm_stats.mean["eaa"] == pytest.approx(0.21144, abs=5e-5)
    assert norm_stats.sd["eaa"] == pytest.approx(0.18212, abs=5e-5)
    assert norm_stats.mean["laaa"] == pytest.approx(0.55457, abs=5e-5)
    assert norm_stats.sd["bdtla"] == pytest.approx(0.08464, abs=5e-5)


def test_bundled_panel_z_scores(normalized_set):
    """Spot values of the standardized panel: the failed bank's EAA z-score
    is -0.42518 and the largest capital-adequacy z-score is 2.96608."""
    by_bank = {s.bank_id: s.ratios for s in normalized_set.samples}
    assert by_bank["Moza Banco, S.A"].eaa == pytest.approx(-0.42518, abs=5e-3)
    assert by_bank["Banco Nacional e de Invest."].eaa == pytest.approx(2.96608, abs=1e-2)


def test_normalized_set_has_unit_moments(normalized_set):
    matrix = np.array([tuple(s.ratios) for s in normalized_set.samples])
    assert matrix.mean(axis=0) == pytest.approx(np.zeros(6), abs=1e-12)
    assert matrix.std(axis=0, ddof=1) == pytest.approx(np.ones(6), abs=1e-12)


def test_labels_and_order_preserved(normalized_set, training_set):
    assert [s.bank_id for s in normalized_set.samples] == [
        s.bank_id for s in training_set.samples
    ]
    assert [s.label for s in normalized_set.samples] == [s.label for s in training_set.samples]
    assert Counter(s.label for s in normalized_set.samples) == {GroupLabel.BANKRUPT: 2, GroupLabel.NONBANKRUPT: 12}


def test_constant_variable_rejected():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(8, 6))
    matrix[:, 3] = 0.25
    with pytest.raises(ZeroVarianceError, match="'nii' is constant"):
        fit_normalizer(_training_set(matrix))


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_samples_rejected(n):
    """The sample sd divides by n - 1, so fewer than two samples have none:
    one would divide by zero, and none leaves no mean."""
    samples = (LabeledSample("bank0", RatioVector(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), GroupLabel.BANKRUPT),)[:n]
    with pytest.raises(InsufficientGroupError, match=f"^normalization needs at least 2 samples, got {n}$"):
        fit_normalizer(TrainingSet(samples))


def test_tiny_spread_is_not_called_constant():
    """Values i * 1e-170 differ, but their squared deviations underflow to zero."""
    matrix = np.random.default_rng(7).normal(size=(8, 6))
    matrix[:, 0] = [i * 1e-170 for i in range(8)]
    with pytest.raises(ZeroVarianceError, match="^variable 'eaa' varies too little to measure across"):
        fit_normalizer(_training_set(matrix))


@pytest.mark.parametrize(
    "column, moments",
    [([1e308, 1e308] + [0.1] * 6, "mean inf, sd inf"), ([-1e200, 1e200] * 4, "mean 0.0, sd inf")],
    ids=["mean", "sd"],
)
def test_overflowing_variable_rejected(column, moments):
    """Finite ratios whose mean or squared deviations overflow would z-score to
    NaN or to all zeros; the variable is refused instead."""
    matrix = np.random.default_rng(7).normal(size=(8, 6))
    matrix[:, 0] = column
    with pytest.raises(ZeroVarianceError, match=f"'eaa' overflows across the training set: {moments}"):
        fit_normalizer(_training_set(matrix))


def test_affine_invariance_of_z_scores():
    """Rescaling a raw column by a > 0 and shifting it leaves z-scores alone."""
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(9, 6))
    stats = fit_normalizer(_training_set(matrix))
    z_before = np.array(
        [tuple(s.ratios) for s in normalize_training_set(stats, _training_set(matrix)).samples]
    )

    scaled = matrix.copy()
    scaled[:, 1] = 3.7 * scaled[:, 1] - 0.42
    scaled[:, 5] = 0.004 * scaled[:, 5] + 19.0
    stats2 = fit_normalizer(_training_set(scaled))
    z_after = np.array(
        [tuple(s.ratios) for s in normalize_training_set(stats2, _training_set(scaled)).samples]
    )
    np.testing.assert_allclose(z_after, z_before, atol=1e-9)


def test_apply_uses_frozen_moments():
    stats = NormalizationStats(
        mean={k: 1.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")},
        sd={k: 2.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")},
    )
    sample = LabeledSample("bank0", RatioVector(1.0, 3.0, 5.0, 0.0, -1.0, 2.0), GroupLabel.BANKRUPT)
    [(_, z, _)] = normalize_training_set(stats, TrainingSet((sample,))).samples
    assert z == RatioVector(0.0, 1.0, 2.0, -0.5, -1.0, 0.5)


def test_z_score_past_float_range_rejected():
    """Frozen moments can put a finite ratio's z-score past float range: 1e300 / 1e-10."""
    stats = NormalizationStats(mean=dict.fromkeys(VARIABLES, 0.0), sd={**dict.fromkeys(VARIABLES, 1.0), "nii": 1e-10})
    sample = LabeledSample("bank0", RatioVector(0.1, 0.2, 0.3, 1e300, 0.5, 0.6), GroupLabel.BANKRUPT)
    with pytest.raises(ValueError, match="^ratio 'nii' must be finite, got inf$"):
        normalize_training_set(stats, TrainingSet((sample,)))


def test_stats_validation():
    means = {k: 0.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")}
    sds = dict(means)
    with pytest.raises(ValueError, match="must be positive"):
        NormalizationStats(mean=means, sd=sds)
    # An infinite sd would make every z-score of its ratio 0 and move a bank's zone.
    with pytest.raises(ValueError, match="sd for 'bdtla' must be positive"):
        NormalizationStats(mean=means, sd={**dict.fromkeys(means, 1.0), "bdtla": math.inf})
    for mean in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mean for 'roae' must be finite"):
            NormalizationStats(mean={**means, "roae": mean}, sd=dict.fromkeys(means, 1.0))
    with pytest.raises(ValueError, match="missing variable"):
        NormalizationStats(mean={"eaa": 0.0}, sd={"eaa": 1.0})


def test_normalize_then_fit_is_stable(normalized_set):
    # Normalizing an already-normalized set is the identity map.
    stats = fit_normalizer(normalized_set)
    again = normalize_training_set(stats, normalized_set)
    before = np.array([tuple(s.ratios) for s in normalized_set.samples])
    after = np.array([tuple(s.ratios) for s in again.samples])
    np.testing.assert_allclose(after, before, atol=1e-12)
