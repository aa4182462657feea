"""Pooled z-score normalization."""
import numpy as np
import pytest

from distress_lda import (
    GroupLabel,
    LabeledSample,
    NormalizationStats,
    RatioVector,
    ZeroVarianceError,
    build_training_set,
    fit_normalizer,
    normalize_training_set,
)
from distress_lda.normalization import apply


def _training_set(matrix, n0=2):
    samples = [
        LabeledSample(
            f"bank{i}",
            RatioVector.from_array(row),
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


def test_bundled_panel_z_scores(norm_stats, training_set):
    """Spot values of the standardized panel: the failed bank's EAA z-score
    is -0.42518 and the largest capital-adequacy z-score is 2.96608."""
    by_bank = {s.bank_id: apply(norm_stats, s.ratios) for s in training_set.samples}
    assert by_bank["Moza Banco, S.A"].eaa == pytest.approx(-0.42518, abs=5e-3)
    assert by_bank["Banco Nacional e de Invest."].eaa == pytest.approx(2.96608, abs=1e-2)


def test_normalized_set_has_unit_moments(normalized_set):
    matrix = np.array([s.ratios.as_tuple() for s in normalized_set.samples])
    assert matrix.mean(axis=0) == pytest.approx(np.zeros(6), abs=1e-12)
    assert matrix.std(axis=0, ddof=1) == pytest.approx(np.ones(6), abs=1e-12)


def test_labels_and_order_preserved(normalized_set, training_set):
    assert [s.bank_id for s in normalized_set.samples] == [
        s.bank_id for s in training_set.samples
    ]
    assert [s.label for s in normalized_set.samples] == [s.label for s in training_set.samples]
    assert (normalized_set.n0, normalized_set.n1) == (training_set.n0, training_set.n1)


def test_constant_variable_rejected():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(8, 6))
    matrix[:, 3] = 0.25
    with pytest.raises(ZeroVarianceError, match="'nii' is constant"):
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
        [apply(stats, s.ratios).as_tuple() for s in _training_set(matrix).samples]
    )

    scaled = matrix.copy()
    scaled[:, 1] = 3.7 * scaled[:, 1] - 0.42
    scaled[:, 5] = 0.004 * scaled[:, 5] + 19.0
    stats2 = fit_normalizer(_training_set(scaled))
    z_after = np.array(
        [apply(stats2, s.ratios).as_tuple() for s in _training_set(scaled).samples]
    )
    np.testing.assert_allclose(z_after, z_before, atol=1e-9)


def test_apply_uses_frozen_moments():
    stats = NormalizationStats(
        mean={k: 1.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")},
        sd={k: 2.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")},
    )
    z = apply(stats, RatioVector(1.0, 3.0, 5.0, 0.0, -1.0, 2.0))
    assert z == RatioVector(0.0, 1.0, 2.0, -0.5, -1.0, 0.5)


def test_stats_validation():
    means = {k: 0.0 for k in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")}
    sds = dict(means)
    with pytest.raises(ValueError, match="must be positive"):
        NormalizationStats(mean=means, sd=sds)
    with pytest.raises(ValueError, match="missing variable"):
        NormalizationStats(mean={"eaa": 0.0}, sd={"eaa": 1.0})


def test_normalize_then_fit_is_stable(normalized_set):
    # Normalizing an already-normalized set is the identity map.
    stats = fit_normalizer(normalized_set)
    again = normalize_training_set(stats, normalized_set)
    before = np.array([s.ratios.as_tuple() for s in normalized_set.samples])
    after = np.array([s.ratios.as_tuple() for s in again.samples])
    np.testing.assert_allclose(after, before, atol=1e-12)
