"""Discriminant fit: the SPD solver, the canonical scaling, and Fisher rules."""
import math

import numpy as np
import pytest

from distress_lda import (
    VARIABLES,
    BindingError,
    DegenerateSeparationError,
    GroupLabel,
    InsufficientGroupError,
    SingularMatrixError,
    VariableCountError,
    confusion_matrix,
    fisher_classify,
    fit,
    fit_from_matrices,
    group_stats_from_matrices,
    score,
    solve_spd,
)
from oracles import eliminate


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def _random_instance(rng, n0, n1, p):
    mu_shift = rng.normal(scale=2.0, size=p)
    X0 = rng.normal(size=(n0, p))
    X1 = rng.normal(size=(n1, p)) + mu_shift
    return X0, X1


class TestSolveSpd:
    def test_two_by_two(self):
        """[[4,2],[2,3]] v = [2,5] has solution v = (-1/2, 2)."""
        v = solve_spd([[4.0, 2.0], [2.0, 3.0]], [2.0, 5.0])
        np.testing.assert_allclose(v, [-0.5, 2.0], atol=1e-14)

    def test_identity(self):
        d = np.array([3.0, -1.0, 0.25])
        np.testing.assert_allclose(solve_spd(np.eye(3), d), d, atol=0)

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(2012)
        for trial in range(100):
            n = int(rng.integers(1, 8))
            S = _random_spd(rng, n)
            d = rng.normal(size=n)
            v = solve_spd(S, d)
            np.testing.assert_allclose(v, eliminate(S, d), atol=1e-9, rtol=1e-9)
            assert np.max(np.abs(S @ v - d)) <= 1e-9 * max(1.0, np.max(np.abs(d)))

    def test_singular_matrix_names_pivot(self):
        S = np.ones((3, 3))  # rank one
        with pytest.raises(SingularMatrixError, match=r"pivot 1"):
            solve_spd(S, np.ones(3))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(SingularMatrixError, match=r"pivot 0"):
            solve_spd([[-1.0]], [1.0])


class TestGroupStats:
    def test_one_variable_hand_case(self):
        """Groups {0,2} and {4,6}: pooled variance (1+1+1+1)/2 = 2."""
        stats = group_stats_from_matrices([[0.0], [2.0]], [[4.0], [6.0]], ("x",))
        assert stats.mu0 == pytest.approx([1.0])
        assert stats.mu1 == pytest.approx([5.0])
        np.testing.assert_allclose(stats.s_w, [[2.0]], atol=1e-14)
        assert (stats.n0, stats.n1) == (2, 2)

    def test_empty_group_rejected(self):
        with pytest.raises(InsufficientGroupError):
            group_stats_from_matrices(np.empty((0, 2)), [[1.0, 2.0]], ("u", "v"))

    def test_underdetermined_scatter_rejected(self):
        X0 = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        X1 = [[2.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        with pytest.raises(VariableCountError, match="3 variables exceed the limit of 2 for 4 samples"):
            group_stats_from_matrices(X0, X1, ("u", "v", "w"))

    def test_bundled_panel_counts(self, normalized_set):
        X0, X1 = (
            [s.ratios.as_tuple() for s in normalized_set.samples if s.label is label]
            for label in (GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT)
        )
        stats = group_stats_from_matrices(X0, X1, VARIABLES)
        assert (stats.n0, stats.n1) == (2, 12)
        np.testing.assert_allclose(np.diag(stats.correlation), np.ones(6), atol=1e-12)


@pytest.fixture(scope="module")
def hand_model():
    return fit_from_matrices([[0.0], [2.0]], [[4.0], [6.0]], ("x",))


class TestFitHandCase:
    """One variable, groups {0,2} and {4,6}.

    S_w = 2, so b = (5-1)/2 / sqrt(4 * (5-1)/2 / 2) = 1/sqrt(2), the constant
    centers the grand mean, the centroids land at -/+ sqrt(2), and the
    eigenvalue is 8/2 = 4.
    """

    def test_direction_and_constant(self, hand_model):
        assert hand_model.coefficients["x"] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert hand_model.constant == pytest.approx(-3 / math.sqrt(2), rel=1e-12)

    def test_centroids_and_spread(self, hand_model):
        assert hand_model.y0 == pytest.approx(-math.sqrt(2), rel=1e-12)
        assert hand_model.y1 == pytest.approx(math.sqrt(2), rel=1e-12)
        assert hand_model.s0 == pytest.approx(1.0, rel=1e-12)
        assert hand_model.s1 == pytest.approx(1.0, rel=1e-12)

    def test_separation_summary(self, hand_model):
        assert hand_model.eigenvalue == pytest.approx(4.0, rel=1e-12)
        assert hand_model.canonical_correlation == pytest.approx(math.sqrt(0.8), rel=1e-12)
        assert hand_model.wilks_lambda == pytest.approx(0.2, rel=1e-12)

    def test_standardized_matches_unit_scale(self, hand_model):
        # sd of x within groups is sqrt(2), so standardized = b * sqrt(2) = 1.
        assert hand_model.standardized["x"] == pytest.approx(1.0, rel=1e-12)

    def test_midpoint_classification(self, hand_model):
        assert fisher_classify(hand_model, {"x": 1.0}) is GroupLabel.BANKRUPT
        assert fisher_classify(hand_model, {"x": 5.0}) is GroupLabel.NONBANKRUPT
        assert fisher_classify(hand_model, {"x": 2.9}) is GroupLabel.BANKRUPT
        assert fisher_classify(hand_model, {"x": 3.1}) is GroupLabel.NONBANKRUPT

    def test_exact_tie_goes_healthy(self, hand_model):
        # Solver rounding keeps real fits off exact ties, so force one by
        # giving both groups the same linear function.
        import dataclasses

        from distress_lda import FisherFunctions

        flat = FisherFunctions(
            priors={"bankrupt": 0.5, "nonbankrupt": 0.5},
            weights={"bankrupt": {"x": 1.0}, "nonbankrupt": {"x": 1.0}},
            constants={"bankrupt": 0.0, "nonbankrupt": 0.0},
        )
        tied = dataclasses.replace(hand_model, fisher=flat)
        assert fisher_classify(tied, {"x": 3.0}) is GroupLabel.NONBANKRUPT


class TestFitBundledPanel:
    def test_summary_statistics(self, fitted_model):
        """Eigenvalue 3.14 and centroids (-3.99, 0.67) on the bundled panel."""
        assert fitted_model.eigenvalue == pytest.approx(3.136, abs=0.05)
        assert fitted_model.y0 == pytest.approx(-4.016, abs=0.1)
        assert fitted_model.y1 == pytest.approx(0.669, abs=0.1)
        assert fitted_model.canonical_correlation == pytest.approx(0.871, abs=0.005)
        assert fitted_model.wilks_lambda == pytest.approx(0.242, abs=0.005)

    def test_constant_vanishes_on_standardized_input(self, fitted_model):
        # z-scored input has grand mean zero in every column.
        assert fitted_model.constant == pytest.approx(0.0, abs=1e-12)

    def test_coefficient_magnitude_ranking(self, fitted_model):
        mags = {k: abs(v) for k, v in fitted_model.coefficients.items()}
        ranked = sorted(mags, key=mags.get, reverse=True)
        assert ranked == ["bdtla", "roae", "nii", "roaa", "laaa", "eaa"]

    def test_dominant_coefficient_value(self, fitted_model):
        assert fitted_model.coefficients["bdtla"] == pytest.approx(4.734, abs=0.25)
        assert fitted_model.coefficients["eaa"] == pytest.approx(-0.040, abs=0.25)

    def test_pooled_score_variance_is_unit(self, fitted_model):
        m = fitted_model
        pooled = ((m.n0 - 1) * m.s0**2 + (m.n1 - 1) * m.s1**2) / (m.n0 + m.n1 - 2)
        assert pooled == pytest.approx(1.0, abs=1e-9)

    def test_scores_decompose_total_scatter(self, fitted_model, normalized_set):
        scores = np.array([score(fitted_model, s.ratios) for s in normalized_set.samples])
        labels = np.array([int(s.label) for s in normalized_set.samples])
        grand = scores.mean()
        ss_total = ((scores - grand) ** 2).sum()
        ss_within = sum(
            ((scores[labels == g] - scores[labels == g].mean()) ** 2).sum() for g in (0, 1)
        )
        ss_between = sum(
            (labels == g).sum() * (scores[labels == g].mean() - grand) ** 2 for g in (0, 1)
        )
        assert ss_total == pytest.approx(ss_between + ss_within, abs=1e-9)
        assert fitted_model.eigenvalue == pytest.approx(ss_between / ss_within, rel=1e-12)

    def test_training_panel_fully_separated(self, fitted_model, normalized_set):
        cm = confusion_matrix(fitted_model, normalized_set)
        assert cm.correct_fraction() == 1.0

    def test_equal_priors_lose_a_healthy_bank(self, normalized_set):
        # With 2 vs 12 samples the proportional prior shifts the Fisher
        # boundary enough to matter: equal priors drag one healthy bank with
        # a weak score over to the failed side.
        model = fit(normalized_set, priors="equal")
        cm = confusion_matrix(model, normalized_set)
        assert cm.count(GroupLabel.NONBANKRUPT, GroupLabel.BANKRUPT) == 1
        assert cm.correct_fraction() == pytest.approx(13 / 14)

    def test_priors_validated(self, normalized_set):
        with pytest.raises(ValueError, match="priors"):
            fit(normalized_set, priors="flat")


class TestFitProperties:
    def test_sample_order_irrelevant(self, normalized_set, fitted_model):
        from distress_lda import TrainingSet

        reordered = TrainingSet(
            samples=tuple(reversed(normalized_set.samples)),
            n0=normalized_set.n0,
            n1=normalized_set.n1,
            p=normalized_set.p,
        )
        other = fit(reordered)
        for name in fitted_model.variables:
            assert other.coefficients[name] == pytest.approx(
                fitted_model.coefficients[name], abs=1e-12
            )
        assert other.eigenvalue == pytest.approx(fitted_model.eigenvalue, abs=1e-12)

    def test_column_rescaling_leaves_scores_alone(self):
        rng = np.random.default_rng(41)
        X0, X1 = _random_instance(rng, 4, 9, 3)
        names = ("u", "v", "w")
        base = fit_from_matrices(X0, X1, names)

        scale = np.array([3.0, 0.04, 1.0])
        shift = np.array([-2.0, 7.5, 0.0])
        rescaled = fit_from_matrices(X0 * scale + shift, X1 * scale + shift, names)

        probe = rng.normal(size=(20, 3))
        for row in probe:
            before = score(base, dict(zip(names, row)))
            after = score(rescaled, dict(zip(names, row * scale + shift)))
            assert after == pytest.approx(before, abs=1e-9)
        for name, s in zip(names, scale):
            assert rescaled.standardized[name] == pytest.approx(
                base.standardized[name], abs=1e-9
            )
        assert rescaled.eigenvalue == pytest.approx(base.eigenvalue, rel=1e-9)

    def test_direction_parallels_elimination_oracle(self):
        rng = np.random.default_rng(97)
        for trial in range(25):
            p = int(rng.integers(1, 5))
            n0 = int(rng.integers(2, 6))
            n1 = int(rng.integers(max(2, p + 3 - n0), 9))
            X0, X1 = _random_instance(rng, n0, n1, p)
            names = tuple(f"v{i}" for i in range(p))
            model = fit_from_matrices(X0, X1, names)
            b = np.array([model.coefficients[n] for n in names])

            mu0, mu1 = X0.mean(axis=0), X1.mean(axis=0)
            W = (X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)
            direction = eliminate(W / (n0 + n1 - 2), mu1 - mu0)
            cosine = b @ direction / (np.linalg.norm(b) * np.linalg.norm(direction))
            assert cosine >= 1 - 1e-12

    def test_coincident_group_means_rejected(self):
        X = [[0.0, 1.0], [2.0, -1.0]]
        with pytest.raises(DegenerateSeparationError):
            fit_from_matrices(X, X, ("u", "v"))

    def test_single_row_group_rejected(self):
        with pytest.raises(InsufficientGroupError):
            fit_from_matrices([[0.0]], [[4.0], [6.0]], ("x",))


class TestScoreBinding:
    def test_mapping_and_attribute_access(self, fitted_model, normalized_set):
        sample = normalized_set.samples[0]
        via_attrs = score(fitted_model, sample.ratios)
        via_dict = score(fitted_model, sample.ratios.as_dict())
        assert via_dict == via_attrs

    def test_missing_variable_raises_binding_error(self, fitted_model):
        with pytest.raises(BindingError, match="'eaa'"):
            score(fitted_model, {"roae": 1.0})

    def test_fisher_checks_binding_too(self, fitted_model):
        with pytest.raises(BindingError):
            fisher_classify(fitted_model, object())

    def test_centroid_scores_reproduced(self, fitted_model, normalized_set):
        scores0 = [
            score(fitted_model, s.ratios)
            for s in normalized_set.samples
            if s.label is GroupLabel.BANKRUPT
        ]
        assert np.mean(scores0) == pytest.approx(fitted_model.y0, abs=1e-12)
