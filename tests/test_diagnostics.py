"""Collinearity screen, Wilks' Lambda, Box's M, canonical summary."""
import math

import numpy as np
import pytest

from distress_lda import (
    DomainError,
    InsufficientGroupError,
    ZeroVarianceError,
    box_m_from_model,
    box_m_test,
    box_verdict,
    canonical_summary,
    collinearity_check,
    eigenvalue_from_scores,
    f_sf,
    fit_from_matrices,
    wilks_from_eigenvalue,
    wilks_test,
    wilks_verdict,
)
from distress_lda.lda_fit import separation

# Pooled within-group correlations of the standardized panel, as reported
# alongside the reference model (row order EAA, ROAA, ROAE, NII, LAAA, BDTLA).
REPORTED_CORRELATION = [
    [1.000, 0.066, -0.225, 0.210, -0.606, -0.022],
    [0.066, 1.000, 0.834, -0.222, -0.195, -0.859],
    [-0.225, 0.834, 1.000, -0.345, 0.040, -0.799],
    [0.210, -0.222, -0.345, 1.000, -0.221, -0.178],
    [-0.606, -0.195, 0.040, -0.221, 1.000, 0.222],
    [-0.022, -0.859, -0.799, -0.178, 0.222, 1.000],
]
REPORTED_ORDER = ("eaa", "roaa", "roae", "nii", "laaa", "bdtla")


class TestCollinearity:
    def test_reported_matrix_flags_profitability_cluster(self):
        report = collinearity_check(REPORTED_CORRELATION, variables=REPORTED_ORDER)
        assert report.flagged_pairs == (
            ("roaa", "bdtla", -0.859),
            ("roaa", "roae", 0.834),
        )

    def test_lower_threshold_pulls_in_third_pair(self):
        report = collinearity_check(REPORTED_CORRELATION, threshold=0.7, variables=REPORTED_ORDER)
        assert ("roae", "bdtla", -0.799) in report.flagged_pairs
        assert len(report.flagged_pairs) == 3

    def test_threshold_is_strict(self):
        matrix = np.eye(2)
        matrix[0, 1] = matrix[1, 0] = 0.8
        report = collinearity_check(matrix, threshold=0.8, variables=("u", "v"))
        assert report.flagged_pairs == ()

    def test_identity_matrix_is_clean(self):
        report = collinearity_check(np.eye(6))
        assert report.flagged_pairs == ()
        # The default threshold is 0.8: |r| = 0.8 passes, 0.81 is flagged.
        matrix = np.eye(2)
        matrix[0, 1] = matrix[1, 0] = 0.8
        assert collinearity_check(matrix, variables=("u", "v")).flagged_pairs == ()
        matrix[0, 1] = matrix[1, 0] = 0.81
        assert collinearity_check(matrix, variables=("u", "v")).flagged_pairs == (("u", "v", 0.81),)

    def test_shape_checked(self):
        with pytest.raises(DomainError, match="6x6"):
            collinearity_check(np.eye(3))

    def test_symmetry_checked(self):
        matrix = np.eye(6)
        matrix[0, 1] = 0.5
        with pytest.raises(DomainError, match="symmetric"):
            collinearity_check(matrix)

    def test_unit_diagonal_checked(self):
        matrix = np.eye(6) * 1.5
        with pytest.raises(DomainError, match="diagonal"):
            collinearity_check(matrix)

    def test_entries_bounded(self):
        matrix = np.eye(6)
        matrix[2, 4] = matrix[4, 2] = 1.2
        with pytest.raises(DomainError, match=r"\[-1, 1\]"):
            collinearity_check(matrix)

    @pytest.mark.parametrize(
        "cells, match", [([(1, 1)], "diagonal"), ([(2, 4), (4, 2)], "symmetric")]
    )
    def test_nan_fails_the_checks(self, cells, match):
        matrix = np.eye(6)
        for i, j in cells:
            matrix[i, j] = math.nan
        with pytest.raises(DomainError, match=match):
            collinearity_check(matrix)

    def test_fitted_model_correlation_passes_screen(self, fitted_model):
        report = collinearity_check(np.array(fitted_model.pooled_correlation))
        flagged = {frozenset((a, b)) for a, b, _ in report.flagged_pairs}
        assert frozenset(("roae", "roaa")) in flagged
        assert frozenset(("roaa", "bdtla")) in flagged


class TestEigenvalueFromScores:
    def test_hand_case(self):
        assert eigenvalue_from_scores({"a": [0.0, 2.0], "b": [4.0, 6.0]}) == pytest.approx(4.0)

    def test_reference_scores(self, score_table):
        assert eigenvalue_from_scores(score_table) == pytest.approx(3.136244, abs=5e-6)

    def test_empty_group_rejected(self):
        with pytest.raises(InsufficientGroupError):
            eigenvalue_from_scores({"a": [], "b": [1.0]})

    def test_zero_scatter_rejected(self):
        with pytest.raises(ZeroVarianceError):
            eigenvalue_from_scores({"a": [1.0, 1.0], "b": [2.0, 2.0]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DomainError, match=f"^group 'a': score must be finite, got {bad!r}$"):
            eigenvalue_from_scores({"a": [bad, 1.0], "b": [1.0, 2.0]})

    def test_scatter_past_float_range_rejected(self):
        """Finite scores whose squared deviations overflow, within a group or between
        the groups, would give an eigenvalue of 0.0 or an OverflowError."""
        with pytest.raises(ZeroVarianceError, match="^group 'a' has a score variance past float range$"):
            eigenvalue_from_scores({"a": [1e308, -1e308], "b": [1.0, 2.0]})
        with pytest.raises(ZeroVarianceError, match="^the score scatter is past float range$"):
            eigenvalue_from_scores({"a": [1e160, 1.0000001e160], "b": [-1e160, -1.0000001e160]})

    @pytest.mark.parametrize("groups", [{}, {"a": [1.0, 2.0]}], ids=["none", "one"])
    def test_fewer_than_two_groups_rejected(self, groups):
        with pytest.raises(InsufficientGroupError, match=f"^the eigenvalue needs at least two groups, got {len(groups)}$"):
            eigenvalue_from_scores(groups)


class TestWilks:
    def test_hand_case(self):
        """lambda = 1, n = 10, p = 2: Lambda = 1/2, chi2 = 7 ln 2, df = 2."""
        result = wilks_from_eigenvalue(1.0, n=10, p=2)
        assert result.wilks_lambda == pytest.approx(0.5, rel=1e-12)
        assert result.chi_square == pytest.approx(7 * math.log(2), rel=1e-12)
        assert result.df == 2
        assert result.p_value == pytest.approx(2.0**-3.5, rel=1e-12)

    def test_no_separation_is_never_significant(self):
        result = wilks_from_eigenvalue(0.0, n=20, p=3)
        assert result.wilks_lambda == 1.0
        assert result.chi_square == 0.0
        assert result.p_value == 1.0

    def test_reference_scale(self, score_table):
        eigenvalue = eigenvalue_from_scores(score_table)
        result = wilks_from_eigenvalue(eigenvalue, n=14, p=6)
        assert result.wilks_lambda == pytest.approx(0.242, abs=5e-4)
        assert result.chi_square == pytest.approx(12.778, abs=5e-3)
        assert result.df == 6
        assert result.p_value == pytest.approx(0.0467, abs=2e-4)

    def test_model_defaults(self, reference_model):
        result = wilks_test(reference_model)
        assert result.df == 6
        assert result.chi_square == pytest.approx(12.778, abs=5e-3)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            wilks_from_eigenvalue(-0.1, n=10, p=2)

    def test_too_few_cases_rejected(self):
        with pytest.raises(InsufficientGroupError, match="n=5"):
            wilks_from_eigenvalue(1.0, n=5, p=7)

    def test_verdict_depends_on_alpha(self, reference_model):
        result = wilks_test(reference_model)
        assert wilks_verdict(result) == "discriminant function is significant"
        assert wilks_verdict(result, alpha=0.01) == "discriminant function is not significant"


class TestBoxM:
    def test_reference_scores(self, score_table):
        result = box_m_test(score_table)
        assert result.m == pytest.approx(4.417, abs=5e-3)
        assert result.df1 == 1
        assert result.df2 == pytest.approx(26.596, abs=5e-3)
        assert result.f_approx == pytest.approx(3.722, abs=5e-3)
        assert result.p_value == pytest.approx(0.064, abs=5e-4)
        assert result.branch == "c2<=c1^2"

    def test_model_path_matches_score_path(self, reference_model, score_table):
        from_model = box_m_from_model(reference_model)
        from_scores = box_m_test(score_table)
        assert from_model.m == pytest.approx(from_scores.m, abs=1e-4)
        assert from_model.df2 == pytest.approx(from_scores.df2, rel=1e-12)
        assert from_model.p_value == pytest.approx(from_scores.p_value, abs=1e-5)

    def test_equal_variances_give_zero_statistic(self):
        result = box_m_test({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        assert result.m == 0.0
        assert result.f_approx == 0.0
        assert result.p_value == 1.0

    def test_hand_computed_unequal_variances(self):
        """Variances 1 and 100 with three scores each.

        M = 4 ln 50.5 - 2 ln 100, c1 = 1/4, df2 = 48, and the F value
        follows from b = df2 / (1 - c1 + 2/df2).
        """
        result = box_m_test({"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0, 30.0]})
        m = 4 * math.log(50.5) - 2 * math.log(100.0)
        assert result.m == pytest.approx(m, rel=1e-12)
        assert result.df1 == 1.0
        assert result.df2 == pytest.approx(48.0, rel=1e-12)
        b = 48.0 / (1.0 - 0.25 + 2.0 / 48.0)
        assert result.f_approx == pytest.approx(48.0 * m / (b - m), rel=1e-12)
        assert result.p_value == pytest.approx(f_sf(result.f_approx, 1.0, 48.0), rel=1e-12)

    def test_statistic_never_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(scale=rng.uniform(0.5, 3.0), size=int(rng.integers(2, 12)))
            b = rng.normal(scale=rng.uniform(0.5, 3.0), size=int(rng.integers(2, 12)))
            result = box_m_test({"a": a, "b": b})
            assert result.m >= 0.0
            assert 0.0 <= result.p_value <= 1.0

    def test_overflowing_statistic_collapses_p(self):
        # Push M past the b threshold of the second branch.
        result = box_m_test({"a": [0.0, 1e-9], "b": [0.0, 1e9]})
        assert math.isinf(result.f_approx)
        assert result.p_value == 0.0

    def test_group_size_checked(self):
        with pytest.raises(InsufficientGroupError, match="'b'"):
            box_m_test({"a": [1.0, 2.0], "b": [1.0]})

    def test_two_groups_required(self):
        with pytest.raises(InsufficientGroupError):
            box_m_test({"a": [1.0, 2.0]})

    def test_three_groups_rejected(self):
        with pytest.raises(InsufficientGroupError, match="exactly two groups, got 3"):
            box_m_test({"a": [1.0, 2.0], "b": [1.0, 3.0], "c": [2.0, 5.0]})

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError, match="'a'"):
            box_m_test({"a": [2.0, 2.0], "b": [1.0, 3.0]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        """A nan score made M nan and the verdict "not homogenous"."""
        with pytest.raises(DomainError, match=f"^group 'b': score must be finite, got {bad!r}$"):
            box_m_test({"a": [1.0, 3.0], "b": [2.0, bad, 5.0]})

    def test_variance_past_float_range_rejected(self):
        """Box's M takes the log of each group's variance and of the pooled one."""
        with pytest.raises(ZeroVarianceError, match="^group 'b' has a score variance past float range$"):
            box_m_test({"a": [1.0, 3.0], "b": [-1e200, 1e200]})
        with pytest.raises(ZeroVarianceError, match="^the pooled group has a score variance past float range$"):
            box_m_test({"a": [-7e153, 7e153], "b": [-7e153, 7e153]})

    def test_verdict_depends_on_alpha(self, reference_model):
        result = box_m_from_model(reference_model)
        assert box_verdict(result) == "group score variance is homogenous"
        assert box_verdict(result, alpha=0.10) == "group score variance is not homogenous"


class TestCanonicalSummary:
    def test_known_eigenvalues(self):
        summary = canonical_summary(3.0)
        assert summary["canonical_correlation"] == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert summary["r_squared"] == pytest.approx(0.75, rel=1e-12)
        assert summary["percent_variance"] == 100.0
        assert summary["cumulative_percent"] == 100.0
        assert canonical_summary(0.0)["canonical_correlation"] == 0.0

    def test_reference_model(self, reference_model):
        summary = canonical_summary(reference_model.eigenvalue)
        assert summary["eigenvalue"] == pytest.approx(3.136, abs=5e-4)
        assert summary["canonical_correlation"] == pytest.approx(0.871, abs=5e-4)
        assert summary["r_squared"] == pytest.approx(0.7582, abs=5e-4)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            canonical_summary(-1e-9)


class TestOneEigenvalueRule:
    """The fit and the diagnostics derive Wilks' Lambda and the canonical
    correlation from the eigenvalue by one rule, so they agree to the bit."""

    @staticmethod
    def _models(fitted_model):
        yield fitted_model
        rng = np.random.default_rng(15)
        for n0, n1, p in ((3, 9, 2), (5, 5, 4), (2, 12, 6), (8, 30, 3)):
            X0 = rng.normal(size=(n0, p))
            X1 = rng.normal(size=(n1, p)) + rng.normal(scale=2.0, size=p)
            yield fit_from_matrices(X0, X1, [f"x{i}" for i in range(p)])

    def test_fit_and_diagnostics_agree_bitwise(self, fitted_model):
        for model in self._models(fitted_model):
            assert model.wilks_lambda == wilks_test(model).wilks_lambda
            summary = canonical_summary(model.eigenvalue)
            assert model.canonical_correlation == summary["canonical_correlation"]

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError, match=r"^eigenvalue must be non-negative, got -0\.001$"):
            separation(-1e-3)
