"""Discriminant fit: the SPD solver, the fused multiply-add, the input
contract, the canonical scaling, Fisher rules and the fit's accuracy."""
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from distress_lda import (
    VARIABLES,
    BankYearRecord,
    BindingError,
    DegenerateSeparationError,
    GroupLabel,
    InsufficientGroupError,
    SingularMatrixError,
    VariableCountError,
    confusion_matrix,
    fit,
    fit_from_matrices,
    fit_normalizer,
    normalize_training_set,
    panel_labels,
    parse_panel,
    score_panel,
    solve_spd,
    training_set_from_panel,
)
from distress_lda.lda_fit import GROUP_KEYS, PRIORS, _fma
from observations import RAW_ZONES, labelled, raw_scores, vector
from oracles import eliminate, exact_fit_reference, linear_form_reference


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
        # L[1][0] = 1e155, whose square overflows to inf: a product, where pow would raise OverflowError.
        with pytest.raises(SingularMatrixError, match=r"pivot 1"):
            solve_spd([[1e-300, 1e5], [1e5, 1.0]], [1.0, 1.0])
        with pytest.raises(SingularMatrixError, match=r"pivot 0"):  # a NaN pivot is not positive
            solve_spd([[math.nan]], [1.0])


# Operands where the half-products stop being exact, or Veltkamp's split of an
# operand would overflow (|x| * (2**27 + 1) > max), and the ends of the range.
_FMA_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**-480, 2.0**-481,
              2.0**480, 2.0**481, 2.0**996, -(2.0**997), 1.7976931348623157e308, -1.7976931348623157e308]
_OVERFLOW = Fraction(2**1024 - 2**970)  # the midpoint past the largest float: from here on, round to inf
fma_operands = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_FMA_EDGES))


def _rounded(exact: Fraction) -> float:
    """exact to the nearest float, ties to even, +-inf from the overflow midpoint on."""
    if abs(exact) >= _OVERFLOW:
        return math.inf if exact > 0 else -math.inf
    return float(exact)  # int / int rounds correctly in Python


class TestFma:
    """_fma(a, b, c) is a * b + c rounded once, over the whole finite range."""

    @settings(deadline=None, max_examples=2000)
    @given(fma_operands, fma_operands, fma_operands)
    def test_rounds_the_exact_sum_once(self, a, b, c):
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        result = _fma(a, b, c)
        if exact == 0 and (a == 0.0 or b == 0.0):  # IEEE 754: -0 only for (-0) + (-0)
            negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0 and math.copysign(1.0, c) < 0
            assert result.hex() == (-0.0 if negative else 0.0).hex()
        else:
            assert result.hex() == _rounded(exact).hex()

    @pytest.mark.skipif(not hasattr(math, "fma"), reason="math.fma is Python 3.13+")
    @settings(deadline=None, max_examples=2000)
    @given(fma_operands, fma_operands, fma_operands)
    def test_matches_the_platform_fma(self, a, b, c):
        """The platform's own fused multiply-add, signed zeros included, wherever its result is finite."""
        try:
            expected = math.fma(a, b, c)
        except OverflowError:
            reject()
        assert _fma(a, b, c).hex() == expected.hex()

    def test_differs_from_the_twice_rounded_sum(self):
        """(1 + 2**-30)**2 - 1 keeps the 2**-60 that a * b rounds away."""
        a = 1.0 + 2.0**-30
        assert a * a - 1.0 == 2.0**-29
        assert _fma(a, a, -1.0) == 2.0**-29 + 2.0**-60

    @pytest.mark.parametrize(
        "a, b, c, expected",
        [
            (1e300, 1e300, -1e308, math.inf),  # the product alone overflows
            (-1e300, 1e300, 1e308, -math.inf),
            (1e300, 1e300, -math.inf, -math.inf),  # an exact product is finite
            (math.inf, 2.0, 1.0, math.inf),
            (math.inf, 0.0, 1.0, math.nan),
            (math.inf, 1.0, -math.inf, math.nan),
            (2.0, 3.0, math.nan, math.nan),
            (2.0, 3.0, math.inf, math.inf),
        ],
    )
    def test_non_finite_results(self, a, b, c, expected):
        result = _fma(a, b, c)
        assert result == expected or (math.isnan(expected) and math.isnan(result))


@pytest.fixture(scope="module", params=["table2", "panel-800 seed 1"])
def z_scored(request):
    """The z-scored training set of the case study, or of the benchmark's 800-bank panel of seed 1."""
    if request.param == "table2":
        return request.getfixturevalue("normalized_set")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from synth import generate_panel

        text, _ = generate_panel(1, 800)
    ts = training_set_from_panel(parse_panel(text), panel_labels(text))
    return normalize_training_set(fit_normalizer(ts), ts)


class TestAccuracy:
    """The fit stays close to its formulas evaluated at 60 digits on the same float rows.

    The bound, with u = 2**-53: to first order, every field's error comes from
    the solves with the pooled covariance S_w and from the sums that form S_w
    and the means. Cholesky is backward stable (Higham 2002, Thm 10.4): with
    those sums, the computed solution solves a system whose correlation-scaled
    matrix R is off by a few u. That scaling leaves Cholesky's errors as they
    are, and in it a perturbation grows by at most ||R^-1||_2 <= trace(R^-1),
    the sum of the pooled VIFs, <= p times the largest VIF. So the coefficients
    and Fisher weights keep within tol = 8 p u VIF_max of their largest entry,
    8 counting those few u. Every other field is a short dot product or sum
    over them, held to tol on the scale max(1, |value|); 1 is the scores' own
    scale, since b'S_w b = 1. Measured: every field within 11 u, against a
    tol of 1143 u on table2 (VIF_max 23.8) and 49 u on panel-800 seed 1
    (VIF_max 1.02). Float32 rounding of one input, or a dropped term, breaks it.
    """

    @pytest.mark.parametrize("priors", PRIORS)
    def test_within_the_bound_of_the_exact_fit(self, z_scored, priors):
        X0 = [s.ratios for s in z_scored.samples if s.label is GroupLabel.BANKRUPT]
        X1 = [s.ratios for s in z_scored.samples if s.label is GroupLabel.NONBANKRUPT]
        model, exact = fit(z_scored, priors), exact_fit_reference(X0, X1, priors)
        tol = 8 * len(VARIABLES) * 2.0**-53 * exact["largest_vif"]

        def vector_error(got, want):
            return max(abs(g - w) for g, w in zip(got, want, strict=True)) / max(map(abs, want))

        errors = {"coefficients": vector_error(model.coefficients.values(), exact["coefficients"])}
        for field in ("constant", "y0", "y1", "s0", "s1", "eigenvalue"):
            errors[field] = abs(getattr(model, field) - exact[field]) / max(1, abs(exact[field]))
        for key, (weights, constant) in zip(GROUP_KEYS, exact["fisher"]):
            errors[f"{key} weights"] = vector_error(model.fisher.weights[key].values(), weights)
            errors[f"{key} constant"] = abs(model.fisher.constants[key] - constant) / max(1, abs(constant))
        assert {field: float(error / tol) for field, error in errors.items() if error > tol} == {}


class TestInputContract:
    """Rows in, errors out: the fit takes lists, tuples and arrays of rows of one length."""

    X0 = [[0.0, 1.0], [2.0, 0.5], [1.0, 1.5]]
    X1 = [[4.0, 3.0], [6.0, 2.0], [5.0, 4.5]]

    @pytest.mark.parametrize(
        "X0, X1",
        [
            ([[0.0, 1.0], [2.0]], X1),  # a short row, which zip would silently truncate to
            ([[0.0, 1.0], [2.0, 0.5, 9.0]], X1),  # a long row, whose extra value zip would drop
            (X0, [[4.0, 3.0, 1.0], [6.0, 2.0, 1.0], [5.0, 4.5, 1.0]]),  # groups of different widths
        ],
    )
    def test_ragged_rows_raise_value_error(self, X0, X1):
        with pytest.raises(ValueError):
            fit_from_matrices(X0, X1, ("u", "v"))

    @pytest.mark.parametrize("flat", [[0.0, 1.0], (0.0, 1.0), np.array([0.0, 1.0])])
    def test_a_flat_group_is_one_row(self, flat):
        with pytest.raises(InsufficientGroupError, match="bankrupt=1"):
            fit_from_matrices(flat, self.X1, ("u", "v"))

    @pytest.mark.parametrize("empty", [[], (), np.empty((0, 2))])
    def test_an_empty_group_is_refused(self, empty):
        with pytest.raises(InsufficientGroupError):
            fit_from_matrices(self.X0, empty, ("u", "v"))

    @pytest.mark.parametrize("variables", [("u",), ("u", "v", "w")])
    def test_one_variable_name_per_column(self, variables):
        """Fewer names would drop a column from the score; more would name a missing coefficient."""
        with pytest.raises(ValueError, match=f"{len(variables)} variables named for rows of 2 columns"):
            fit_from_matrices(self.X0, self.X1, variables)

    def test_each_variable_named_once(self):
        """A repeated name would map one weight to it and drop the other column's."""
        with pytest.raises(ValueError, match=r"each variable must be named once, got \('u', 'u'\)"):
            fit_from_matrices(self.X0, self.X1, ("u", "u"))

    def test_lists_tuples_and_arrays_fit_alike(self):
        forms = [
            (self.X0, self.X1),
            (tuple(map(tuple, self.X0)), tuple(map(tuple, self.X1))),
            (np.array(self.X0), np.array(self.X1)),
            ([np.array(row) for row in self.X0], [tuple(row) for row in self.X1]),
        ]
        models = [fit_from_matrices(X0, X1, ("u", "v")) for X0, X1 in forms]
        for model in models[1:]:
            assert model.coefficients == models[0].coefficients
            assert model.fisher.constants == models[0].fisher.constants
            assert model.pooled_correlation == models[0].pooled_correlation


class TestGroupStats:
    """The pooled statistics, seen through the fitted model."""

    def test_one_variable_hand_case(self):
        """Groups {0,2} and {4,6}: pooled variance (1+1+1+1)/2 = 2, so the
        coefficient is 1/sqrt(2) and the standardized one b * sqrt(2) = 1."""
        model = fit_from_matrices([[0.0], [2.0]], [[4.0], [6.0]], ("x",))
        assert model.coefficients["x"] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert model.standardized["x"] == pytest.approx(1.0, abs=1e-14)
        assert (model.n0, model.n1) == (2, 2)

    def test_empty_group_rejected(self):
        with pytest.raises(InsufficientGroupError):
            fit_from_matrices(np.empty((0, 2)), [[1.0, 2.0]], ("u", "v"))

    def test_underdetermined_scatter_rejected(self):
        X0 = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        X1 = [[2.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        with pytest.raises(VariableCountError, match="3 variables exceed the limit of 2 for 4 samples"):
            fit_from_matrices(X0, X1, ("u", "v", "w"))

    def test_no_variables_rejected(self):
        """Rows of no columns leave no discriminant to fit: the design rule refuses
        them, before the coincident-means rule could hold vacuously."""
        with pytest.raises(VariableCountError, match="needs at least 1 variable, got 0"):
            fit_from_matrices([[], []], [[], []], ())

    def test_bundled_panel_counts(self, normalized_set):
        X0, X1 = (
            [tuple(s.ratios) for s in normalized_set.samples if s.label is label]
            for label in (GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT)
        )
        model = fit_from_matrices(X0, X1, VARIABLES)
        assert (model.n0, model.n1) == (2, 12)
        np.testing.assert_allclose(np.diag(model.pooled_correlation), np.ones(6), atol=1e-12)


@pytest.fixture(scope="module")
def hand_model():
    return fit_from_matrices([[0.0], [2.0]], [[4.0], [6.0]], ("eaa",))


class TestFitHandCase:
    """One variable, groups {0,2} and {4,6}.

    S_w = 2, so b = (5-1)/2 / sqrt(4 * (5-1)/2 / 2) = 1/sqrt(2), the constant
    centers the grand mean, the centroids land at -/+ sqrt(2), and the
    eigenvalue is 8/2 = 4.
    """

    def test_direction_and_constant(self, hand_model):
        assert hand_model.coefficients["eaa"] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
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
        # sd of eaa within groups is sqrt(2), so standardized = b * sqrt(2) = 1.
        assert hand_model.standardized["eaa"] == pytest.approx(1.0, rel=1e-12)

    def test_midpoint_classification(self, hand_model):
        calls = [GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT, GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT]
        cm = confusion_matrix(hand_model, labelled([[1.0], [5.0], [2.9], [3.1]], calls))
        assert cm.correct_fraction() == 1.0

    def test_exact_tie_goes_healthy(self):
        # Solver rounding keeps most fits off exact ties; groups {-3, -1} and
        # {1, 3} mirror each other, so both Fisher functions are -1 + log(1/2)
        # at 0 to the bit, and a training sample there sits on the boundary.
        model = fit_from_matrices([[-3.0], [-1.0]], [[1.0], [3.0]], ("eaa",))
        fisher = model.fisher
        at_zero = [linear_form_reference(fisher.constants[k], fisher.weights[k], {"eaa": 0.0}) for k in fisher.weights]
        assert at_zero[0] == at_zero[1]
        cm = confusion_matrix(model, labelled([[0.0]], [GroupLabel.BANKRUPT]))
        assert cm.counts == {(GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT): 1}


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
        scores = np.array(raw_scores(fitted_model, [s.ratios for s in normalized_set.samples]))
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

        reordered = TrainingSet(tuple(reversed(normalized_set.samples)))
        other = fit(reordered)
        for name in fitted_model.variables:
            assert other.coefficients[name] == pytest.approx(
                fitted_model.coefficients[name], abs=1e-12
            )
        assert other.eigenvalue == pytest.approx(fitted_model.eigenvalue, abs=1e-12)

    def test_column_rescaling_leaves_scores_alone(self):
        rng = np.random.default_rng(41)
        X0, X1 = _random_instance(rng, 4, 9, 3)
        names = VARIABLES[:3]
        base = fit_from_matrices(X0, X1, names)

        scale = np.array([3.0, 0.04, 1.0])
        shift = np.array([-2.0, 7.5, 0.0])
        rescaled = fit_from_matrices(X0 * scale + shift, X1 * scale + shift, names)

        probe = rng.normal(size=(20, 3))
        for before, after in zip(raw_scores(base, probe), raw_scores(rescaled, probe * scale + shift)):
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

    def test_scores_tied_within_each_group_rejected(self):
        """x differs by one ulp within each group, so every score of a group
        rounds to one value: the within-group score scatter is 0, and the
        eigenvalue's division by it is refused as degenerate, not a ZeroDivisionError."""
        X0 = [(1.0, 0.0), (1.0 + math.ulp(1.0), 0.25)]
        X1 = [(6.0, 0.5), (6.0 + math.ulp(6.0), 1.0)]
        with pytest.raises(DegenerateSeparationError, match=r"^fitted model is degenerate: eigenvalue must be finite, got inf$"):
            fit_from_matrices(X0, X1, ("x", "y"))

    def test_single_row_group_rejected(self):
        with pytest.raises(InsufficientGroupError):
            fit_from_matrices([[0.0]], [[4.0], [6.0]], ("x",))


@pytest.fixture(scope="module")
def tuple_method_model(normalized_set):
    """The bundled fit with its columns named count, index, eaa, roae, roaa and nii,
    the first two of them methods of a ratio vector, which is a tuple."""
    X0 = [s.ratios for s in normalized_set.samples if s.label is GroupLabel.BANKRUPT]
    X1 = [s.ratios for s in normalized_set.samples if s.label is GroupLabel.NONBANKRUPT]
    return fit_from_matrices(X0, X1, ("count", "index", "eaa", "roae", "roaa", "nii"))


class TestScoreBinding:
    def test_mapping_and_attribute_access(self, fitted_model, normalized_set):
        """The column pass scores a sample as the per-observation form read by name does."""
        sample = normalized_set.samples[0]
        [via_columns] = raw_scores(fitted_model, [sample.ratios])
        via_dict = linear_form_reference(fitted_model.constant, fitted_model.coefficients, dict(zip(VARIABLES, sample.ratios)))
        assert via_dict == via_columns

    def test_missing_variable_raises_binding_error(self, tuple_method_model):
        record = BankYearRecord("Alpha", 2015, vector([1.0]), True)
        with pytest.raises(BindingError, match="^observation has no variable 'count'$"):
            score_panel(tuple_method_model, None, [record], RAW_ZONES)

    def test_fisher_checks_binding_too(self, tuple_method_model, normalized_set):
        """A variable named like a tuple method is not read off the ratio vector
        as an attribute: the Fisher functions' columns bind by VARIABLES."""
        with pytest.raises(BindingError, match="^observation has no variable 'count'$"):
            confusion_matrix(tuple_method_model, normalized_set)

    def test_centroid_scores_reproduced(self, fitted_model, normalized_set):
        scores0 = raw_scores(
            fitted_model, [s.ratios for s in normalized_set.samples if s.label is GroupLabel.BANKRUPT]
        )
        assert np.mean(scores0) == pytest.approx(fitted_model.y0, abs=1e-12)
