"""Special-function tests against closed forms and the mpmath oracles."""
import math

import pytest

from distress_lda import DomainError
from distress_lda.special_functions import (
    chi_square_sf,
    f_sf,
    reg_inc_beta,
    reg_inc_gamma_p,
    reg_inc_gamma_q,
)
from oracles import (
    beta_i_reference,
    chi_square_sf_reference,
    f_sf_reference,
    gamma_p_reference,
    gamma_q_reference,
)

GAMMA_A_GRID = (0.5, 1.0, 2.5, 3.0, 7.0, 13.298, 30.0)
GAMMA_X_GRID = (1e-3, 0.3, 1.0, 2.7, 8.0, 20.0, 75.0)
BETA_AB_GRID = ((0.5, 0.5), (1.0, 3.0), (2.0, 2.0), (13.298, 0.5), (5.5, 9.25))
BETA_X_GRID = (1e-4, 0.1, 0.37, 0.5, 0.82, 0.999)


class TestRegIncGamma:
    def test_exponential_special_case(self):
        """P(1, x) = 1 - e^{-x} exactly."""
        for x in GAMMA_X_GRID:
            assert reg_inc_gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12)
        assert reg_inc_gamma_p(1.0, 1.0) == pytest.approx(0.6321205588285577, rel=1e-12)

    def test_boundary_at_zero(self):
        for a in GAMMA_A_GRID:
            assert reg_inc_gamma_p(a, 0.0) == 0.0
            assert reg_inc_gamma_q(a, 0.0) == 1.0

    def test_complement_identity(self):
        for a in GAMMA_A_GRID:
            for x in GAMMA_X_GRID:
                p = reg_inc_gamma_p(a, x)
                q = reg_inc_gamma_q(a, x)
                assert 0.0 <= p <= 1.0
                assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_against_series_oracle(self):
        for a in GAMMA_A_GRID:
            for x in GAMMA_X_GRID:
                assert reg_inc_gamma_p(a, x) == pytest.approx(
                    float(gamma_p_reference(a, x)), rel=1e-11, abs=1e-300
                )
                assert reg_inc_gamma_q(a, x) == pytest.approx(
                    float(gamma_q_reference(a, x)), rel=1e-11, abs=1e-300
                )

    def test_monotone_in_x(self):
        for a in GAMMA_A_GRID:
            values = [reg_inc_gamma_p(a, x) for x in sorted(GAMMA_X_GRID)]
            assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_p(-2.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_q(1.0, -0.1)


class TestRegIncBeta:
    def test_uniform_special_case(self):
        """I_x(1, 1) is the identity on [0, 1]."""
        for x in BETA_X_GRID:
            assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, rel=1e-12)

    def test_endpoints(self):
        for a, b in BETA_AB_GRID:
            assert reg_inc_beta(0.0, a, b) == 0.0
            assert reg_inc_beta(1.0, a, b) == 1.0

    def test_reflection_identity(self):
        """I_x(a, b) = 1 - I_{1-x}(b, a)."""
        for a, b in BETA_AB_GRID:
            for x in BETA_X_GRID:
                assert reg_inc_beta(x, a, b) == pytest.approx(
                    1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-12
                )

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 3.5, 13.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, rel=1e-12)

    def test_against_series_oracle(self):
        for a, b in BETA_AB_GRID:
            for x in BETA_X_GRID:
                assert reg_inc_beta(x, a, b) == pytest.approx(
                    float(beta_i_reference(x, a, b)), rel=1e-10, abs=1e-300
                )

    def test_monotone_in_x(self):
        for a, b in BETA_AB_GRID:
            values = [reg_inc_beta(x, a, b) for x in sorted(BETA_X_GRID)]
            assert values == sorted(values)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                reg_inc_beta(bad, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 2.0, -1.0)


class TestChiSquareSf:
    def test_certainty_at_zero(self):
        for df in (1, 2, 6, 13.5):
            assert chi_square_sf(0.0, df) == 1.0

    def test_two_df_closed_form(self):
        """With df = 2 the survival function is exactly e^{-x/2}."""
        for x in (0.1, 1.0, 4.2, 12.0, 40.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_textbook_critical_value(self):
        # 95th percentile of chi-square with one degree of freedom
        assert chi_square_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)

    def test_significance_of_bundled_model(self, reference_model):
        from distress_lda import wilks_test

        result = wilks_test(reference_model)
        assert chi_square_sf(result.chi_square, result.df) == pytest.approx(
            0.046698, abs=1e-4
        )

    def test_against_oracle(self):
        for df in (1, 2, 3, 6, 11, 26.595511):
            for x in (0.05, 0.8, 3.0, 12.778094, 30.0, 75.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(chi_square_sf_reference(x, df)), rel=1e-10, abs=1e-300
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)


class TestFSf:
    def test_certainty_at_zero(self):
        assert f_sf(0.0, 1, 26.595511) == 1.0

    def test_equal_df_median(self):
        """P(F > 1) = 1/2 when both degrees of freedom match."""
        for d in (1.0, 4.0, 9.5):
            assert f_sf(1.0, d, d) == pytest.approx(0.5, rel=1e-12)

    def test_homogeneity_statistic_of_bundled_model(self, reference_model):
        from distress_lda import box_m_from_model

        result = box_m_from_model(reference_model)
        assert f_sf(result.f_approx, result.df1, result.df2) == pytest.approx(
            0.064418, abs=1e-4
        )

    def test_against_oracle(self):
        for d1, d2 in ((1, 26.595511), (1, 5), (3, 8), (6, 6), (10, 40.5)):
            for x in (0.01, 0.4, 1.0, 3.722479, 9.0, 40.0):
                assert f_sf(x, d1, d2) == pytest.approx(
                    float(f_sf_reference(x, d1, d2)), rel=1e-10, abs=1e-300
                )

    def test_monotone_in_x(self):
        values = [f_sf(x, 1, 26.595511) for x in (0.0, 0.5, 1.5, 3.7, 8.0, 20.0)]
        assert values == sorted(values, reverse=True)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_sf(-0.5, 1, 10)
        with pytest.raises(DomainError):
            f_sf(1.0, 0, 10)
        with pytest.raises(DomainError):
            f_sf(1.0, 2, -3)
