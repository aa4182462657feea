"""Tail probabilities for the diagnostic battery.

Regularized incomplete gamma/beta and the chi-square / F survival functions
built on them. Degrees of freedom may be non-integer (the homogeneity test's
F approximation produces df2 = 26.596-style values), so everything is done
with the classical series / continued-fraction pair rather than factorial
shortcuts. Target accuracy is 1e-10 relative, far beyond what the three
decimals of a significance column need, so precision never muddies a
comparison against published values.
"""
from __future__ import annotations

import math

from .errors import DomainError

# Series/CF iteration ceiling and termination threshold. The pipeline's
# arguments are tiny (df < 30); 300 terms is already generous headroom.
_MAX_ITER = 300
_EPS = 1e-15
_TINY = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    # Power series for P(a,x), reliable for x < a + 1.
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise DomainError(f"incomplete gamma series failed to converge at a={a}, x={x}")


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Continued fraction for Q(a,x) via modified Lentz, for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise DomainError(f"incomplete gamma fraction failed to converge at a={a}, x={x}")


def reg_inc_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if not a > 0:
        raise DomainError(f"reg_inc_gamma_p requires a > 0, got {a}")
    if x < 0:
        raise DomainError(f"reg_inc_gamma_p requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def reg_inc_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if not a > 0:
        raise DomainError(f"reg_inc_gamma_q requires a > 0, got {a}")
    if x < 0:
        raise DomainError(f"reg_inc_gamma_q requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta fraction failed to converge at a={a}, b={b}, x={x}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # The fraction converges fastest below the distribution's bulk; above it,
    # evaluate the mirrored tail instead.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def chi_square_sf(x: float, df: float) -> float:
    """Chi-square survival function P[X > x] with df degrees of freedom."""
    if not df > 0:
        raise DomainError(f"chi_square_sf requires df > 0, got {df}")
    if x < 0:
        raise DomainError(f"chi_square_sf requires x >= 0, got {x}")
    return reg_inc_gamma_q(df / 2.0, x / 2.0)


def f_sf(x: float, d1: float, d2: float) -> float:
    """F survival function P[F > x] with (d1, d2) degrees of freedom.

    Both df values may be non-integer.
    """
    if not (d1 > 0 and d2 > 0):
        raise DomainError(f"f_sf requires d1, d2 > 0, got d1={d1}, d2={d2}")
    if x < 0:
        raise DomainError(f"f_sf requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    return reg_inc_beta(d2 / (d2 + d1 * x), d2 / 2.0, d1 / 2.0)
