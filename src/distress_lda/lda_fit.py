"""Two-group canonical discriminant fit.

The discriminant direction is the pooled-covariance solve
b_raw = S_w^{-1}(mu1 - mu0), rescaled so the pooled within-group variance of
the scores is exactly 1 and oriented so the healthy centroid sits on the
positive side. That scaling makes the eigenvalue a plain ratio of between- to
within-group score scatter and pins the constant at minus the grand-mean
score, so a z-scored training set gets a constant of (numerically) zero.
The fit refuses group means that coincide, each |mu1_j - mu0_j| at most
_COINCIDENT = 64 epsilon times the pooled sd sqrt(S_w[j][j]): a rule with no unit.

This module holds the fit only. The core works on plain per-group matrices
with any number of columns; fit binds it to the six-ratio panel layout. The
model addresses its coefficients and Fisher weights by variable name, never
by column position; classification evaluates them, the score of a bank-year
and the two Fisher functions of a training sample alike.

A DiscriminantModel checks itself when built, by the fit or from a file:
ordered centroids, score sds >= 0, a design check_design accepts, a pooled
correlation matrix, and wilks = 1/(1 + eigenvalue) and canonical correlation =
sqrt(eigenvalue/(1 + eigenvalue)) within 1e-5, as files round them (the bundled
model by 2.3e-7). A fit whose model breaks a rule raises DegenerateSeparationError.

Each reduction follows one fixed order, not the host's BLAS kernel:
- means: dataset.column_sums, row by row;
- S_w: per group, entry (i, j) with i <= j is one fused multiply-add chain
  over the centred rows from 0.0, mirrored to (j, i); the groups' matrices
  are then added;
- each length-p dot (the scale, the constant, the centroids, the Fisher
  constants): one fused multiply-add chain from 0.0;
- each row's score: four lanes over the first p - p % 4 columns, then the
  tail (_row_dots, over all rows a column at a time);
- the score sums (the sds with n - 1 degrees of freedom, the grand mean and
  ss_within): numpy's pairwise summation.
These are the orders of numpy 2 on OpenBLAS's Haswell-class kernels, so the
package's recorded fits keep every bit; for p = 1 and p >= 8 OpenBLAS takes
other orders in places. A fused multiply-add rounds once, and math.fma is
3.13+: _fma_chain adds the four exact half-products of Veltkamp's split and
the total in one math.fsum (Shewchuk's exact sum); from 0.0 its first step is
x * y rounded, save that an exact 0 gives +0.0. Every bit of a fit comes from
IEEE + - * /, math.sqrt, math.fsum and the exact Fraction step; a square is
x * x, never pow. math.log, in the Fisher constants' prior, is the one libm call.
"""
from __future__ import annotations

import math
from itertools import repeat
from math import fsum
from operator import add, mul, not_
from typing import Sequence

from .dataset import VARIABLES, GroupLabel, TrainingSet, check_design, column_sums, ordered_sum
from .errors import DegenerateSeparationError, DomainError, PanelError, SingularMatrixError, VariableCountError
from .record import Record

GROUP_KEYS = ("bankrupt", "nonbankrupt")
_IDENTITY_TOLERANCE = 1e-5
_COINCIDENT = 64 * math.ulp(1.0)  # 64 epsilon, 128 unit roundoffs: see the module docstring
PRIORS = ("proportional", "equal")  # the Fisher-function prior rules; the first is the default


class FisherFunctions(Record):
    """Per-group linear classification functions w_g'z + c_g."""

    priors: dict[str, float]
    weights: dict[str, dict[str, float]]
    constants: dict[str, float]

    def _validate(self) -> None:
        if not all(pi > 0 for pi in self.priors.values()) or abs(sum(self.priors.values()) - 1.0) > 1e-6:
            raise ValueError("fisher priors must be positive and sum to 1")


class DiscriminantModel(Record):
    # Compared and hashed by identity: two fits are one model only if they are one object.
    def __eq__(self, other) -> bool:  # Record's __ne__ is its negation
        return self is other

    __hash__ = object.__hash__

    variables: tuple[str, ...]
    coefficients: dict[str, float]
    constant: float
    standardized: dict[str, float]
    y0: float  # bankrupt centroid
    y1: float  # non-bankrupt centroid
    s0: float  # bankrupt score sd
    s1: float  # non-bankrupt score sd
    n0: int
    n1: int
    eigenvalue: float
    canonical_correlation: float
    wilks_lambda: float
    fisher: FisherFunctions
    pooled_correlation: tuple[tuple[float, ...], ...]

    def _validate(self) -> None:
        if not self.y0 < self.y1:
            raise ValueError("non-bankrupt centroid must exceed the bankrupt one")
        for group, sd in zip(GROUP_KEYS, (self.s0, self.s1)):
            if not sd >= 0.0:
                raise ValueError(f"score_sd.{group} must be non-negative")
        p = len(self.variables)
        try:
            check_design(self.n0, self.n1, p)
        except PanelError as exc:  # a design the fit could never have produced
            field = "variables" if p < 1 and isinstance(exc, VariableCountError) else "group_sizes"
            raise ValueError(f"{field}: {exc}") from None
        try:
            check_correlation_matrix(self.pooled_correlation, p)
        except DomainError as exc:
            raise ValueError(f"pooled_correlation: {exc}") from None
        try:
            r_squared, wilks = separation(self.eigenvalue)
        except DomainError as exc:
            raise ValueError(str(exc)) from None
        if not 0.0 <= self.canonical_correlation < 1.0:
            raise ValueError("canonical_correlation must lie in [0, 1)")
        if not 0.0 < self.wilks_lambda <= 1.0:
            raise ValueError("wilks_lambda must lie in (0, 1]")
        if not abs(self.wilks_lambda - wilks) <= _IDENTITY_TOLERANCE:
            raise ValueError("wilks_lambda disagrees with 1/(1 + eigenvalue)")
        if not abs(self.canonical_correlation - math.sqrt(r_squared)) <= _IDENTITY_TOLERANCE:
            raise ValueError("canonical_correlation disagrees with sqrt(eigenvalue/(1 + eigenvalue))")


def separation(eigenvalue: float) -> tuple[float, float]:
    """(r_squared, wilks_lambda) of one discriminant function: eigenvalue/(1 + eigenvalue)
    and 1/(1 + eigenvalue). The canonical correlation is sqrt(r_squared)."""
    if eigenvalue < 0:
        raise DomainError(f"eigenvalue must be non-negative, got {eigenvalue}")
    if not eigenvalue < math.inf:  # nan fails it too
        raise DomainError(f"eigenvalue must be finite, got {eigenvalue}")
    return eigenvalue / (1.0 + eigenvalue), 1.0 / (1.0 + eigenvalue)


def check_correlation_matrix(corr, p: int) -> tuple[tuple[float, ...], ...]:
    """corr as a tuple of p rows of p floats; raises DomainError unless it is symmetric,
    has a unit diagonal and entries in [-1, 1], each within 1e-8. NaN fails every check."""
    matrix = tuple(tuple(float(v) for v in row) for row in corr)
    if len(matrix) != p or any(len(row) != p for row in matrix):
        raise DomainError(f"correlation matrix must be {p}x{p}, got rows of {list(map(len, matrix))}")
    if not all(abs(matrix[i][j] - matrix[j][i]) <= 1e-8 for i in range(p) for j in range(i)):
        raise DomainError("correlation matrix must be symmetric")
    if not all(abs(matrix[i][i] - 1.0) <= 1e-8 for i in range(p)):
        raise DomainError("correlation matrix must have unit diagonal")
    if not all(abs(x) <= 1.0 + 1e-8 for row in matrix for x in row):
        raise DomainError("correlation entries must lie in [-1, 1]")
    return matrix


def solve_spd(S, d) -> list[float]:
    """Solve S v = d for symmetric positive-definite S by Cholesky.

    S is rows of numbers and d a sequence; v comes back as a list. A pivot that is
    not positive, NaN included, means S is singular, indefinite or not finite and
    raises with its index, which in this pipeline names the offending variable.
    """
    S = [list(map(float, row)) for row in S]
    d = list(map(float, d))
    n = len(d)
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = S[j][j] - ordered_sum(L[j][k] * L[j][k] for k in range(j))
        if not pivot > 0.0:
            raise SingularMatrixError(f"matrix is not positive definite (pivot {j})")
        L[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            L[i][j] = (S[i][j] - ordered_sum(L[i][k] * L[j][k] for k in range(j))) / L[j][j]
    # L y = d, then L' v = y.
    y = [0.0] * n
    for i in range(n):
        y[i] = (d[i] - ordered_sum(L[i][k] * y[k] for k in range(i))) / L[i][i]
    v = [0.0] * n
    for i in range(n - 1, -1, -1):
        v[i] = (y[i] - ordered_sum(L[k][i] * v[k] for k in range(i + 1, n))) / L[i][i]
    return v


# For |a| and |b| in this range each product of a half of a with a half of b is
# exact: halves have at most 26 bits, neither split overflows, none underflows.
_EXACT_LOW, _EXACT_HIGH = 2.0**-480, 2.0**480
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(x: float) -> tuple[float, float | None, float | None]:
    """x with Veltkamp's halves of it, hi + lo = x, each of at most 26
    significant bits; the halves are None outside the exact range."""
    if _EXACT_LOW <= abs(x) <= _EXACT_HIGH:
        t = _SPLITTER * x
        hi = t - (t - x)
        return x, hi, x - hi
    return x, None, None


def _fma_chain(xs, ys, total: float = 0.0) -> float:
    """total + x0 * y0 + x1 * y1 + ... over split operands, one fused
    multiply-add per term. In the exact range x * y is exactly the sum of the
    four half-products, and math.fsum rounds that sum plus total once; outside
    it the term is made exactly in Fraction."""
    for (u, uh, ul), (v, vh, vl) in zip(xs, ys):
        if uh is None or vh is None:
            total = _fraction_fma(u, v, total)
        else:
            total = fsum((uh * vh, uh * vl, ul * vh, ul * vl, total))
    return total


def _fraction_fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, in Fraction; zero and non-finite operands follow IEEE 754."""
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is exact: a signed zero, an infinity or nan
    if not math.isfinite(c):
        return c
    from fractions import Fraction  # only here: its import costs each CLI call ~4 ms

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)  # int / int rounds once, to a signed zero on underflow
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add gives it; math.fma is 3.13+."""
    return _fma_chain((_split(a),), (_split(b),), c)


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    """sum of x[i] * y[i] as one fused multiply-add chain from 0.0, in index order."""
    return _fma_chain(map(_split, x), map(_split, y))


def _products(column: Sequence[float], w: float) -> list[float]:
    """x * w + 0.0 of each x, rounded once: the first step of a fused chain
    from 0.0 is the rounded product, save that an exact zero product gives +0.0.
    Adding -0.0 leaves any product as it is, an underflowed one included."""
    signs = map((-0.0, 0.0).__getitem__, map(not_, column)) if w else repeat(0.0)  # +0.0 where x is zero
    return list(map(add, map(mul, column, repeat(w)), signs))


def _row_dots(rows: Sequence[Sequence[float]], b: list[float]) -> list[float]:
    """row . b of each row, column by column. In four lanes: lane k chains the
    columns k, k + 4, ... of the first p - p % 4, and the lanes add as
    (l0 + l2) + (l1 + l3). A one-column tail chains on from there; a longer one
    is a chain over its other columns from its second column's product, added
    to the lanes. For p = 6 that is 4 products and 1 fused multiply-add a row."""
    columns, p = list(zip(*rows)), len(b)
    body = p - p % 4
    total = [0.0] * len(rows)
    if body:
        lanes = [_products(columns[k], b[k]) for k in range(4)]
        for m in range(4, body):
            lanes[m % 4] = list(map(_fma, columns[m], repeat(b[m]), lanes[m % 4]))
        total = list(map(add, map(add, lanes[0], lanes[2]), map(add, lanes[1], lanes[3])))
    if p - body == 1:
        return list(map(_fma, columns[body], repeat(b[body]), total))
    if p - body > 1:
        chain = list(map(mul, columns[body + 1], repeat(b[body + 1])))
        for m in (body, *range(body + 2, p)):
            chain = list(map(_fma, columns[m], repeat(b[m]), chain))
        return list(map(add, total, chain))
    return total


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's sum of a float vector: under 8 values in order; up to 128 in
    eight running sums, added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest in order; past 128 the two halves, split at a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        total = -0.0
        for value in values:
            total += value
        return total
    body = n - n % 8
    r = list(values[:8])
    for i in range(8, body, 8):
        r = [x + y for x, y in zip(r, values[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[body:]:
        total += value
    return total


def _sd(values: list[float]) -> float:
    """Standard deviation with n - 1 degrees of freedom, as numpy's std(ddof=1) sums it."""
    mean = _pairwise_sum(values) / len(values)
    return math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in values]) / (len(values) - 1))


def _scatter(rows: list[tuple[float, ...]], mean: Sequence[float]) -> list[list[float]]:
    """Sum over rows of the outer product of each row's deviation from mean.

    Entry (i, j), i <= j, is one fused multiply-add chain over the rows; (j, i) is its mirror.
    """
    centred = [[x - m for x, m in zip(row, mean)] for row in rows]
    columns = [list(map(_split, column)) for column in zip(*centred)]  # each value split once
    p = len(mean)
    W = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            W[i][j] = W[j][i] = _fma_chain(columns[i], columns[j])
    return W


def _rows(X) -> list[tuple[float, ...]]:
    """X as tuples of floats. A flat sequence of numbers is one row, as numpy's atleast_2d reads it."""
    try:
        return [tuple(map(float, row)) for row in X]
    except TypeError:  # the items are numbers, not rows
        return [tuple(map(float, X))]


def fit_from_matrices(
    X0, X1, variables: Sequence[str], priors: str = PRIORS[0]
) -> DiscriminantModel:
    """Fit the canonical discriminant function on two per-group matrices.

    X0 holds the bankrupt-group rows, X1 the non-bankrupt ones, as sequences
    of rows (lists, tuples or arrays) of one length, one column per name in
    variables; the design must pass check_design.
    """
    if priors not in PRIORS:
        raise ValueError(f"priors must be {PRIORS[0]!r} or {PRIORS[1]!r}, got {priors!r}")
    X0, X1 = _rows(X0), _rows(X1)
    widths = {len(row) for row in X0 + X1}
    if len(widths) > 1:
        raise ValueError(f"rows must all have one length, got lengths {sorted(widths)}")
    variables = tuple(variables)
    p = widths.pop() if widths else len(variables)  # no rows at all: check_design refuses the groups
    if p != len(variables):
        raise ValueError(f"{len(variables)} variables named for rows of {p} columns")
    if len(set(variables)) < p:  # a repeated name would keep one column's weights under it
        raise ValueError(f"each variable must be named once, got {variables!r}")
    n0, n1 = len(X0), len(X1)
    check_design(n0, n1, p)
    N = n0 + n1
    mu0 = [total / n0 for total in column_sums(X0)]
    mu1 = [total / n1 for total in column_sums(X1)]
    diff = [m1 - m0 for m0, m1 in zip(mu0, mu1)]
    W0, W1 = _scatter(X0, mu0), _scatter(X1, mu1)
    s_w = [[(u + v) / (N - 2) for u, v in zip(r0, r1)] for r0, r1 in zip(W0, W1)]  # pooled covariance
    dd = [math.sqrt(s_w[i][i]) for i in range(p)]  # each column's pooled within-group sd
    if all(abs(d) <= _COINCIDENT * sd for d, sd in zip(diff, dd)):
        raise DegenerateSeparationError("group means coincide; no discriminant direction")

    b_raw = solve_spd(s_w, diff)
    # b_raw' S_w b_raw = diff' b_raw, positive whenever the solve succeeded.
    root = math.sqrt(_dot(diff, b_raw))
    b = [v / root for v in b_raw]
    correlation = tuple(tuple(v / (di * dj) for v, dj in zip(row, dd)) for row, di in zip(s_w, dd))

    grand_mean = [total / N for total in column_sums(X0 + X1)]
    a = -_dot(b, grand_mean)

    y0 = _dot(b, mu0) + a
    y1 = _dot(b, mu1) + a
    scores0 = list(map(add, _row_dots(X0, b), repeat(a)))
    scores1 = list(map(add, _row_dots(X1, b), repeat(a)))
    s0, s1 = (_sd(scores) for scores in (scores0, scores1))

    grand = _pairwise_sum(scores0 + scores1) / N
    d0, d1 = y0 - grand, y1 - grand
    ss_between = n0 * (d0 * d0) + n1 * (d1 * d1)
    ss_within = _pairwise_sum([(s - y0) * (s - y0) for s in scores0]) + _pairwise_sum(
        [(s - y1) * (s - y1) for s in scores1]
    )
    eigenvalue = ss_between / ss_within if ss_within else math.inf  # tied scores: refused below

    if priors == "proportional":
        pi = {"bankrupt": n0 / N, "nonbankrupt": n1 / N}
    else:
        pi = {"bankrupt": 0.5, "nonbankrupt": 0.5}
    weights = {}
    constants = {}
    for key, mu in (("bankrupt", mu0), ("nonbankrupt", mu1)):
        w = solve_spd(s_w, mu)
        weights[key] = dict(zip(variables, w))
        constants[key] = -0.5 * _dot(mu, w) + math.log(pi[key])

    try:  # a model the rules refuse, such as one whose canonical correlation rounds to 1
        r_squared, wilks_lambda = separation(eigenvalue)
        return DiscriminantModel(
            variables=variables,
            coefficients=dict(zip(variables, b)),
            constant=a,
            standardized=dict(zip(variables, (v * d for v, d in zip(b, dd)))),
            y0=y0,
            y1=y1,
            s0=s0,
            s1=s1,
            n0=n0,
            n1=n1,
            eigenvalue=eigenvalue,
            canonical_correlation=math.sqrt(r_squared),
            wilks_lambda=wilks_lambda,
            fisher=FisherFunctions(priors=pi, weights=weights, constants=constants),
            pooled_correlation=correlation,
        )
    except (DomainError, ValueError) as exc:
        raise DegenerateSeparationError(f"fitted model is degenerate: {exc}") from None


def fit(tsZ: TrainingSet, priors: str = PRIORS[0]) -> DiscriminantModel:
    """Fit the canonical discriminant function on a (normalized) training set.

    priors selects the Fisher-function prior probabilities: "proportional"
    uses group sizes over N (the default; it reproduces published constants
    for unbalanced panels), "equal" uses 1/2 per group, under which Fisher
    classification collapses to the centroid-midpoint rule.
    """
    X0 = [s.ratios for s in tsZ.samples if s.label is GroupLabel.BANKRUPT]
    X1 = [s.ratios for s in tsZ.samples if s.label is GroupLabel.NONBANKRUPT]
    return fit_from_matrices(X0, X1, VARIABLES, priors=priors)
