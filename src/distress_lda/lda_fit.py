"""Two-group canonical discriminant fit.

The discriminant direction is the pooled-covariance solve
b_raw = S_w^{-1}(mu1 - mu0), rescaled so the pooled within-group variance of
the scores is exactly 1 and oriented so the healthy centroid sits on the
positive side. That scaling makes the eigenvalue a plain ratio of between- to
within-group score scatter and pins the constant at minus the grand-mean
score, so a z-scored training set gets a constant of (numerically) zero.

The core works on plain per-group matrices with any number of columns; the
TrainingSet entry points bind it to the six-ratio panel layout. Everything
downstream addresses coefficients by variable name, never by column
position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .dataset import VARIABLES, GroupLabel, TrainingSet, check_variable_count
from .errors import (
    BindingError,
    DegenerateSeparationError,
    InsufficientGroupError,
    SingularMatrixError,
)

if TYPE_CHECKING:
    import numpy as np

GROUP_KEYS = ("bankrupt", "nonbankrupt")


@dataclass(frozen=True, eq=False)
class GroupStatistics:
    """Per-group means plus the pooled within-group covariance/correlation."""

    variables: tuple[str, ...]
    n0: int
    n1: int
    mu0: np.ndarray
    mu1: np.ndarray
    s_w: np.ndarray  # pooled within-group covariance, divisor N - 2
    correlation: np.ndarray


@dataclass(frozen=True)
class FisherFunctions:
    """Per-group linear classification functions w_g'z + c_g."""

    priors: dict[str, float]
    weights: dict[str, dict[str, float]]
    constants: dict[str, float]


@dataclass(frozen=True, eq=False)
class DiscriminantModel:
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


def solve_spd(S, d) -> np.ndarray:
    """Solve S v = d for symmetric positive-definite S by Cholesky.

    A non-positive pivot means S is singular or indefinite and raises with
    the failing pivot index, which in this pipeline names the offending
    variable directly.
    """
    import numpy as np
    S = np.asarray(S, dtype=float)
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        pivot = S[j, j] - sum(L[j, k] ** 2 for k in range(j))
        if pivot <= 0.0:
            raise SingularMatrixError(f"matrix is not positive definite (pivot {j})")
        L[j, j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            L[i, j] = (S[i, j] - sum(L[i, k] * L[j, k] for k in range(j))) / L[j, j]
    # L y = d, then L' v = y.
    y = np.zeros(n)
    for i in range(n):
        y[i] = (d[i] - sum(L[i, k] * y[k] for k in range(i))) / L[i, i]
    v = np.zeros(n)
    for i in range(n - 1, -1, -1):
        v[i] = (y[i] - sum(L[k, i] * v[k] for k in range(i + 1, n))) / L[i, i]
    return v


def group_stats_from_matrices(X0, X1, variables: Sequence[str]) -> GroupStatistics:
    """Pooled within-group covariance of two row-per-sample matrices."""
    import numpy as np
    X0, X1 = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (X0, X1))
    if X0.size == 0 or X1.size == 0:
        raise InsufficientGroupError("both groups must be non-empty")
    n0, n1 = len(X0), len(X1)
    check_variable_count(X0.shape[1], n0 + n1)
    mu0 = X0.mean(axis=0)
    mu1 = X1.mean(axis=0)
    W = (X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)
    s_w = W / (n0 + n1 - 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        dd = np.sqrt(np.diag(s_w))
        correlation = s_w / np.outer(dd, dd)
    return GroupStatistics(
        variables=tuple(variables), n0=n0, n1=n1, mu0=mu0, mu1=mu1, s_w=s_w, correlation=correlation
    )


def fit_from_matrices(
    X0, X1, variables: Sequence[str], priors: str = "proportional"
) -> DiscriminantModel:
    """Fit the canonical discriminant function on two per-group matrices.

    X0 holds the bankrupt-group rows, X1 the non-bankrupt ones; each group
    needs at least two rows so its score dispersion exists.
    """
    import numpy as np
    if priors not in ("proportional", "equal"):
        raise ValueError(f"priors must be 'proportional' or 'equal', got {priors!r}")
    X0, X1 = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (X0, X1))
    stats = group_stats_from_matrices(X0, X1, variables)
    n0, n1 = stats.n0, stats.n1
    if n0 < 2 or n1 < 2:
        raise InsufficientGroupError(f"each group needs at least 2 samples, got {n0} and {n1}")
    N = n0 + n1
    diff = stats.mu1 - stats.mu0
    if np.max(np.abs(diff)) < 1e-12:
        raise DegenerateSeparationError("group means coincide; no discriminant direction")

    b_raw = solve_spd(stats.s_w, diff)
    # b_raw' S_w b_raw = diff' b_raw, positive whenever the solve succeeded.
    scale = float(diff @ b_raw)
    b = b_raw / math.sqrt(scale)

    grand_mean = np.vstack([X0, X1]).mean(axis=0)
    a = -float(b @ grand_mean)

    y0 = float(b @ stats.mu0) + a
    y1 = float(b @ stats.mu1) + a
    scores0 = X0 @ b + a
    scores1 = X1 @ b + a
    s0 = float(scores0.std(ddof=1))
    s1 = float(scores1.std(ddof=1))

    grand = float(np.concatenate([scores0, scores1]).mean())
    ss_between = n0 * (y0 - grand) ** 2 + n1 * (y1 - grand) ** 2
    ss_within = float(((scores0 - y0) ** 2).sum() + ((scores1 - y1) ** 2).sum())
    eigenvalue = float(ss_between / ss_within)
    canonical_correlation = math.sqrt(eigenvalue / (1.0 + eigenvalue))
    wilks_lambda = 1.0 / (1.0 + eigenvalue)

    standardized = b * np.sqrt(np.diag(stats.s_w))

    if priors == "proportional":
        pi = {"bankrupt": n0 / N, "nonbankrupt": n1 / N}
    else:
        pi = {"bankrupt": 0.5, "nonbankrupt": 0.5}
    weights = {}
    constants = {}
    for key, mu in (("bankrupt", stats.mu0), ("nonbankrupt", stats.mu1)):
        w = solve_spd(stats.s_w, mu)
        weights[key] = dict(zip(stats.variables, map(float, w)))
        constants[key] = -0.5 * float(mu @ w) + math.log(pi[key])

    return DiscriminantModel(
        variables=stats.variables,
        coefficients=dict(zip(stats.variables, map(float, b))),
        constant=a,
        standardized=dict(zip(stats.variables, map(float, standardized))),
        y0=y0,
        y1=y1,
        s0=s0,
        s1=s1,
        n0=n0,
        n1=n1,
        eigenvalue=eigenvalue,
        canonical_correlation=canonical_correlation,
        wilks_lambda=wilks_lambda,
        fisher=FisherFunctions(priors=pi, weights=weights, constants=constants),
        pooled_correlation=tuple(tuple(float(v) for v in row) for row in stats.correlation),
    )


def fit(tsZ: TrainingSet, priors: str = "proportional") -> DiscriminantModel:
    """Fit the canonical discriminant function on a (normalized) training set.

    priors selects the Fisher-function prior probabilities: "proportional"
    uses group sizes over N (the default; it reproduces published constants
    for unbalanced panels), "equal" uses 1/2 per group, under which Fisher
    classification collapses to the centroid-midpoint rule.
    """
    X0 = [s.ratios.as_tuple() for s in tsZ.samples if s.label is GroupLabel.BANKRUPT]
    X1 = [s.ratios.as_tuple() for s in tsZ.samples if s.label is GroupLabel.NONBANKRUPT]
    return fit_from_matrices(X0, X1, VARIABLES, priors=priors)


def _component(z, name: str) -> float:
    # Observations bind by name: attribute access for ratio vectors, item
    # access for plain mappings.
    if hasattr(z, name):
        return getattr(z, name)
    try:
        return z[name]
    except (TypeError, KeyError, IndexError):
        raise BindingError(f"observation has no variable {name!r}") from None


def score(model: DiscriminantModel, z) -> float:
    """Discriminant score a + b'z, coefficients matched to z by name."""
    total = model.constant
    for name, coef in model.coefficients.items():
        total += coef * _component(z, name)
    return total


def fisher_classify(model: DiscriminantModel, z) -> GroupLabel:
    """Group whose Fisher function is largest at z.

    An exact tie resolves to NonBankrupt: silently inventing a bankruptcy
    call from a coin-flip boundary is the costly mistake.
    """
    values = {}
    for key in GROUP_KEYS:
        total = model.fisher.constants[key]
        for name, w in model.fisher.weights[key].items():
            total += w * _component(z, name)
        values[key] = total
    if values["bankrupt"] > values["nonbankrupt"]:
        return GroupLabel.BANKRUPT
    return GroupLabel.NONBANKRUPT
