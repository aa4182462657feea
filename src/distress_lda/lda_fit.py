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
from typing import Sequence

from .dataset import VARIABLES, GroupLabel, TrainingSet, check_design, ordered_sum
from .errors import BindingError, DegenerateSeparationError, DomainError, SingularMatrixError
from .record import Record

GROUP_KEYS = ("bankrupt", "nonbankrupt")
PRIORS = ("proportional", "equal")  # the Fisher-function prior rules; the first is the default


class FisherFunctions(Record):
    """Per-group linear classification functions w_g'z + c_g."""

    priors: dict[str, float]
    weights: dict[str, dict[str, float]]
    constants: dict[str, float]


class DiscriminantModel(Record):
    # Compared and hashed by identity: two fits are one model only if they are one object.
    __eq__ = object.__eq__
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


def separation(eigenvalue: float) -> tuple[float, float]:
    """(r_squared, wilks_lambda) of one discriminant function: eigenvalue/(1 + eigenvalue)
    and 1/(1 + eigenvalue). The canonical correlation is sqrt(r_squared)."""
    if eigenvalue < 0:
        raise DomainError(f"eigenvalue must be non-negative, got {eigenvalue}")
    return eigenvalue / (1.0 + eigenvalue), 1.0 / (1.0 + eigenvalue)


def solve_spd(S, d) -> list[float]:
    """Solve S v = d for symmetric positive-definite S by Cholesky.

    S is rows of numbers and d a sequence; v comes back as a list. A non-positive
    pivot means S is singular or indefinite and raises with the failing pivot
    index, which in this pipeline names the offending variable directly.
    """
    S = [list(map(float, row)) for row in S]
    d = list(map(float, d))
    n = len(d)
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        # ** 2 is C pow; x * x can round differently in the last bit, and the recorded fits use pow.
        pivot = S[j][j] - ordered_sum(L[j][k] ** 2 for k in range(j))
        if pivot <= 0.0:
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


def fit_from_matrices(
    X0, X1, variables: Sequence[str], priors: str = PRIORS[0]
) -> DiscriminantModel:
    """Fit the canonical discriminant function on two per-group matrices.

    X0 holds the bankrupt-group rows, X1 the non-bankrupt ones; the design
    must pass check_design.
    """
    import numpy as np
    if priors not in PRIORS:
        raise ValueError(f"priors must be {PRIORS[0]!r} or {PRIORS[1]!r}, got {priors!r}")
    X0, X1 = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (X0, X1))
    n0, n1 = len(X0), len(X1)
    check_design(n0, n1, X0.shape[1])
    N = n0 + n1
    variables = tuple(variables)
    mu0 = X0.mean(axis=0)
    mu1 = X1.mean(axis=0)
    diff = mu1 - mu0
    if np.max(np.abs(diff)) < 1e-12:
        raise DegenerateSeparationError("group means coincide; no discriminant direction")

    W = (X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)
    s_w = W / (N - 2)  # pooled within-group covariance
    b_raw = np.array(solve_spd(s_w, diff))
    # b_raw' S_w b_raw = diff' b_raw, positive whenever the solve succeeded.
    scale = float(diff @ b_raw)
    b = b_raw / math.sqrt(scale)
    # The solve proved S_w positive definite, so its diagonal is positive.
    dd = np.sqrt(np.diag(s_w))
    correlation = s_w / np.outer(dd, dd)

    grand_mean = np.vstack([X0, X1]).mean(axis=0)
    a = -float(b @ grand_mean)

    y0 = float(b @ mu0) + a
    y1 = float(b @ mu1) + a
    scores0 = X0 @ b + a
    scores1 = X1 @ b + a
    s0 = float(scores0.std(ddof=1))
    s1 = float(scores1.std(ddof=1))

    grand = float(np.concatenate([scores0, scores1]).mean())
    ss_between = n0 * (y0 - grand) ** 2 + n1 * (y1 - grand) ** 2
    ss_within = float(((scores0 - y0) ** 2).sum() + ((scores1 - y1) ** 2).sum())
    eigenvalue = float(ss_between / ss_within)
    r_squared, wilks_lambda = separation(eigenvalue)

    standardized = b * dd

    if priors == "proportional":
        pi = {"bankrupt": n0 / N, "nonbankrupt": n1 / N}
    else:
        pi = {"bankrupt": 0.5, "nonbankrupt": 0.5}
    weights = {}
    constants = {}
    for key, mu in (("bankrupt", mu0), ("nonbankrupt", mu1)):
        w = np.array(solve_spd(s_w, mu))
        weights[key] = dict(zip(variables, map(float, w)))
        constants[key] = -0.5 * float(mu @ w) + math.log(pi[key])

    return DiscriminantModel(
        variables=variables,
        coefficients=dict(zip(variables, map(float, b))),
        constant=a,
        standardized=dict(zip(variables, map(float, standardized))),
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
        pooled_correlation=tuple(tuple(float(v) for v in row) for row in correlation),
    )


def fit(tsZ: TrainingSet, priors: str = PRIORS[0]) -> DiscriminantModel:
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


def _linear(constant: float, weights: dict[str, float], z) -> float:
    """constant + sum of weight * component, in the weights' order."""
    total = constant
    for name, w in weights.items():
        total += w * _component(z, name)
    return total


def score(model: DiscriminantModel, z) -> float:
    """Discriminant score a + b'z, coefficients matched to z by name."""
    return _linear(model.constant, model.coefficients, z)


def fisher_classify(model: DiscriminantModel, z) -> GroupLabel:
    """Group whose Fisher function is largest at z.

    An exact tie resolves to NonBankrupt: silently inventing a bankruptcy
    call from a coin-flip boundary is the costly mistake.
    """
    fisher = model.fisher
    bankrupt, healthy = (_linear(fisher.constants[k], fisher.weights[k], z) for k in GROUP_KEYS)
    if bankrupt > healthy:
        return GroupLabel.BANKRUPT
    return GroupLabel.NONBANKRUPT
