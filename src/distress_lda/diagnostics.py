"""Diagnostic battery for a fitted discriminant model.

Four checks: a collinearity screen over the pooled within-group correlations,
Bartlett's chi-square approximation for Wilks' Lambda, Box's M homogeneity
test with its F approximation, and the canonical-correlation summary.

Box's M is applied to the discriminant scores (one function, so the group
"covariance matrices" are plain variances). The six-variable version would
need every group covariance to be full rank, which a group of two members
cannot deliver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import VARIABLES
from .errors import DomainError, InsufficientGroupError, ZeroVarianceError
from .lda_fit import DiscriminantModel
from .special_functions import chi_square_sf, f_sf

# Default significance level for verdicts; every entry point takes an override.
ALPHA_DEFAULT = 0.05


@dataclass(frozen=True)
class WilksResult:
    wilks_lambda: float
    chi_square: float
    df: int
    p_value: float


@dataclass(frozen=True)
class BoxMResult:
    m: float
    f_approx: float
    df1: float
    df2: float
    p_value: float
    branch: str  # which tail of the F approximation produced f_approx


@dataclass(frozen=True, eq=False)
class CollinearityReport:
    matrix: np.ndarray
    threshold: float
    flagged_pairs: tuple[tuple[str, str, float], ...]


def check_correlation_matrix(corr, p: int) -> np.ndarray:
    """corr as a p x p array; raises DomainError unless it is symmetric, has a
    unit diagonal and entries in [-1, 1], each within 1e-8."""
    matrix = np.asarray(corr, dtype=float)
    if matrix.shape != (p, p):
        raise DomainError(f"correlation matrix must be {p}x{p}, got {matrix.shape}")
    if not np.allclose(matrix, matrix.T, atol=1e-8):
        raise DomainError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-8):
        raise DomainError("correlation matrix must have unit diagonal")
    if np.max(np.abs(matrix)) > 1.0 + 1e-8:
        raise DomainError("correlation entries must lie in [-1, 1]")
    return matrix


def collinearity_check(corr, threshold: float = 0.8, variables: Sequence[str] = VARIABLES) -> CollinearityReport:
    """Flag every variable pair whose |correlation| exceeds the threshold.

    Pairs come back sorted by |r| descending. The comparison is strict, so a
    pair sitting exactly at the threshold is not flagged.
    """
    p = len(variables)
    matrix = check_correlation_matrix(corr, p)
    pairs = [
        (variables[i], variables[j], float(matrix[i, j]))
        for i in range(p)
        for j in range(i + 1, p)
        if abs(matrix[i, j]) > threshold
    ]
    pairs.sort(key=lambda pair: abs(pair[2]), reverse=True)
    return CollinearityReport(matrix=matrix, threshold=threshold, flagged_pairs=tuple(pairs))


def eigenvalue_from_scores(scores_by_group: Mapping[str, Sequence[float]]) -> float:
    """Between- over within-group sum of squares of discriminant scores."""
    groups = {key: np.asarray(vals, dtype=float) for key, vals in scores_by_group.items()}
    if any(len(v) == 0 for v in groups.values()):
        raise InsufficientGroupError("every group needs at least one score")
    all_scores = np.concatenate(list(groups.values()))
    grand = all_scores.mean()
    ss_between = sum(len(v) * (v.mean() - grand) ** 2 for v in groups.values())
    ss_within = sum(float(((v - v.mean()) ** 2).sum()) for v in groups.values())
    if ss_within == 0.0:
        raise ZeroVarianceError("within-group score scatter is zero")
    return float(ss_between / ss_within)


def wilks_from_eigenvalue(eigenvalue: float, n: int, p: int, g: int = 2) -> WilksResult:
    """Bartlett's chi-square test of Wilks' Lambda = 1/(1 + eigenvalue)."""
    if eigenvalue < 0:
        raise DomainError(f"eigenvalue must be non-negative, got {eigenvalue}")
    multiplier = n - 1 - (p + g) / 2.0
    if multiplier <= 0:
        raise InsufficientGroupError(
            f"too few cases for the chi-square approximation (n={n}, p={p}, g={g})"
        )
    wilks = 1.0 / (1.0 + eigenvalue)
    chi_square = -multiplier * math.log(wilks)
    df = p * (g - 1)
    return WilksResult(
        wilks_lambda=wilks,
        chi_square=chi_square,
        df=df,
        p_value=chi_square_sf(chi_square, df),
    )


def wilks_test(model: DiscriminantModel) -> WilksResult:
    """Wilks' Lambda significance for a fitted model, at its own n and p."""
    return wilks_from_eigenvalue(model.eigenvalue, model.n0 + model.n1, len(model.variables))


def _box_f_approx(m: float, c1: float, c2: float, df1: float) -> tuple[float, float, str]:
    # Box's two-tailed F transformation of M; the branch depends on the sign
    # of c2 - c1^2. With one discriminant function c2 is identically zero, so
    # live fits only ever see the second branch.
    if c2 > c1 * c1:
        df2 = (df1 + 2.0) / (c2 - c1 * c1)
        f = m * (1.0 - c1 - df1 / df2) / df1
        branch = "c2>c1^2"
    else:
        df2 = (df1 + 2.0) / (c1 * c1 - c2)
        b = df2 / (1.0 - c1 + 2.0 / df2)
        # The transformation is derived for M < b; beyond that the tail
        # probability has already collapsed to zero.
        f = df2 * m / (df1 * (b - m)) if m < b else math.inf
        branch = "c2<=c1^2"
    return f, df2, branch


def _box_m_from_variances(variances: Sequence[float], sizes: Sequence[int]) -> BoxMResult:
    g = len(variances)
    n_total = sum(sizes)
    dof = [n - 1 for n in sizes]
    dof_total = n_total - g
    pooled = sum(d * v for d, v in zip(dof, variances)) / dof_total
    m = dof_total * math.log(pooled) - sum(d * math.log(v) for d, v in zip(dof, variances))
    m = max(m, 0.0)  # exact-zero case can round to -1e-16

    pf = 1  # number of discriminant functions
    c1 = (sum(1.0 / d for d in dof) - 1.0 / dof_total) * (2 * pf * pf + 3 * pf - 1) / (
        6.0 * (pf + 1) * (g - 1)
    )
    c2 = (sum(1.0 / d**2 for d in dof) - 1.0 / dof_total**2) * (pf - 1) * (pf + 2) / (
        6.0 * (g - 1)
    )
    df1 = pf * (pf + 1) * (g - 1) / 2.0
    f, df2, branch = _box_f_approx(m, c1, c2, df1)
    p_value = 0.0 if math.isinf(f) else f_sf(f, df1, df2)
    return BoxMResult(m=m, f_approx=f, df1=df1, df2=df2, p_value=p_value, branch=branch)


def box_m_test(scores_by_group: Mapping[str, Sequence[float]]) -> BoxMResult:
    """Box's M homogeneity test on per-group discriminant scores."""
    variances = []
    sizes = []
    for key, values in scores_by_group.items():
        arr = np.asarray(values, dtype=float)
        if len(arr) < 2:
            raise InsufficientGroupError(f"group {key!r} needs at least 2 scores")
        var = float(arr.var(ddof=1))
        if var == 0.0:
            raise ZeroVarianceError(f"group {key!r} has zero score variance")
        variances.append(var)
        sizes.append(len(arr))
    if len(variances) < 2:
        raise InsufficientGroupError("Box's M needs at least two groups")
    return _box_m_from_variances(variances, sizes)


def box_m_from_model(model: DiscriminantModel) -> BoxMResult:
    """Box's M from the model's stored per-group score dispersions."""
    for key, sd in (("bankrupt", model.s0), ("nonbankrupt", model.s1)):
        if sd <= 0.0:
            raise ZeroVarianceError(f"group {key!r} has zero score variance")
    return _box_m_from_variances([model.s0**2, model.s1**2], [model.n0, model.n1])


def canonical_summary(eigenvalue: float) -> dict[str, float]:
    """Eigenvalue/variance-share/canonical-correlation block for one function."""
    if eigenvalue < 0:
        raise DomainError(f"eigenvalue must be non-negative, got {eigenvalue}")
    r_squared = eigenvalue / (1.0 + eigenvalue)
    return {
        "eigenvalue": eigenvalue,
        "percent_variance": 100.0,
        "cumulative_percent": 100.0,
        "canonical_correlation": math.sqrt(r_squared),
        "r_squared": r_squared,
    }


def wilks_verdict(result: WilksResult, alpha: float = ALPHA_DEFAULT) -> str:
    if result.p_value < alpha:
        return "discriminant function is significant"
    return "discriminant function is not significant"


def box_verdict(result: BoxMResult, alpha: float = ALPHA_DEFAULT) -> str:
    if result.p_value >= alpha:
        return "group score variance is homogenous"
    return "group score variance is not homogenous"
