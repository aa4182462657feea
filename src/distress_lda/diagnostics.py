"""Diagnostic battery for a fitted discriminant model.

Four checks: a collinearity screen over the pooled within-group correlations,
Bartlett's chi-square approximation for Wilks' Lambda, Box's M homogeneity
test with its F approximation, and the canonical-correlation summary.

Every test is sized to the one fit this package makes: two groups and one
discriminant function. Box's M is applied to the discriminant scores, so the
group "covariance matrices" are plain variances. The six-variable version
would need every group covariance to be full rank, which a group of two
members cannot deliver.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

from .dataset import VARIABLES, column_moments
from .errors import DomainError, InsufficientGroupError, ZeroVarianceError
from .lda_fit import DiscriminantModel, check_correlation_matrix, separation
from .record import Record
from .special_functions import chi_square_sf, f_sf

# Default significance level and |r| flag threshold; every entry point takes an override.
ALPHA_DEFAULT = 0.05
COLLINEARITY_THRESHOLD_DEFAULT = 0.8


class WilksResult(Record):
    wilks_lambda: float
    chi_square: float
    df: int
    p_value: float


class BoxMResult(Record):
    m: float
    f_approx: float
    df1: float
    df2: float
    p_value: float
    branch: str  # the form of the F approximation; one function always takes c2<=c1^2


class CollinearityReport(Record):
    flagged_pairs: tuple[tuple[str, str, float], ...]


def collinearity_check(
    corr, threshold: float = COLLINEARITY_THRESHOLD_DEFAULT, variables: Sequence[str] = VARIABLES
) -> CollinearityReport:
    """Flag every variable pair whose |correlation| exceeds the threshold.

    Pairs come back sorted by |r| descending. The comparison is strict, so a
    pair sitting exactly at the threshold is not flagged.
    """
    p = len(variables)
    matrix = check_correlation_matrix(corr, p)
    pairs = [
        (variables[i], variables[j], matrix[i][j])
        for i in range(p)
        for j in range(i + 1, p)
        if abs(matrix[i][j]) > threshold
    ]
    pairs.sort(key=lambda pair: abs(pair[2]), reverse=True)
    return CollinearityReport(flagged_pairs=tuple(pairs))


def _score_rows(scores_by_group: Mapping[str, Sequence[float]]) -> dict[str, list[tuple[float]]]:
    """Each group's scores as one-column rows, once every score is checked finite."""
    groups = {}
    for key, values in scores_by_group.items():
        rows = [(float(v),) for v in values]
        for (v,) in rows:
            if not math.isfinite(v):
                raise DomainError(f"group {key!r}: score must be finite, got {v!r}")
        groups[key] = rows
    return groups


def eigenvalue_from_scores(scores_by_group: Mapping[str, Sequence[float]]) -> float:
    """Between- over within-group sum of squares of discriminant scores.

    Refused: fewer than two groups, an empty group, a score that is not finite,
    zero within-group scatter, and a scatter past float range."""
    if len(scores_by_group) < 2:
        raise InsufficientGroupError(f"the eigenvalue needs at least two groups, got {len(scores_by_group)}")
    groups = _score_rows(scores_by_group)
    if any(len(rows) == 0 for rows in groups.values()):
        raise InsufficientGroupError("every group needs at least one score")
    (grand,), _ = column_moments([row for rows in groups.values() for row in rows])
    ss_between = ss_within = 0.0
    for key, rows in groups.items():
        (mean,), (scatter,) = column_moments(rows)
        if scatter == math.inf:  # finite scores whose mean or squared deviations overflow
            raise ZeroVarianceError(f"group {key!r} has a score variance past float range")
        ss_between += len(rows) * ((mean - grand) * (mean - grand))
        ss_within += scatter
    if ss_within == 0.0:
        raise ZeroVarianceError("within-group score scatter is zero")
    if ss_between == math.inf or ss_within == math.inf:
        raise ZeroVarianceError("the score scatter is past float range")
    return ss_between / ss_within


def wilks_from_eigenvalue(eigenvalue: float, n: int, p: int) -> WilksResult:
    """Bartlett's chi-square test of Wilks' Lambda = 1/(1 + eigenvalue), two groups."""
    _r_squared, wilks = separation(eigenvalue)
    multiplier = n - 1 - (p + 2) / 2.0
    if multiplier <= 0:
        raise InsufficientGroupError(
            f"too few cases for the chi-square approximation (n={n}, p={p})"
        )
    chi_square = -multiplier * math.log(wilks)
    return WilksResult(
        wilks_lambda=wilks,
        chi_square=chi_square,
        df=p,
        p_value=chi_square_sf(chi_square, p),
    )


def wilks_test(model: DiscriminantModel) -> WilksResult:
    """Wilks' Lambda significance for a fitted model, at its own n and p."""
    return wilks_from_eigenvalue(model.eigenvalue, model.n0 + model.n1, len(model.variables))


def _measurable(variance: float, what: str) -> None:
    """Refuse a variance whose logarithm Box's M cannot take: zero, or past float range."""
    if variance == 0.0:
        raise ZeroVarianceError(f"{what} has zero score variance")
    if variance == math.inf:
        raise ZeroVarianceError(f"{what} has a score variance past float range")


def _box_m_two_groups(v0: float, n0: int, v1: float, n1: int) -> BoxMResult:
    # Box's F approximation at p = 1 function and g = 2 groups: c1's factor
    # (2p^2 + 3p - 1) / (6(p + 1)(g - 1)) is 4/12.0, df1 = p(p + 1)(g - 1)/2 = 1,
    # and c2 carries a factor p - 1, so it is 0 and only the c2 <= c1^2 form applies.
    d0, d1 = n0 - 1, n1 - 1
    dof = n0 + n1 - 2
    pooled = (d0 * v0 + d1 * v1) / dof
    _measurable(pooled, "the pooled group")
    m = dof * math.log(pooled) - (d0 * math.log(v0) + d1 * math.log(v1))
    m = max(m, 0.0)  # exact-zero case can round to -1e-16
    c1 = (1.0 / d0 + 1.0 / d1 - 1.0 / dof) * 4 / 12.0
    df1 = 1.0
    df2 = (df1 + 2.0) / (c1 * c1)
    b = df2 / (1.0 - c1 + 2.0 / df2)
    # The transformation is derived for M < b; beyond that the tail
    # probability has already collapsed to zero.
    f = df2 * m / (df1 * (b - m)) if m < b else math.inf
    p_value = f_sf(f, df1, df2)  # 0.0 at f = inf
    return BoxMResult(m=m, f_approx=f, df1=df1, df2=df2, p_value=p_value, branch="c2<=c1^2")


def box_m_test(scores_by_group: Mapping[str, Sequence[float]]) -> BoxMResult:
    """Box's M homogeneity test on the discriminant scores of two groups."""
    if len(scores_by_group) != 2:
        raise InsufficientGroupError(f"Box's M needs exactly two groups, got {len(scores_by_group)}")
    groups = []
    for key, rows in _score_rows(scores_by_group).items():
        if len(rows) < 2:
            raise InsufficientGroupError(f"group {key!r} needs at least 2 scores")
        var = column_moments(rows)[1][0] / (len(rows) - 1)
        _measurable(var, f"group {key!r}")
        groups.append((var, len(rows)))
    (v0, n0), (v1, n1) = groups
    return _box_m_two_groups(v0, n0, v1, n1)


def box_m_from_model(model: DiscriminantModel) -> BoxMResult:
    """Box's M from the model's stored per-group score dispersions."""
    variances = []
    for key, sd in (("bankrupt", model.s0), ("nonbankrupt", model.s1)):
        var = sd * sd
        _measurable(var, f"group {key!r}")
        variances.append(var)
    v0, v1 = variances
    return _box_m_two_groups(v0, model.n0, v1, model.n1)


def canonical_summary(eigenvalue: float) -> dict[str, float]:
    """Eigenvalue/variance-share/canonical-correlation block for one function."""
    r_squared, _wilks = separation(eigenvalue)
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
