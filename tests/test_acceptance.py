"""Acceptance battery for the distress-discriminant toolkit.

Each test covers one headline claim: the reported score-table statistics,
the variance-homogeneity check, centroids and cut-off, the end-to-end refit
from the bundled averages, the yearly evaluation tables, tail probabilities
against an independent oracle, fitted-model invariants under random
sampling, and small two-variable instances against brute force.

Every checked figure prints one PASS/FAIL line; run with -s to read the
battery as a checklist. A test collects all its lines before failing so a
red run still shows the complete picture.
"""
from __future__ import annotations

import math

import numpy as np

from distress_lda.classification import (
    confusion_matrix,
    cutoff_from_centroids,
    evaluate_panel,
)
from distress_lda.dataset import VARIABLES, GroupLabel
from distress_lda.diagnostics import (
    box_m_test,
    canonical_summary,
    eigenvalue_from_scores,
    wilks_from_eigenvalue,
)
from distress_lda.lda_fit import (
    fit_from_matrices,
    solve_spd,
)
from distress_lda.special_functions import (
    chi_square_sf,
    f_sf,
    reg_inc_beta,
    reg_inc_gamma_p,
)

from observations import labelled
from oracles import (
    chi_square_sf_reference,
    discriminant_direction_reference,
    eliminate,
    f_sf_reference,
)

# Reported standardized capital-adequacy column of the training panel.
REPORTED_EAA_Z = {
    "Moza Banco, S.A": -0.42518,
    "Nosso Banco, S.A": -1.05727,
    "Banco Internacional de Mocambique": -0.18334,
    "Banco Comercial e de Investimentos": -0.78245,
    "Standard Bank, S.A": -0.24930,
    "Barclays Bank Moçambique, S.A": -0.30426,
    "Banco Terra, S.A": 0.97090,
    "FNB Moçambique, S.A": -0.28228,
    "African Banking Cooperation, S.A": -0.58458,
    "Ecobank Moçambique, S.A": -0.00746,
    "First Capital Bank": 0.59165,
    "The Mauritius Bank": -0.02944,
    "Banco Nacional e de Invest.": 2.96608,
    "United Bank for Africa": -0.62305,
}

# Reported unstandardized coefficients; the refit must land within 0.25 of
# each (informational) and reproduce their magnitude ranking (hard check).
REPORTED_COEFFICIENTS = {
    "eaa": -0.040,
    "roae": 2.548,
    "roaa": 2.151,
    "nii": 2.377,
    "laaa": -0.487,
    "bdtla": 4.734,
}

# Reported yearly evaluation: zone counts and accuracy percent per year.
REPORTED_YEARS = {
    2012: (7, 0, 7, 50),
    2013: (3, 1, 12, 75),
    2014: (5, 0, 11, 69),
    2015: (4, 0, 15, 84),
    2016: (4, 1, 12, 71),
    2017: (3, 0, 15, 83),
    2018: (2, 0, 16, 89),
    2019: (0, 0, 17, 100),
    2020: (2, 1, 14, 82),
}


class Checklist:
    """Collects PASS/FAIL lines and raises once, at the end of a test."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}: {label}{suffix}")
        if not ok:
            self.failed.append(label)

    def within(self, label: str, got: float, want: float, tol: float) -> None:
        self.check(label, abs(got - want) <= tol, f"got {got:.6f}, want {want} +/- {tol}")

    def finish(self) -> None:
        assert not self.failed, "failed checks: " + "; ".join(self.failed)


def test_reported_score_table_summary_statistics(score_table):
    """The 14 reported scores reproduce the separation statistics."""
    c = Checklist()
    lam = eigenvalue_from_scores(score_table)
    c.within("eigenvalue of reported scores", lam, 3.136, 0.005)
    summary = canonical_summary(lam)
    c.within("canonical correlation", summary["canonical_correlation"], 0.871, 0.001)
    wilks = wilks_from_eigenvalue(lam, n=14, p=6)
    c.within("wilks lambda", wilks.wilks_lambda, 0.242, 0.001)
    c.within("chi-square", wilks.chi_square, 12.778, 0.02)
    c.check("chi-square df", wilks.df == 6, f"got {wilks.df}, want 6")
    c.within("significance", wilks.p_value, 0.047, 0.002)
    c.finish()


def test_reported_score_table_variance_homogeneity(score_table):
    """Box's M on the reported scores matches the reported F approximation."""
    c = Checklist()
    box = box_m_test(score_table)
    c.within("box m statistic", box.m, 4.416, 0.01)
    c.check("box df1", box.df1 == 1, f"got {box.df1}, want 1")
    c.within("box df2", box.df2, 26.596, 0.01)
    c.within("box f approximation", box.f_approx, 3.722, 0.01)
    c.within("box significance", box.p_value, 0.064, 0.002)
    c.finish()


def test_reported_centroids_and_cutoff(score_table):
    """Group means of the reported scores, and the cut-off they imply."""
    c = Checklist()
    y0 = float(np.mean(score_table["bankrupt"]))
    y1 = float(np.mean(score_table["nonbankrupt"]))
    c.within("bankrupt centroid", y0, -4.016, 0.001)
    c.within("non-bankrupt centroid", y1, 0.669, 0.001)
    cut = cutoff_from_centroids(-4.016, 2, 0.669, 12)
    c.within("size-weighted cut-off", cut, -2.86e-4, 1e-5)
    c.finish()


def test_refit_from_bundled_averages_matches_reported_model(normalized_set, fitted_model):
    """Fitting the bundled 2012-2015 averages recovers the reported model."""
    c = Checklist()

    deviations = {
        s.bank_id: abs(s.ratios.eaa - REPORTED_EAA_Z[s.bank_id])
        for s in normalized_set.samples
    }
    worst = max(deviations, key=deviations.get)
    c.check(
        "standardized capital ratio within 5e-3 for all 14 banks",
        all(d <= 5e-3 for d in deviations.values()),
        f"largest gap {deviations[worst]:.2e} at {worst}",
    )

    confusion = confusion_matrix(fitted_model, normalized_set)
    c.check(
        "in-sample reclassification 14/14",
        confusion.correct_fraction() == 1.0,
        f"{sum(confusion.count(g, g) for g in GroupLabel)}/{confusion.total()}",
    )

    ranking = tuple(
        sorted(VARIABLES, key=lambda v: abs(fitted_model.coefficients[v]), reverse=True)
    )
    want = ("bdtla", "roae", "nii", "roaa", "laaa", "eaa")
    c.check(
        "coefficient magnitude ranking",
        ranking == want,
        " > ".join(ranking),
    )

    for name in VARIABLES:
        gap = abs(fitted_model.coefficients[name] - REPORTED_COEFFICIENTS[name])
        print(
            f"INFO: coefficient {name}: fitted {fitted_model.coefficients[name]:+.4f}, "
            f"reported {REPORTED_COEFFICIENTS[name]:+.3f}, gap {gap:.3f} "
            f"({'inside' if gap <= 0.25 else 'outside'} 0.25)"
        )
    c.finish()


def test_yearly_evaluation_matches_reported_tables(
    reference_model, reference_stats, evaluation_panel, published_zones
):
    """Raw-ratio scoring with the published zones reproduces the yearly table."""
    c = Checklist()
    records, labels = evaluation_panel
    report = evaluate_panel(
        reference_model, reference_stats, records, labels, published_zones, "raw"
    )
    rows = {row.year: row for row in report.years}
    c.check(
        "all reported years present",
        sorted(rows) == sorted(REPORTED_YEARS),
        f"got {sorted(rows)}",
    )
    for year, (n_b, n_g, n_n, acc_pct) in sorted(REPORTED_YEARS.items()):
        row = rows[year]
        counts_ok = (
            abs(row.bankrupt_count - n_b) <= 1
            and abs(row.grey_count - n_g) <= 1
            and abs(row.nonbankrupt_count - n_n) <= 1
        )
        c.check(
            f"{year} zone counts within 1",
            counts_ok,
            f"got {row.bankrupt_count}/{row.grey_count}/{row.nonbankrupt_count}, "
            f"reported {n_b}/{n_g}/{n_n}",
        )
        c.check(
            f"{year} accuracy within 2pp",
            abs(row.accuracy - acc_pct / 100.0) <= 0.02,
            f"got {100.0 * row.accuracy:.1f}%, reported {acc_pct}%",
        )
    c.check(
        "all going concerns clear in 2019",
        rows[2019].accuracy == 1.0,
        f"accuracy {rows[2019].accuracy}",
    )
    c.check(
        "2015 misses one of the two failing banks",
        rows[2015].type1_rate == 0.5,
        f"type I rate {rows[2015].type1_rate}",
    )
    c.finish()


def test_tail_probabilities_match_independent_oracle():
    """Survival functions against a 50-digit series oracle, plus identities."""
    c = Checklist()

    chi_points = [
        (q * df, df)
        for df in (1, 2, 3, 4, 6, 8, 12, 20, 30, 50)
        for q in (0.05, 0.4, 1.0, 2.2, 4.0)
    ]
    worst = max(
        float(
            abs(chi_square_sf(x, df) - chi_square_sf_reference(x, df))
            / chi_square_sf_reference(x, df)
        )
        for x, df in chi_points
    )
    c.check(
        f"chi-square tail vs oracle on {len(chi_points)} points",
        worst <= 1e-9,
        f"max relative error {worst:.2e}",
    )

    f_points = [
        (x, d1, d2)
        for d1, d2 in (
            (1, 1), (1, 12), (2, 6), (3, 9), (4, 4),
            (6, 26), (8, 2), (10, 10), (13, 5), (26, 26),
        )
        for x in (0.1, 0.5, 1.0, 2.5, 7.0)
    ]
    worst = max(
        float(abs(f_sf(x, d1, d2) - f_sf_reference(x, d1, d2)) / f_sf_reference(x, d1, d2))
        for x, d1, d2 in f_points
    )
    c.check(
        f"f tail vs oracle on {len(f_points)} points",
        worst <= 1e-9,
        f"max relative error {worst:.2e}",
    )

    xs = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    worst = max(abs(reg_inc_gamma_p(1.0, x) - (1.0 - math.exp(-x))) for x in xs)
    c.check("exponential identity P(1, x) = 1 - e^-x", worst <= 1e-12, f"max gap {worst:.2e}")

    us = (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6)
    worst = max(abs(reg_inc_beta(u, 1.0, 1.0) - u) for u in us)
    c.check("uniform identity I_x(1, 1) = x", worst <= 1e-12, f"max gap {worst:.2e}")
    c.finish()


def _random_instance(rng):
    """Random two-group problem with comfortable degrees of freedom."""
    p = int(rng.integers(1, 5))
    n0 = int(rng.integers(p + 2, p + 9))
    n1 = int(rng.integers(p + 2, p + 9))
    shift = rng.normal(0.0, 2.0, p)
    X0 = rng.normal(0.0, 1.0, (n0, p))
    X1 = rng.normal(0.0, 1.0, (n1, p)) + shift
    names = VARIABLES[:p]
    return X0, X1, names


def _score_matrix(model, X):
    b = np.array([model.coefficients[v] for v in model.variables])
    return X @ b + model.constant


def test_fitted_model_invariants_under_sampling():
    """Structural identities of the fit, checked on seeded random problems."""
    c = Checklist()
    rng = np.random.default_rng(20120419)

    worst_cut = worst_var = worst_ss = 0.0
    for _ in range(40):
        X0, X1, names = _random_instance(rng)
        model = fit_from_matrices(X0, X1, names)
        s0 = _score_matrix(model, X0)
        s1 = _score_matrix(model, X1)
        both = np.concatenate([s0, s1])

        cutoff = cutoff_from_centroids(model.y0, model.n0, model.y1, model.n1)
        worst_cut = max(worst_cut, abs(cutoff - both.mean()))

        n0, n1 = len(s0), len(s1)
        pooled = ((n0 - 1) * s0.var(ddof=1) + (n1 - 1) * s1.var(ddof=1)) / (n0 + n1 - 2)
        worst_var = max(worst_var, abs(pooled - 1.0))

        ss_total = float(np.sum((both - both.mean()) ** 2))
        ss_within = float(np.sum((s0 - s0.mean()) ** 2) + np.sum((s1 - s1.mean()) ** 2))
        ss_between = n0 * (s0.mean() - both.mean()) ** 2 + n1 * (s1.mean() - both.mean()) ** 2
        worst_ss = max(worst_ss, abs(ss_total - ss_within - ss_between) / ss_total)

    c.check("cut-off equals grand score mean", worst_cut <= 1e-12, f"max gap {worst_cut:.2e}")
    c.check("pooled within-group score variance is 1", worst_var <= 1e-9, f"max gap {worst_var:.2e}")
    c.check("total = within + between score scatter", worst_ss <= 1e-9, f"max gap {worst_ss:.2e}")

    worst_affine = 0.0
    for _ in range(40):
        X0, X1, names = _random_instance(rng)
        scale = rng.uniform(0.2, 5.0, X0.shape[1])
        shift = rng.normal(0.0, 3.0, X0.shape[1])
        base = fit_from_matrices(X0, X1, names)
        moved = fit_from_matrices(X0 * scale + shift, X1 * scale + shift, names)
        gap = np.max(
            np.abs(_score_matrix(base, X0) - _score_matrix(moved, X0 * scale + shift))
        )
        worst_affine = max(worst_affine, float(gap))
    c.check(
        "scores invariant under per-variable affine rescaling",
        worst_affine <= 1e-9,
        f"max gap {worst_affine:.2e}",
    )

    X0, X1, names = _random_instance(rng)
    model = fit_from_matrices(X0, X1, names, priors="equal")
    midpoint = 0.5 * (model.y0 + model.y1)
    points = [rng.normal(0.0, 3.0, len(names)) for _ in range(1000)]
    by_midpoint = [
        GroupLabel.BANKRUPT
        if float(z @ np.array([model.coefficients[v] for v in names]) + model.constant)
        < midpoint
        else GroupLabel.NONBANKRUPT
        for z in points
    ]
    agree = confusion_matrix(model, labelled(points, by_midpoint)).correct_fraction() == 1.0
    c.check("equal-prior fisher rule equals midpoint rule on 1000 points", agree)

    worst_solve = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        M = rng.normal(0.0, 1.0, (k, k))
        A = M @ M.T + 0.5 * k * np.eye(k)
        d = rng.normal(0.0, 1.0, k)
        x = solve_spd(A, d)
        y = eliminate(A, d)
        worst_solve = max(
            worst_solve, float(np.max(np.abs(x - y) / (1.0 + np.abs(y))))
        )
    c.check(
        "cholesky solver matches gaussian elimination on 100 spd systems",
        worst_solve <= 1e-9,
        f"max relative gap {worst_solve:.2e}",
    )
    c.finish()


SMALL_INSTANCES = (
    ([[0.0, 0.0], [1.0, 1.0]], [[3.0, 1.0], [4.0, 0.0]]),
    ([[0.0, 0.0], [1.0, 0.5]], [[2.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),
    ([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]], [[4.0, 5.0], [5.0, 4.0], [4.5, 4.2]]),
    ([[0.0, 1.0], [1.0, 0.0]], [[2.0, 2.0], [3.0, 1.0], [2.0, 3.0], [3.0, 3.0]]),
)


def test_small_instances_match_brute_force():
    """Two-variable problems solved independently by direct elimination."""
    c = Checklist()
    rng = np.random.default_rng(5)
    names = VARIABLES[:2]
    for idx, (X0, X1) in enumerate(SMALL_INSTANCES):
        X0, X1 = np.asarray(X0), np.asarray(X1)
        model = fit_from_matrices(X0, X1, names)
        direction, s_w, mu0, mu1 = discriminant_direction_reference(X0, X1)
        b = np.array([model.coefficients[v] for v in names])
        cosine = float(
            b @ direction / (np.linalg.norm(b) * np.linalg.norm(direction))
        )
        c.check(
            f"instance {idx} ({len(X0)}+{len(X1)} samples): direction matches brute force",
            cosine >= 1.0 - 1e-9,
            f"cosine 1 - {1.0 - cosine:.2e}",
        )

        n0, n1 = len(X0), len(X1)
        w0, w1 = eliminate(s_w, mu0), eliminate(s_w, mu1)
        c0 = -0.5 * mu0 @ w0 + math.log(n0 / (n0 + n1))
        c1 = -0.5 * mu1 @ w1 + math.log(n1 / (n0 + n1))
        low = np.minimum(X0.min(axis=0), X1.min(axis=0)) - 1.0
        high = np.maximum(X0.max(axis=0), X1.max(axis=0)) + 1.0
        points = [rng.uniform(low, high) for _ in range(20)]
        want = [GroupLabel.BANKRUPT if z @ w0 + c0 > z @ w1 + c1 else GroupLabel.NONBANKRUPT for z in points]
        agree = confusion_matrix(model, labelled(points, want)).correct_fraction() == 1.0
        c.check(
            f"instance {idx}: classifications agree with brute-force rule",
            agree,
        )
    c.finish()
