"""Independent reference implementations used as test oracles.

Nothing here shares code with the package: the incomplete-gamma oracle is a
plain power series and the incomplete-beta oracle is numerical quadrature,
both evaluated at 50-digit precision with mpmath, the linear-system oracle
is Gaussian elimination with partial pivoting, the fit oracle is the
discriminant fit written in numpy arrays on top of it, and the window-mean and
normalizer oracles are numpy's own reductions, which the package's pure-Python
sums must match to the bit. The score-table oracles are the eigenvalue and
Box's M written with numpy's pairwise-summed mean and variance. Agreement
between the package and these routines is evidence, not circularity.

The panel-reader, fit-kernel and linear-form oracles at the end are the
package's earlier row-at-a-time code, kept as it was: one csv row, one
Python step, one record; one observation, one score. They pin the block-at-a-time and column passes that replaced it to
the same records, labels, errors, calls and bits. They build the package's own record and
error types and use its number and year rules, which they do not test.
"""
import csv
import io
import math
from fractions import Fraction
from math import fsum

import mpmath as mp
import numpy as np

mp.mp.dps = 50

_SERIES_STOP = mp.mpf("1e-45")


def gamma_p_reference(a, x):
    """Regularized lower incomplete gamma via its power series.

    P(a, x) = x^a e^{-x} / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n)),
    summed in 50-digit arithmetic until terms stop mattering. All terms are
    positive, so there is no cancellation to worry about.
    """
    a = mp.mpf(a)
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    term = 1 / a
    total = term
    n = 1
    while True:
        term *= x / (a + n)
        total += term
        if term < total * _SERIES_STOP:
            break
        n += 1
        if n > 200000:
            raise RuntimeError("series did not converge")
    return total * mp.e ** (-x) * x**a / mp.gamma(a)


def gamma_q_reference(a, x):
    return 1 - gamma_p_reference(a, x)


def _beta_series(x, a, b):
    # B_x(a, b) = x^a sum_n (1-b)_n x^n / (n! (a+n)); positive-ratio terms,
    # fast for x <= 1/2.
    term = mp.mpf(1)
    total = 1 / a
    n = 1
    while True:
        term *= (n - b) * x / n
        piece = term / (a + n)
        total += piece
        if abs(piece) < abs(total) * _SERIES_STOP:
            break
        n += 1
        if n > 200000:
            raise RuntimeError("series did not converge")
    return x**a * total


def beta_i_reference(x, a, b):
    """Regularized incomplete beta via its hypergeometric power series.

    Direct quadrature of the density keeps only absolute accuracy and is
    useless deep in a tail, so the tail is summed termwise instead,
    reflecting I_x(a, b) = 1 - I_{1-x}(b, a) to stay on the fast side.
    """
    x = mp.mpf(x)
    a = mp.mpf(a)
    b = mp.mpf(b)
    if x == 0:
        return mp.mpf(0)
    if x == 1:
        return mp.mpf(1)
    if x <= 0.5:
        return _beta_series(x, a, b) / mp.beta(a, b)
    return 1 - _beta_series(1 - x, b, a) / mp.beta(a, b)


def chi_square_sf_reference(x, df):
    return gamma_q_reference(mp.mpf(df) / 2, mp.mpf(x) / 2)


def f_sf_reference(x, d1, d2):
    x = mp.mpf(x)
    d1 = mp.mpf(d1)
    d2 = mp.mpf(d2)
    if x == 0:
        return mp.mpf(1)
    return beta_i_reference(d2 / (d2 + d1 * x), d2 / 2, d1 / 2)


def eliminate(A, d):
    """Solve A v = d by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    d = np.array(d, dtype=float)
    n = len(d)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            d[[col, pivot]] = d[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            d[row] -= factor * d[col]
    v = np.zeros(n)
    for row in range(n - 1, -1, -1):
        v[row] = (d[row] - A[row, row + 1 :] @ v[row + 1 :]) / A[row, row]
    return v


def window_mean_reference(rows):
    """Mean of each column of the window's rows."""
    return np.mean(rows, axis=0)


def normalizer_reference(rows):
    """Pooled means and n-1 standard deviations of the stacked sample rows."""
    matrix = np.array(rows, dtype=float)
    return matrix.mean(axis=0), matrix.std(axis=0, ddof=1)


def discriminant_direction_reference(X0, X1):
    """Brute-force pooled-covariance direction S_w^{-1}(mu1 - mu0)."""
    X0 = np.asarray(X0, dtype=float)
    X1 = np.asarray(X1, dtype=float)
    mu0 = X0.mean(axis=0)
    mu1 = X1.mean(axis=0)
    W = (X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)
    s_w = W / (len(X0) + len(X1) - 2)
    return eliminate(s_w, mu1 - mu0), s_w, mu0, mu1


def fit_reference(X0, X1, priors="proportional"):
    """The canonical discriminant fit in numpy, as a dict keyed by DiscriminantModel's
    fields: the elimination direction scaled to unit pooled score variance, the
    constant at minus the grand-mean score, and Fisher functions w_g = S_w^{-1} mu_g
    with constants -mu_g'w_g / 2 + log(prior_g). The two Fisher functions are
    listed under "fisher" as (weights, constant) pairs, bankrupt first."""
    X0 = np.asarray(X0, dtype=float)
    X1 = np.asarray(X1, dtype=float)
    b_raw, s_w, mu0, mu1 = discriminant_direction_reference(X0, X1)
    b = b_raw / np.sqrt((mu1 - mu0) @ b_raw)
    a = -b @ np.vstack([X0, X1]).mean(axis=0)
    scores0, scores1 = X0 @ b + a, X1 @ b + a
    eigenvalue = score_eigenvalue_reference({"bankrupt": scores0, "nonbankrupt": scores1})
    sd = np.sqrt(np.diag(s_w))
    n0, n1 = len(X0), len(X1)
    pi = (n0 / (n0 + n1), n1 / (n0 + n1)) if priors == "proportional" else (0.5, 0.5)
    fisher = []
    for mu, prior in zip((mu0, mu1), pi):
        w = eliminate(s_w, mu)
        fisher.append((w, -0.5 * (mu @ w) + np.log(prior)))
    return {
        "coefficients": b,
        "constant": a,
        "standardized": b * sd,
        "y0": scores0.mean(),
        "y1": scores1.mean(),
        "s0": scores0.std(ddof=1),
        "s1": scores1.std(ddof=1),
        "eigenvalue": eigenvalue,
        "canonical_correlation": np.sqrt(eigenvalue / (1 + eigenvalue)),
        "wilks_lambda": 1 / (1 + eigenvalue),
        "pooled_correlation": s_w / np.outer(sd, sd),
        "fisher": fisher,
    }


def score_eigenvalue_reference(scores_by_group):
    """Between- over within-group sum of squares of the scores of each group."""
    groups = [np.asarray(values, dtype=float) for values in scores_by_group.values()]
    grand = np.concatenate(groups).mean()
    ss_between = sum(len(v) * (v.mean() - grand) ** 2 for v in groups)
    ss_within = sum(float(((v - v.mean()) ** 2).sum()) for v in groups)
    return float(ss_between / ss_within)


def score_box_m_reference(scores_by_group):
    """Box's M of two groups of scores with positive variances:
    (N - 2) log(pooled variance) - sum over groups of (n - 1) log(variance)."""
    (v0, n0), (v1, n1) = (
        (np.var(values, ddof=1), len(values)) for values in scores_by_group.values()
    )
    pooled = ((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2)
    return float((n0 + n1 - 2) * np.log(pooled) - ((n0 - 1) * np.log(v0) + (n1 - 1) * np.log(v1)))


def year_rows_reference(scored, zones, warning):
    """Evaluation rows of (bank, year, score) triples under one zone rule, as dicts
    keyed by YearRow's fields, each bank as a (bank, score, zone) tuple.

    Years ascend and banks within a year are in name order. A bank is expected
    to look distressed only in its warning year: type I counts expected banks
    zoned healthy, type II the other banks zoned bankrupt, and the hits are the
    total less the type II errors and the grey calls.
    """
    def zone(s):
        """With a grey interval: below it bankrupt, inside it (bounds included)
        grey, above it healthy. Without one, a score at the cut-off is healthy."""
        if zones.grey is None:
            return "nonbankrupt" if s >= zones.cutoff else "bankrupt"
        lo, hi = zones.grey
        return "bankrupt" if s < lo else "grey" if s <= hi else "nonbankrupt"

    rows = []
    for year in sorted({year for _, year, _ in scored}):
        banks = [(bank, s, zone(s)) for bank, y, s in sorted(scored) if y == year]
        called = [z for _, _, z in banks]
        expected = [z for bank, _, z in banks if warning.get(bank) == year]
        others = [z for bank, _, z in banks if warning.get(bank) != year]
        type1 = expected.count("nonbankrupt")
        type2 = others.count("bankrupt")
        hits = len(banks) - type2 - called.count("grey")
        rows.append({
            "year": year,
            "bankrupt_count": called.count("bankrupt"),
            "grey_count": called.count("grey"),
            "nonbankrupt_count": called.count("nonbankrupt"),
            "hits": hits,
            "total": len(banks),
            "type1_count": type1,
            "type2_count": type2,
            "type1_rate": type1 / len(expected) if expected else 0.0,
            "type2_rate": type2 / len(others) if others else 0.0,
            "accuracy": hits / len(banks),
            "banks": banks,
        })
    return rows


# ---- the row-at-a-time panel reader ----------------------------------------


def _split_rows(reader):
    from distress_lda.dataset import _REQUIRED_COLUMNS
    from distress_lda.errors import SchemaError

    rows = ((lineno, row) for lineno, row in enumerate(reader, start=1) if "".join(row).strip())
    first = next(rows, None)
    if first is None:
        raise SchemaError("panel is empty: header row required")
    header = [cell.strip().lower() for cell in first[1]]
    for column in _REQUIRED_COLUMNS:
        if column not in header:
            raise SchemaError(f"panel is missing required column {column!r}")
    for column in _REQUIRED_COLUMNS + ("label",):
        if header.count(column) > 1:
            raise SchemaError(f"panel names column {column!r} more than once")
    return header, rows


def _read_panel(text, read):
    from distress_lda.errors import PanelError, ParseError

    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        try:
            return read(*_split_rows(reader))
        except PanelError:
            for _ in reader:
                pass
            raise
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _padded(row, width):
    return row if len(row) >= width else row + [""] * (width - len(row))


def _ratio_error(lineno, cells):
    from distress_lda.dataset import VARIABLES, parse_number
    from distress_lda.errors import ParseError

    for name, cell in zip(VARIABLES, cells):
        try:
            parse_number(cell)
        except ValueError as exc:
            return ParseError(f"row {lineno}: column {name!r}: {exc}")
    raise AssertionError(f"row {lineno}: every ratio cell is a finite number")


def _records(header, rows, seen):
    from distress_lda.dataset import VARIABLES, BankYearRecord, RatioVector, parse_year
    from distress_lda.errors import DuplicateRecordError, ParseError

    bank_at, year_at = header.index("bank"), header.index("year")
    ratio_at = [header.index(name) for name in VARIABLES]
    width = max(bank_at, year_at, *ratio_at) + 1
    blank = RatioVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    years = {}
    records = []
    for lineno, row in rows:
        row = _padded(row, width)
        bank = row[bank_at].strip()
        if not bank:
            raise ParseError(f"row {lineno}: column 'bank' is empty")
        cell = row[year_at]
        if cell not in years:
            try:
                year = parse_year(cell)
            except ValueError as exc:
                raise ParseError(f"row {lineno}: column 'year': {exc}") from None
            years[cell] = year, seen.setdefault(year, set())
        year, banks = years[cell]
        if bank in banks:
            raise DuplicateRecordError(f"row {lineno}: duplicate record for bank {bank!r}, year {year}")
        banks.add(bank)
        cells = [row[idx].strip() for idx in ratio_at]
        joined = "".join(cells)
        if not joined:
            records.append(BankYearRecord(bank, year, blank, False))
            continue
        if not (joined.isascii() and "_" not in joined):
            raise _ratio_error(lineno, cells)
        try:
            values = list(map(float, cells))
            ratios = RatioVector(*values)
        except ValueError:
            raise _ratio_error(lineno, cells) from None
        records.append(BankYearRecord(bank, year, ratios, any(values)))
    return records


def _labels(header, rows, labels):
    from distress_lda.dataset import GroupLabel
    from distress_lda.errors import ParseError, SchemaError

    if "label" not in header:
        raise SchemaError("panel has no 'label' column")
    bank_at, label_at = header.index("bank"), header.index("label")
    width = max(bank_at, label_at) + 1
    known = {}
    for lineno, row in rows:
        row = _padded(row, width)
        cell = row[label_at]
        if cell not in known:
            text = cell.strip()
            try:
                known[cell] = GroupLabel.from_string(text) if text else None
            except ValueError:
                raise ParseError(f"row {lineno}: column 'label': unknown label {text!r}") from None
        label = known[cell]
        if label is None:
            continue
        bank = row[bank_at].strip()
        if labels.setdefault(bank, label) is not label:
            raise ParseError(f"row {lineno}: bank {bank!r} has conflicting labels")
    return labels


def parse_panel_reference(text):
    return _read_panel(text, lambda header, rows: _records(header, rows, {}))


def panel_labels_reference(text):
    return _read_panel(text, lambda header, rows: _labels(header, rows, {}))


def load_panels_reference(paths, what):
    """load_panels(paths, what, {}): the records and labels of every file, checked as one
    panel; a file with a header but no data rows is refused."""
    from distress_lda.dataset import read_text
    from distress_lda.errors import PanelError, SchemaError

    records, labels, seen = [], {}, {}
    for path in paths:
        text = read_text(path, what, PanelError)
        try:
            header, rows = _read_panel(text, lambda header, rows: (header, list(rows)))
            found = _records(header, rows, seen)
            if not found:
                raise SchemaError("panel has a header but no data rows")
            records += found
            _labels(header, rows, labels)
        except PanelError as exc:
            raise type(exc)(f"{what} file {path}: {exc}") from None
    return records, labels


# ---- the per-row fit kernels ------------------------------------------------

_EXACT_LOW, _EXACT_HIGH = 2.0**-480, 2.0**480
_SPLITTER = 134217729.0


def split_reference(x):
    """x with Veltkamp's halves of it, None outside the range where Dekker's product is exact."""
    if _EXACT_LOW <= abs(x) <= _EXACT_HIGH:
        t = _SPLITTER * x
        hi = t - (t - x)
        return x, hi, x - hi
    return x, None, None


def _fraction_fma(a, b, c):
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _fma_chain(xs, ys, total=0.0):
    for (u, uh, ul), (v, vh, vl) in zip(xs, ys):
        if uh is None or vh is None:
            total = _fraction_fma(u, v, total)
        else:
            p = u * v
            total = fsum((p, ((uh * vh - p) + uh * vl + ul * vh) + ul * vl, total))
    return total


def row_dot_reference(row, b):
    """row . b over split weights b, one row at a time: four lanes of fused
    multiply-add chains from 0.0, added as (l0 + l2) + (l1 + l3), then the tail."""
    row = list(map(split_reference, row))
    body = len(b) - len(b) % 4
    lanes = [_fma_chain(row[k:body:4], b[k:body:4]) for k in range(4)]
    total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    tail, weights = row[body:], b[body:]
    if len(tail) == 1:
        return _fma_chain(tail, weights, total)
    if tail:
        return total + _fma_chain(tail[:1] + tail[2:], weights[:1] + weights[2:], tail[1][0] * weights[1][0])
    return total


def column_sums_reference(rows):
    """Column totals, each added one value at a time from 0.0."""
    totals = []
    for column in zip(*rows):
        total = 0.0
        for value in column:
            total += value
        totals.append(total)
    return totals


# ---- the per-observation linear forms ---------------------------------------


def z_score_reference(stats, ratios):
    """The z-score (x - mean) / sd of each ratio, keyed by variable."""
    from distress_lda.dataset import VARIABLES

    return {name: (x - stats.mean[name]) / stats.sd[name] for name, x in zip(VARIABLES, ratios)}


def linear_form_reference(constant, weights, z):
    """constant + weight * z[name] of one observation z, a mapping by variable,
    one term at a time in the weights' order."""
    total = constant
    for name, w in weights.items():
        total += w * z[name]
    return total


def fisher_call_reference(model, z):
    """The group whose Fisher function is larger at z; an exact tie goes to nonbankrupt."""
    from distress_lda.dataset import GroupLabel

    fisher = model.fisher
    bankrupt, healthy = (
        linear_form_reference(fisher.constants[k], fisher.weights[k], z) for k in ("bankrupt", "nonbankrupt")
    )
    return GroupLabel.BANKRUPT if bankrupt > healthy else GroupLabel.NONBANKRUPT
