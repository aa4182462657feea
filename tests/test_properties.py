"""Properties of the panel format, the zone partition and the fit.

- Writing a panel and parsing it back gives the same records and labels.
- A panel split across files reads as the panel, and breaks its rules the same way.
- Zones are ordered along the score axis: bankrupt below grey below healthy.
- The fitted coefficients do not depend on the order of rows within a group.
- The fit agrees with the numpy oracle to 1e-12 relative, over 1-9 variables.
- The fit has no unit: a column scaled by a power of two scales its
  coefficient and Fisher weights by the inverse power and leaves every other bit.
- The fit refuses, or makes a model that its file loads back field for field,
  also where one ratio all but separates the groups.
- Window means and normalizer statistics carry numpy's bits exactly.
- The eigenvalue and Box's M of a score table agree with numpy's to 1e-12.
- Panel scoring carries the bits of the per-observation linear form on the
  (z-scored) ratio vector, and score_panel zones each bank-year as
  evaluate_panel does.
- confusion_matrix makes the per-observation Fisher call of every sample,
  an exact tie going to nonbankrupt.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    fisher_call_reference,
    fit_reference,
    linear_form_reference,
    normalizer_reference,
    score_box_m_reference,
    score_eigenvalue_reference,
    window_mean_reference,
    z_score_reference,
)
from panel_csv import serialize_panel
from records import astuple, replace

from distress_lda import (
    VARIABLES,
    BankYearRecord,
    BindingError,
    ClassificationZones,
    DegenerateSeparationError,
    DuplicateRecordError,
    EmptyWindowError,
    FisherFunctions,
    GroupLabel,
    LabeledSample,
    ParseError,
    RatioVector,
    SchemaError,
    SingularMatrixError,
    TrainingSet,
    ZeroVarianceError,
    average_ratios,
    box_m_test,
    build_training_set,
    confusion_matrix,
    eigenvalue_from_scores,
    evaluate_panel,
    fit_from_matrices,
    fit_normalizer,
    panel_labels,
    load_model,
    parse_panel,
    score_panel,
)
from distress_lda.classification import _zones_of
from distress_lda.dataset import load_panels
from distress_lda.fixtures import data_path
from distress_lda.lda_fit import GROUP_KEYS, PRIORS
from distress_lda.model_io import model_from_dict, model_to_dict
from distress_lda.normalization import NormalizationStats

# No deadline: per-example times vary with machine load more than the default allows.
SETTINGS = settings(deadline=None, max_examples=50)

finite = st.floats(allow_nan=False, allow_infinity=False)
bank_names = st.text(min_size=1, max_size=12).filter(lambda name: name == name.strip())
ratio_values = st.lists(st.one_of(st.just(0.0), finite), min_size=6, max_size=6)


@st.composite
def labelled_panels(draw):
    """(records the parser can produce, labels for some of their banks)."""
    banks = draw(st.lists(bank_names, min_size=1, max_size=5, unique=True))
    records = []
    for bank in banks:
        for year in draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=4, unique=True)):
            values = draw(ratio_values)
            available = any(v != 0.0 for v in values)
            records.append(BankYearRecord(bank, year, RatioVector(*values), available))
    records = draw(st.permutations(records))
    labelled = draw(st.lists(st.sampled_from(banks), unique=True))
    labels = {bank: draw(st.sampled_from(GroupLabel)) for bank in labelled}
    return records, labels


@SETTINGS
@given(labelled_panels())
def test_serialized_panel_parses_back(case):
    records, labels = case
    text = serialize_panel(records, labels)
    assert parse_panel(text) == records
    assert panel_labels(text) == labels


def load_texts(texts: list[str]):
    """load_panels over one file per text, in a fresh directory (a function-scoped
    tmp_path fixture would be shared by every example), with the files' labels."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"panel{i}.csv") for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        return load_panels(paths, "panel", {})


def split_panel(data, records, labels) -> list[str]:
    """The panel's rows split into 1-3 files, in order, each with the header and at least one row."""
    cuts = sorted(data.draw(st.sets(st.integers(1, len(records)), max_size=2)) - {len(records)})
    bounds = [0, *cuts, len(records)]
    return [serialize_panel(records[a:b], labels) for a, b in zip(bounds, bounds[1:])]


def data_rows(text: str) -> str:
    """A serialized panel without its header line."""
    return text.split("\r\n", 1)[1]


@SETTINGS
@given(labelled_panels(), st.data())
def test_split_panel_reads_as_one(case, data):
    records, labels = case
    texts = split_panel(data, records, labels)
    loaded, loaded_labels = load_texts(texts)
    text = serialize_panel(records, labels)
    assert loaded == parse_panel(text) == records
    assert loaded_labels == panel_labels(text) == labels
    # A file of the header alone is refused wherever it sits, though parse_panel reads it as [].
    at = data.draw(st.integers(0, len(texts)))
    texts.insert(at, serialize_panel([], labels))
    assert parse_panel(texts[at]) == []
    with pytest.raises(SchemaError, match=rf"^panel file \S*panel{at}\.csv: panel has a header but no data rows$"):
        load_texts(texts)


@SETTINGS
@given(labelled_panels(), st.data())
def test_split_panel_breaks_rules_as_one(case, data):
    """A repeated bank-year, or a bank labelled the other way in a new year, raises
    the same error type in another file as within one, and the error names that file."""
    records, labels = case
    assume(labels)
    bank = data.draw(st.sampled_from(sorted(labels)))
    year = max(r.year for r in records if r.bank_id == bank) + 1
    flipped = GroupLabel(1 - labels[bank])
    repeated = serialize_panel([data.draw(st.sampled_from(records))], labels)
    new_year = BankYearRecord(bank, year, RatioVector(*[1.0] * 6), True)
    relabelled = serialize_panel([new_year], {bank: flipped})
    whole = serialize_panel(records, labels)
    for extra, error, read in (
        (repeated, DuplicateRecordError, parse_panel),
        (relabelled, ParseError, panel_labels),
    ):
        with pytest.raises(error):
            read(whole + data_rows(extra))
        texts = [*split_panel(data, records, labels), extra]
        with pytest.raises(error, match=rf"^panel file \S*panel{len(texts) - 1}\.csv: row 2: "):
            load_texts(texts)


ZONE_ORDER = {"bankrupt": 0, "grey": 1, "nonbankrupt": 2}


@st.composite
def zones(draw):
    cutoff = draw(finite)
    if draw(st.booleans()):
        return ClassificationZones(cutoff=cutoff, grey=None, source="explicit-override")
    lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2)))
    return ClassificationZones(cutoff=cutoff, grey=(lo, hi), source="explicit-override")


@SETTINGS
@given(zones(), st.lists(finite, min_size=2, max_size=20))
def test_zones_are_monotone_in_the_score(zone_set, scores):
    ranks = [ZONE_ORDER[zone] for zone in _zones_of(sorted(scores), zone_set)]
    assert ranks == sorted(ranks)
    if zone_set.grey is None:
        assert "grey" not in _zones_of(scores, zone_set)


@st.composite
def group_matrices(draw):
    """Two well-conditioned groups of rows over 1-3 variables."""
    p = draw(st.integers(1, 3))
    n0 = draw(st.integers(2, 6))
    n1 = draw(st.integers(max(2, p + 2 - n0), 8))
    cells = st.integers(-1000, 1000).map(lambda k: k / 100)
    X0 = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n0, max_size=n0)))
    X1 = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n1, max_size=n1)))
    mu0, mu1 = X0.mean(axis=0), X1.mean(axis=0)
    s_w = ((X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)) / (n0 + n1 - 2)
    assume(np.linalg.cond(s_w) < 1e6)
    assume(np.max(np.abs(mu1 - mu0)) > 1e-3)
    return X0, X1, draw(st.permutations(range(n0))), draw(st.permutations(range(n1)))


@SETTINGS
@given(group_matrices())
def test_fit_ignores_row_order_within_groups(case):
    X0, X1, order0, order1 = case
    names = VARIABLES[: X0.shape[1]]
    b = np.array(list(fit_from_matrices(X0, X1, names).coefficients.values()))
    shuffled = fit_from_matrices(X0[list(order0)], X1[list(order1)], names)
    b_shuffled = np.array(list(shuffled.coefficients.values()))
    assert np.max(np.abs(b_shuffled - b)) <= 1e-9 * np.max(np.abs(b))


@st.composite
def fit_cases(draw):
    """Two groups of seeded normal rows over 1-9 variables, the second shifted,
    and a prior rule. p = 1-9 gives the four score lanes every tail (0-3 columns)
    and, from p = 8, two columns each. The pooled covariance is conditioned so
    that two correct fits agree to 1e-12."""
    p = draw(st.integers(1, 9))
    n0 = draw(st.integers(2, 12))
    n1 = draw(st.integers(max(2, 2 * p + 4 - n0), 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(scale=draw(st.sampled_from([0.5, 2.0, 10.0])), size=p)
    X0, X1 = rng.normal(size=(n0, p)), rng.normal(size=(n1, p)) + shift
    mu0, mu1 = X0.mean(axis=0), X1.mean(axis=0)
    assume(np.linalg.cond((X0 - mu0).T @ (X0 - mu0) + (X1 - mu1).T @ (X1 - mu1)) < 1e3)
    return X0, X1, draw(st.sampled_from(PRIORS))


def assert_close(actual, expected, scale):
    """Each value within 1e-12 of its reference, relative to the larger of the
    reference and a scale its rounding error grows with."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert np.all(np.abs(actual - expected) <= 1e-12 * np.maximum(np.abs(expected), scale)), (actual, expected)


@settings(SETTINGS, max_examples=100)
@given(fit_cases())
def test_fit_agrees_with_numpy_oracle(case):
    X0, X1, priors = case
    names = [f"x{i}" for i in range(X0.shape[1])]
    model = fit_from_matrices(X0, X1, names, priors=priors)
    ref = fit_reference(X0, X1, priors)
    b, standardized = ref["coefficients"], ref["standardized"]
    assert_close([model.coefficients[n] for n in names], b, np.max(np.abs(b)))
    assert_close([model.standardized[n] for n in names], standardized, np.max(np.abs(standardized)))
    # A score sums terms b_i x_i as large as this before they cancel.
    score_scale = np.max(np.abs(np.vstack([X0, X1])) @ np.abs(b))
    for field in ("constant", "y0", "y1", "s0", "s1"):
        assert_close(getattr(model, field), ref[field], score_scale)
    for field in ("eigenvalue", "canonical_correlation", "wilks_lambda"):
        assert_close(getattr(model, field), ref[field], 0.0)
    assert_close(model.pooled_correlation, ref["pooled_correlation"], 1.0)
    for key, mu, (w, constant) in zip(GROUP_KEYS, (X0.mean(axis=0), X1.mean(axis=0)), ref["fisher"]):
        assert_close([model.fisher.weights[key][n] for n in names], w, np.max(np.abs(w)))
        prior = model.fisher.priors[key]
        assert_close(model.fisher.constants[key], constant, np.abs(mu) @ np.abs(w) / 2 + abs(np.log(prior)))


def assert_unit_free(X0, X1, names, priors, ks) -> None:
    """Each column times 2**k gives the model of the unscaled fit bit for bit, save
    the column's coefficient and Fisher weights, each exactly 2**-k times its own,
    and scores each scaled row as that fit scores the row: no rule has a unit."""
    scales = [2.0**k for k in ks]
    scaled = [[[x * s for x, s in zip(row, scales)] for row in X] for X in (X0, X1)]
    base = fit_from_matrices(X0, X1, names, priors=priors)
    model = fit_from_matrices(*scaled, names, priors=priors)
    fields = ("constant", "y0", "y1", "s0", "s1", "eigenvalue", "canonical_correlation", "wilks_lambda")
    assert bits(getattr(model, f) for f in fields) == bits(getattr(base, f) for f in fields)
    assert bits(model.standardized.values()) == bits(base.standardized.values())
    assert [bits(row) for row in model.pooled_correlation] == [bits(row) for row in base.pooled_correlation]
    assert bits(model.fisher.constants.values()) == bits(base.fisher.constants.values())
    for name, s in zip(names, scales):
        assert (model.coefficients[name] * s).hex() == base.coefficients[name].hex()
        for key in GROUP_KEYS:
            assert (model.fisher.weights[key][name] * s).hex() == base.fisher.weights[key][name].hex()

    def scores(fit, rows) -> list[str]:
        return bits(linear_form_reference(fit.constant, fit.coefficients, dict(zip(names, row))) for row in rows)

    assert scores(model, scaled[0] + scaled[1]) == scores(base, X0 + X1)


powers = st.integers(-60, 60)


@SETTINGS
@given(ks=st.lists(powers, min_size=6, max_size=6), priors=st.sampled_from(PRIORS))
# Every column times 2**-40 puts the largest group-mean gap at 9.9e-13: an
# absolute bound of 1e-12 on it refused the case study in these units.
@example(ks=[-40] * 6, priors=PRIORS[0])
def test_the_case_study_fit_is_unit_free(normalized_set, ks, priors):
    X0, X1 = ([list(s.ratios) for s in normalized_set.samples if s.label is label] for label in GroupLabel)
    assert_unit_free(X0, X1, VARIABLES, priors, ks)


@SETTINGS
@given(fit_cases(), st.data())
def test_a_drawn_fit_is_unit_free(case, data):
    X0, X1, priors = case
    p = X0.shape[1]
    ks = data.draw(st.lists(powers, min_size=p, max_size=p))
    assert_unit_free(X0.tolist(), X1.tolist(), [f"x{i}" for i in range(p)], priors, ks)


UNIT_STATS = NormalizationStats(mean=dict.fromkeys(VARIABLES, 0.0), sd=dict.fromkeys(VARIABLES, 1.0))


@st.composite
def separable_groups(draw):
    """Two groups of seeded normal rows over the six ratios, the second shifted,
    and a prior rule. In half the draws one ratio sits at a centre in each group
    with a spread of 1e-10 of the gap between the centres, so that it all but
    separates the groups and the eigenvalue passes 1/epsilon."""
    n0 = draw(st.integers(2, 8))
    n1 = draw(st.integers(max(2, 8 - n0), 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X0, X1 = rng.normal(size=(n0, 6)), rng.normal(size=(n1, 6)) + rng.normal(scale=2.0, size=6)
    if draw(st.booleans()):
        column, centre, gap = draw(st.integers(0, 5)), draw(st.floats(-1, 1)), draw(st.floats(0.01, 10))
        X0[:, column] = centre + rng.uniform(-1, 1, n0) * 1e-10 * gap
        X1[:, column] = centre + gap + rng.uniform(-1, 1, n1) * 1e-10 * gap
    return X0, X1, draw(st.sampled_from(PRIORS))


@SETTINGS
@given(separable_groups())
def test_a_fitted_model_survives_its_file(case):
    """A fit refuses (exit 4), or its model comes back from model_from_dict with
    every field equal: the loader refuses no model the fit makes."""
    X0, X1, priors = case
    try:
        model = fit_from_matrices(X0, X1, VARIABLES, priors=priors)
    except (DegenerateSeparationError, SingularMatrixError):
        return
    loaded, stats = model_from_dict(model_to_dict(model, UNIT_STATS))
    assert (astuple(loaded), stats) == (astuple(model), UNIT_STATS)


# Bounded so that no sum or square overflows. Signed zeros are drawn often, as
# a column of -0.0 alone tells a sum started at 0.0 from one started at row 0.
ratio_cells = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
ratio_rows = st.lists(ratio_cells, min_size=6, max_size=6)


def bits(values) -> list[str]:
    """Exact bit patterns, so -0.0 and 0.0 differ and no tolerance applies."""
    return [float(v).hex() for v in values]


@st.composite
def bank_windows(draw):
    """One bank's records over 1-40 years, some of them unavailable, and a
    window that covers all of them half of the time."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.one_of(st.just([0.0] * 6), ratio_rows), min_size=n, max_size=n))
    records = [
        BankYearRecord("Alpha", 2000 + k, RatioVector(*row), any(v != 0.0 for v in row))
        for k, row in enumerate(rows)
    ]
    if draw(st.booleans()):
        return records, (2000, 2000 + n - 1)
    first, last = sorted(draw(st.lists(st.integers(1999, 2000 + n), min_size=2, max_size=2)))
    return records, (first, last)


@SETTINGS
@given(bank_windows())
def test_window_mean_carries_numpys_bits(case):
    records, (first, last) = case
    rows = [tuple(r.ratios) for r in records if r.available and first <= r.year <= last]
    if not rows:
        with pytest.raises(EmptyWindowError):
            average_ratios(records, "Alpha", (first, last))
        return
    mean = average_ratios(records, "Alpha", (first, last))
    assert bits(tuple(mean)) == bits(window_mean_reference(rows))


@SETTINGS
@given(st.lists(ratio_rows, min_size=9, max_size=60))
def test_normalizer_carries_numpys_bits(rows):
    labels = [GroupLabel(k % 2) for k in range(len(rows))]
    ts = build_training_set(
        [LabeledSample(f"B{k}", RatioVector(*row), label)
         for k, (row, label) in enumerate(zip(rows, labels))]
    )
    means, sds = normalizer_reference(rows)
    if not sds.all():
        with pytest.raises(ZeroVarianceError):
            fit_normalizer(ts)
        return
    stats = fit_normalizer(ts)
    assert bits(stats.mean[name] for name in VARIABLES) == bits(means)
    assert bits(stats.sd[name] for name in VARIABLES) == bits(sds)


REFERENCE_MODEL, _ = load_model(data_path("reference_model.json"))
coef_values = st.floats(-1e3, 1e3)


@st.composite
def scoring_cases(draw):
    """A model with drawn coefficients over a permutation of the variables,
    sometimes with one renamed to a variable no ratio vector has, drawn
    normalization stats, and up to 8 ratio rows."""
    names = list(draw(st.permutations(VARIABLES)))
    if draw(st.booleans()):
        names[draw(st.integers(0, 5))] = "tier1"
    coefficients = dict(zip(names, draw(st.lists(coef_values, min_size=6, max_size=6))))
    model = replace(REFERENCE_MODEL, coefficients=coefficients, constant=draw(coef_values))
    means = draw(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    sds = draw(st.lists(st.floats(1e-3, 1e6), min_size=6, max_size=6))
    stats = NormalizationStats(mean=dict(zip(VARIABLES, means)), sd=dict(zip(VARIABLES, sds)))
    rows = draw(st.lists(ratio_rows, min_size=1, max_size=8))
    return model, stats, [RatioVector(*row) for row in rows]


# Discriminant scores of 2-40 banks per group, to four decimals in [-100, 100]:
# groups past 8 scores are where numpy's pairwise sums leave row order.
score_lists = st.lists(st.integers(-10**6, 10**6).map(lambda k: k / 1e4), min_size=2, max_size=40)
score_tables = st.builds(lambda b, n: {"bankrupt": b, "nonbankrupt": n}, score_lists, score_lists)


@SETTINGS
@given(score_tables)
def test_score_eigenvalue_matches_numpy(table):
    # Well conditioned: group means that differ by 1% of the largest score do
    # not cancel to rounding noise in the between-group sum of squares.
    means = [np.mean(scores) for scores in table.values()]
    assume(abs(means[0] - means[1]) >= 0.01 * max(abs(x) for scores in table.values() for x in scores))
    assume(any(np.var(scores) > 0 for scores in table.values()))
    assert eigenvalue_from_scores(table) == pytest.approx(score_eigenvalue_reference(table), rel=1e-12, abs=0)


@SETTINGS
@given(score_tables)
def test_score_box_m_matches_numpy(table):
    v0, v1 = (np.var(scores, ddof=1) for scores in table.values())
    # Well conditioned: M is second order in log(v0 / v1), so variances that
    # differ by a factor of e**0.5 keep M clear of rounding noise.
    assume(v0 > 0 and v1 > 0 and abs(np.log(v0 / v1)) >= 0.5)
    assert box_m_test(table).m == pytest.approx(score_box_m_reference(table), rel=1e-12, abs=0)


@SETTINGS
@given(scoring_cases(), st.sampled_from(["derived-from-model", "explicit-override"]), st.data())
def test_panel_scores_carry_the_bits_of_score(case, source, data):
    """Derived zones score z-scored ratios, explicit overrides raw ones. Under a
    cut-off and a grey interval drawn from the scores, so some sit on a bound,
    score_panel gives each bank-year the zone evaluate_panel gives it."""
    model, stats, vectors = case
    records = [BankYearRecord(f"B{k}", 2015, v, True) for k, v in enumerate(vectors)]
    labels = {record.bank_id: GroupLabel.NONBANKRUPT for record in records}
    zones = ClassificationZones(cutoff=0.0, grey=None, source=source)
    normalized = source == "derived-from-model"
    foreign = [name for name in model.coefficients if name not in VARIABLES]
    if foreign:
        with pytest.raises(BindingError) as from_scorer:
            score_panel(model, stats, records, zones)
        with pytest.raises(BindingError) as from_report:
            evaluate_panel(model, stats, records, labels, zones)
        assert str(from_scorer.value) == str(from_report.value) == f"observation has no variable {foreign[0]!r}"
        return
    z = [z_score_reference(stats, v) if normalized else dict(zip(VARIABLES, v)) for v in vectors]
    expected = [linear_form_reference(model.constant, model.coefficients, row) for row in z]
    drawn = st.sampled_from(expected)
    grey = data.draw(st.none() | st.tuples(drawn, drawn).map(lambda pair: tuple(sorted(pair))))
    zones = ClassificationZones(data.draw(drawn), grey, source)
    entries = score_panel(model, stats, records, zones)
    assert bits(e["score"] for e in entries) == bits(expected)
    report = evaluate_panel(model, stats, records, labels, zones)
    by_bank = {b["bank"]: b for b in report.years[0].banks}
    assert bits(by_bank[r.bank_id]["score"] for r in records) == bits(expected)
    assert [e["zone"] for e in entries] == [by_bank[r.bank_id]["zone"] for r in records]


@st.composite
def fisher_cases(draw):
    """A model with drawn Fisher functions over a permutation of the variables,
    the nonbankrupt one sometimes a copy of the bankrupt one so that every
    sample ties, and 1-8 labelled z-score rows."""
    names = draw(st.permutations(VARIABLES))
    functions = [
        (dict(zip(names, draw(st.lists(coef_values, min_size=6, max_size=6)))), draw(coef_values))
        for _ in GROUP_KEYS
    ]
    if draw(st.booleans()):
        functions[1] = functions[0]
    fisher = FisherFunctions(
        priors=dict.fromkeys(GROUP_KEYS, 0.5),
        weights={key: weights for key, (weights, _) in zip(GROUP_KEYS, functions)},
        constants={key: constant for key, (_, constant) in zip(GROUP_KEYS, functions)},
    )
    rows = draw(st.lists(st.tuples(ratio_rows, st.sampled_from(GroupLabel)), min_size=1, max_size=8))
    samples = tuple(LabeledSample(f"B{k}", RatioVector(*row), label) for k, (row, label) in enumerate(rows))
    return replace(REFERENCE_MODEL, fisher=fisher), TrainingSet(samples)


@SETTINGS
@given(fisher_cases())
def test_confusion_counts_follow_the_per_observation_fisher_call(case):
    model, ts = case
    expected: dict = {}
    for sample in ts.samples:
        key = (sample.label, fisher_call_reference(model, dict(zip(VARIABLES, sample.ratios))))
        expected[key] = expected.get(key, 0) + 1
    assert confusion_matrix(model, ts).counts == expected
