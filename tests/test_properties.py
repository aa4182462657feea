"""Properties of the panel format, the zone partition and the fit.

- Writing a panel and parsing it back gives the same records and labels.
- Zones are ordered along the score axis: bankrupt below grey below healthy.
- The fitted coefficients do not depend on the order of rows within a group.
- Window means and normalizer statistics carry numpy's bits exactly.
- Panel scoring carries the bits of score() on the (z-scored) ratio vector.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import normalizer_reference, window_mean_reference

from distress_lda import (
    VARIABLES,
    BankYearRecord,
    BindingError,
    ClassificationZones,
    EmptyWindowError,
    GroupLabel,
    LabeledSample,
    RatioVector,
    ZeroVarianceError,
    ZoneLabel,
    average_ratios,
    build_training_set,
    classify_zone,
    evaluate_panel,
    fit_from_matrices,
    fit_normalizer,
    group_stats_from_matrices,
    panel_labels,
    load_model,
    parse_panel,
    score,
    score_observation,
    serialize_panel,
)
from distress_lda.fixtures import data_path
from distress_lda.normalization import NormalizationStats, apply

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
            records.append(BankYearRecord(bank, year, RatioVector.from_array(values), available))
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


ZONE_ORDER = {ZoneLabel.BANKRUPT: 0, ZoneLabel.GREY: 1, ZoneLabel.NONBANKRUPT: 2}


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
    ranks = [ZONE_ORDER[classify_zone(s, zone_set)] for s in sorted(scores)]
    assert ranks == sorted(ranks)
    if zone_set.grey is None:
        assert ZoneLabel.GREY not in {classify_zone(s, zone_set) for s in scores}


@st.composite
def group_matrices(draw):
    """Two well-conditioned groups of rows over 1-3 variables."""
    p = draw(st.integers(1, 3))
    n0 = draw(st.integers(2, 6))
    n1 = draw(st.integers(max(2, p + 2 - n0), 8))
    cells = st.integers(-1000, 1000).map(lambda k: k / 100)
    X0 = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n0, max_size=n0)))
    X1 = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n1, max_size=n1)))
    stats = group_stats_from_matrices(X0, X1, VARIABLES[:p])
    assume(np.linalg.cond(stats.s_w) < 1e6)
    assume(np.max(np.abs(stats.mu1 - stats.mu0)) > 1e-3)
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
        BankYearRecord("Alpha", 2000 + k, RatioVector.from_array(row), any(v != 0.0 for v in row))
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
    rows = [r.ratios.as_tuple() for r in records if r.available and first <= r.year <= last]
    if not rows:
        with pytest.raises(EmptyWindowError):
            average_ratios(records, "Alpha", (first, last))
        return
    mean = average_ratios(records, "Alpha", (first, last))
    assert bits(mean.as_tuple()) == bits(window_mean_reference(rows))


@SETTINGS
@given(st.lists(ratio_rows, min_size=9, max_size=60))
def test_normalizer_carries_numpys_bits(rows):
    labels = [GroupLabel(k % 2) for k in range(len(rows))]
    ts = build_training_set(
        [LabeledSample(f"B{k}", RatioVector.from_array(row), label)
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
    model = dataclasses.replace(REFERENCE_MODEL, coefficients=coefficients, constant=draw(coef_values))
    means = draw(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    sds = draw(st.lists(st.floats(1e-3, 1e6), min_size=6, max_size=6))
    stats = NormalizationStats(mean=dict(zip(VARIABLES, means)), sd=dict(zip(VARIABLES, sds)))
    rows = draw(st.lists(ratio_rows, min_size=1, max_size=8))
    return model, stats, [RatioVector.from_array(row) for row in rows]


@SETTINGS
@given(scoring_cases(), st.sampled_from(["raw", "normalized"]))
def test_panel_scores_carry_the_bits_of_score(case, mode):
    model, stats, vectors = case
    records = [BankYearRecord(f"B{k}", 2015, v, True) for k, v in enumerate(vectors)]
    labels = {record.bank_id: GroupLabel.NONBANKRUPT for record in records}
    zones = ClassificationZones(cutoff=0.0, grey=None, source="explicit-override")
    try:
        expected = [score(model, apply(stats, v) if mode == "normalized" else v) for v in vectors]
    except BindingError as exc:
        with pytest.raises(BindingError) as from_observation:
            score_observation(model, stats, records[0], mode)
        with pytest.raises(BindingError) as from_panel:
            evaluate_panel(model, stats, records, labels, zones, mode)
        assert str(from_observation.value) == str(from_panel.value) == str(exc)
        return
    assert bits(score_observation(model, stats, r, mode) for r in records) == bits(expected)
    assert bits(score_observation(model, stats, v, mode) for v in vectors) == bits(expected)
    report = evaluate_panel(model, stats, records, labels, zones, mode)
    by_bank = {b.bank: b.score for b in report.years[0].banks}
    assert bits(by_bank[r.bank_id] for r in records) == bits(expected)
