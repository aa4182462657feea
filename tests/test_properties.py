"""Properties of the panel format, the zone partition and the fit.

- Writing a panel and parsing it back gives the same records and labels.
- Zones are ordered along the score axis: bankrupt below grey below healthy.
- The fitted coefficients do not depend on the order of rows within a group.
"""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distress_lda import (
    VARIABLES,
    BankYearRecord,
    ClassificationZones,
    GroupLabel,
    RatioVector,
    ZoneLabel,
    classify_zone,
    fit_from_matrices,
    group_stats_from_matrices,
    panel_labels,
    parse_panel,
    serialize_panel,
)

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
