"""Properties of the per-bank grouping behind averaging, warning years and evaluation.

Panels are generated record by record: every bank has one available row
inside the 2012-2015 window, so it always averages, plus a few other years
that may be placeholders. The first two banks are bankrupt and the next two
non-bankrupt, so every panel yields a valid training set.
"""
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import year_rows_reference
from records import fields

from distress_lda import (
    BankYearRecord,
    ClassificationZones,
    GroupLabel,
    RatioVector,
    YearRow,
    average_ratios,
    evaluate_panel,
    infer_warning_years,
    score_panel,
    training_set_from_panel,
)

WINDOW = (2012, 2015)
YEARS = tuple(range(2010, 2019))
ZERO = RatioVector(*[0.0] * 6)
# No deadline: per-example times vary with machine load more than the default allows.
SETTINGS = settings(deadline=None, max_examples=50)

ratio_vectors = st.lists(st.integers(-1000, 1000), min_size=6, max_size=6).map(
    lambda ks: RatioVector(*[k / 1000 for k in ks])
)


@st.composite
def panels(draw):
    """(records with each bank's rows contiguous and year-ordered, labels)."""
    records: list[BankYearRecord] = []
    labels: dict[str, GroupLabel] = {}
    for b in range(draw(st.integers(8, 10))):
        bank = f"Bank {b}"
        if b < 4:
            labels[bank] = GroupLabel.BANKRUPT if b < 2 else GroupLabel.NONBANKRUPT
        else:
            labels[bank] = draw(st.sampled_from(GroupLabel))
        anchor = draw(st.integers(*WINDOW))
        others = draw(st.sets(st.sampled_from(YEARS), max_size=5))
        for year in sorted(others | {anchor}):
            if year == anchor or draw(st.booleans()):
                records.append(BankYearRecord(bank, year, draw(ratio_vectors), True))
            else:
                records.append(BankYearRecord(bank, year, ZERO, False))
    return records, labels


@st.composite
def interleaved_panels(draw):
    """(records, labels, the same records reordered so banks interleave).

    The reordering keeps each bank's own rows in their original order: it
    permutes the sequence of bank names and hands each slot the bank's next
    row.
    """
    records, labels = draw(panels())
    slots = draw(st.permutations([r.bank_id for r in records]))
    queues = {bank: [r for r in records if r.bank_id == bank] for bank in labels}
    return records, labels, [queues[bank].pop(0) for bank in slots]


def _warning_years_reference(records, actual):
    """Per bank, straight from the definition: the last available year before
    the first placeholder row after the bank starts reporting, else its last
    available year. A panel may skip years, so this need not be the year
    before the placeholder."""
    warning = {}
    for bank in set(r.bank_id for r in records):
        if actual.get(bank) is not GroupLabel.BANKRUPT:
            continue
        available = [r.year for r in records if r.bank_id == bank and r.available]
        if not available:
            continue
        gaps = [
            r.year
            for r in records
            if r.bank_id == bank and not r.available and r.year > min(available)
        ]
        warning[bank] = max(year for year in available if not gaps or year < min(gaps))
    return warning


@SETTINGS
@given(interleaved_panels())
def test_interleaving_keeps_samples_and_first_seen_order(case):
    records, labels, interleaved = case
    base = training_set_from_panel(records, labels, WINDOW)
    ts = training_set_from_panel(interleaved, labels, WINDOW)

    assert set(ts.samples) == set(base.samples)
    assert [s.bank_id for s in ts.samples] == list(dict.fromkeys(r.bank_id for r in interleaved))
    for sample in ts.samples:
        assert sample.ratios == average_ratios(interleaved, sample.bank_id, WINDOW)


@SETTINGS
@given(panels().flatmap(lambda p: st.tuples(st.just(p[1]), st.permutations(p[0]))))
def test_warning_years_match_per_bank_reference(case):
    labels, records = case
    assert infer_warning_years(records, labels) == _warning_years_reference(records, labels)


@SETTINGS
@given(panels().flatmap(lambda p: st.tuples(st.just(p), st.permutations(p[0]))))
def test_evaluation_invariant_under_row_permutation(
    reference_model, reference_stats, published_zones, case
):
    (records, labels), shuffled = case
    base = evaluate_panel(reference_model, reference_stats, records, labels, published_zones)
    assert (
        evaluate_panel(reference_model, reference_stats, shuffled, labels, published_zones)
        == base
    )


def _as_dicts(rows):
    """Year rows in the form of year_rows_reference: dicts by field, banks as
    (bank, score, zone) tuples."""
    return [
        {name: [(b["bank"], b["score"], b["zone"]) for b in value] if name == "banks" else value
         for name, value in zip(fields(YearRow), row)}
        for row in rows
    ]


def _omitted_years_reference(records):
    """The notices of the panel's years without an available record, years ascending."""
    return [
        f"year {year}: no available records, omitted"
        for year in sorted({r.year for r in records})
        if not any(r.available and r.year == year for r in records)
    ]


@SETTINGS
@given(interleaved_panels(), st.data())
def test_year_rows_match_per_rule_reference(reference_model, case, data):
    """Each rule's rows equal a zone-by-zone tally, with the cut-off and both grey
    bounds drawn from the panel's own scores, so some scores sit exactly on them.
    Banks may interleave, and the notices name each year without an available
    record as omitted."""
    _, labels, records = case
    raw = ClassificationZones(0.0, None, "explicit-override")
    scored = [(e["bank"], e["year"], e["score"]) for e in score_panel(reference_model, None, records, raw)]
    scores = st.sampled_from(sorted({s for _, _, s in scored}))
    grey = data.draw(st.none() | st.tuples(scores, scores).map(lambda pair: tuple(sorted(pair))))
    zones = ClassificationZones(data.draw(scores), grey, "explicit-override")
    report = evaluate_panel(reference_model, None, records, labels, zones)
    warning = infer_warning_years(records, labels)
    cutoff_zones = ClassificationZones(zones.cutoff, None, zones.source)
    assert _as_dicts(report.years) == year_rows_reference(scored, zones, warning)
    assert _as_dicts(report.cutoff_only) == year_rows_reference(scored, cutoff_zones, warning)
    assert list(report.notices) == _omitted_years_reference(records)


def _override_notices_reference(records, actual, overrides):
    """The notices of warning-year overrides, each override checked against the whole panel."""
    notices = []
    for bank, year in sorted(overrides.items()):
        if not any(r.bank_id == bank for r in records):
            notices.append(f"warning year for bank {bank!r} ignored: bank not in panel")
        elif actual[bank] is not GroupLabel.BANKRUPT:
            notices.append(f"warning year for bank {bank!r} ignored: bank is not labelled bankrupt")
        elif not any(r.available and r.bank_id == bank and r.year == year for r in records):
            notices.append(
                f"warning year {year} for bank {bank!r} ignored: bank has no available record in {year}"
            )
    return notices


@st.composite
def overridden_panels(draw):
    """(records, labels, a warning year for every bank and for two banks not in the panel)."""
    records, labels = draw(panels())
    banks = sorted(labels) + ["Ghost 0", "Ghost 1"]
    return records, labels, {bank: draw(st.sampled_from(YEARS)) for bank in banks}


@SETTINGS
@given(overridden_panels())
def test_override_notices_in_bank_order(reference_model, reference_stats, published_zones, case):
    records, labels, overrides = case
    report = evaluate_panel(
        reference_model, reference_stats, records, labels, published_zones, warning_years=overrides
    )
    expected = _override_notices_reference(records, labels, overrides)
    assert list(report.notices[: len(expected)]) == expected
    assert all(notice.startswith("year ") for notice in report.notices[len(expected):])
