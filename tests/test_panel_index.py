"""Properties of the per-bank grouping behind averaging, warning years and evaluation.

Panels are generated record by record: every bank has one available row
inside the 2012-2015 window, so it always averages, plus a few other years
that may be placeholders. The first two banks are bankrupt and the next two
non-bankrupt, so every panel yields a valid training set.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from distress_lda import (
    BankYearRecord,
    GroupLabel,
    RatioVector,
    average_ratios,
    evaluate_panel,
    infer_warning_years,
    training_set_from_panel,
)

WINDOW = (2012, 2015)
YEARS = tuple(range(2010, 2019))
ZERO = RatioVector.from_array([0.0] * 6)
# No deadline: per-example times vary with machine load more than the default allows.
SETTINGS = settings(deadline=None, max_examples=50)

ratio_vectors = st.lists(st.integers(-1000, 1000), min_size=6, max_size=6).map(
    lambda ks: RatioVector.from_array([k / 1000 for k in ks])
)


@st.composite
def panels(draw):
    """(records with each bank's rows contiguous and year-ordered, labels)."""
    records: list[BankYearRecord] = []
    labels: dict[str, GroupLabel] = {}
    for b in range(draw(st.integers(7, 10))):
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
    """Per bank, straight from the definition: the year before the first
    placeholder row after the bank starts reporting, else its last
    available year."""
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
        warning[bank] = min(gaps) - 1 if gaps else max(available)
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
