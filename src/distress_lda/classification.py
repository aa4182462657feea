"""Classification zones, scoring, confusion matrix, and yearly evaluation.

This module is the one home of a fitted model's linear forms: the
discriminant score of a bank-year and the two Fisher classification
functions of a training sample. Each is one column pass, _linear: it starts
every observation at the form's constant and adds weight * value per
variable, in the weights' order, reading each variable's column once. The
columns are bound by VARIABLES; a weight on any other variable raises
BindingError. A training sample goes to the group whose Fisher function is
larger, and an exact tie goes to nonbankrupt: inventing a bankruptcy call
from a coin-flip boundary is the costly mistake.

Zones come in two flavors. Derived zones follow the stated construction: the
cut-off is the size-weighted centroid mean and the grey interval is
[y0 + s0, y1 - s1], collapsing to cut-off-only when the candidate interval is
empty. Override zones are loaded from a file and carry whatever cut-off and
interval the caller trusts; they are tagged with their source so reports can
say which rule produced them, and the source fixes the score scale.

A zone is its text, "bankrupt", "grey" or "nonbankrupt", and one private
rule gives it. score_panel is the library's way to score and zone a panel:
it returns each available bank-year as the object classify prints, {"bank",
"year", "score", "zone"}. Yearly evaluation builds and tallies one year at a
time: it scores and zones a year's bank-years, builds each one's entry once,
as the object the report prints, {"bank", "score", "zone"}, and counts hits
the way early-warning tables are usually read: a distressed bank is only
*expected* to look distressed in its warning year (the last year it reports
before dropping out); in every other year a distress signal for it counts
against the healthy expectation like any other alarm. Grey cases are
reported separately and excluded from hits and errors.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import compress, groupby, repeat
from operator import add, gt, itemgetter, le, lt, mul
from typing import Iterable, Mapping, Sequence

from .dataset import VARIABLES, BankYearRecord, GroupLabel, TrainingSet, rows_by_bank
from .errors import BindingError, DomainError, MissingLabelError
from .lda_fit import GROUP_KEYS, DiscriminantModel
from .normalization import NormalizationStats, z_columns
from .record import Record

# Score scale of each zone source: derived zones sit between the fit's centroids,
# which are z-scored; explicit overrides are the published zones, on raw ratios.
ZONE_SCALES = {"derived-from-model": "normalized", "explicit-override": "raw"}
ZONE_SOURCES = tuple(ZONE_SCALES)


_BANKRUPT, _NONBANKRUPT = GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT


class ClassificationZones(Record):
    """Cut-off plus optional grey interval [lo, hi] on the score axis."""

    cutoff: float
    grey: tuple[float, float] | None
    source: str

    def _validate(self) -> None:
        bounds = (self.cutoff,) if self.grey is None else (self.cutoff, *self.grey)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"zone bounds must be finite, got cutoff {self.cutoff!r}, grey {self.grey!r}")
        if self.grey is not None and self.grey[0] > self.grey[1]:
            raise ValueError(f"grey interval is inverted: {self.grey}")
        # A tuple, not a dict: an unhashable source is unknown, not a TypeError.
        if self.source not in ZONE_SOURCES:
            raise ValueError(f"source must be one of {ZONE_SOURCES}, got {self.source!r}")

    @property
    def scale(self) -> str:
        """The score scale these zones are on: "normalized" or "raw"."""
        return ZONE_SCALES[self.source]


def cutoff_from_centroids(y0: float, n0: int, y1: float, n1: int) -> float:
    """Size-weighted centroid mean; identical to the grand mean of scores."""
    return (y0 * n0 + y1 * n1) / (n0 + n1)


def grey_zone(model: DiscriminantModel) -> tuple[float, float] | None:
    """Candidate grey interval [y0 + s0, y1 - s1]; None when it is empty."""
    lo = model.y0 + model.s0
    hi = model.y1 - model.s1
    if lo >= hi:
        return None
    return (lo, hi)


def derive_zones(model: DiscriminantModel) -> ClassificationZones:
    return ClassificationZones(
        cutoff=cutoff_from_centroids(model.y0, model.n0, model.y1, model.n1),
        grey=grey_zone(model),
        source="derived-from-model",
    )


_ZONE_BY_RANK = ("bankrupt", "grey", "nonbankrupt")


def _zones_of(scores: Sequence[float], zones: ClassificationZones) -> list[str]:
    """The zone's text of each score, the one home of the zone rule. With a grey
    interval: below it bankrupt, inside it (boundaries included) grey, above it
    non-bankrupt. Without one, the cut-off alone splits the axis and a score
    exactly at the cut-off counts as healthy. So the zone's rank in (bankrupt,
    grey, non-bankrupt) is (lo <= s) + (hi < s), or (cutoff <= s) twice."""
    if zones.grey is None:
        low = high = partial(le, zones.cutoff)
    else:
        low, high = partial(le, zones.grey[0]), partial(lt, zones.grey[1])
    return list(map(_ZONE_BY_RANK.__getitem__, map(add, map(low, scores), map(high, scores))))


_IDENTITY_SCALE = NormalizationStats(mean=dict.fromkeys(VARIABLES, 0.0), sd=dict.fromkeys(VARIABLES, 1.0))


def _positions(weights: Mapping[str, float]) -> list[int]:
    """The place in VARIABLES of each weight's variable, in the weights' order:
    how a linear form binds its columns. A variable outside VARIABLES raises BindingError."""
    for name in weights:
        if name not in VARIABLES:
            raise BindingError(f"observation has no variable {name!r}")
    return list(map(VARIABLES.index, weights))


def _linear(constant: float, weights: Mapping[str, float], columns: Sequence[Iterable[float]], n: int) -> list[float]:
    """constant + sum of weight * value at each of n observations, given as one
    column per variable in VARIABLES order: the one rule of every linear form of
    a fitted model. The terms are added in the weights' order, and each weighted
    column is read once."""
    sums = repeat(constant, n)
    for at, w in zip(_positions(weights), weights.values()):
        sums = map(add, sums, map(mul, repeat(w), columns[at]))
    return list(sums)


def _moments(model: DiscriminantModel, stats: NormalizationStats | None, scale: str) -> NormalizationStats:
    """The moments that z-score ratios onto the score scale, once the model's
    variables and the scale's stats are checked. The raw scale is z-scoring
    against mean 0.0 and sd 1.0, which leaves every finite ratio's bits."""
    if scale == "normalized" and stats is None:
        raise ValueError("the normalized scale requires normalization stats")
    _positions(model.coefficients)  # refuses a variable the ratios lack before any is read
    return stats if scale == "normalized" else _IDENTITY_SCALE


def _scores(model: DiscriminantModel, moments: NormalizationStats, records: Sequence[BankYearRecord]) -> list[float]:
    """The model's score of each record's ratios, z-scored by the moments, in the
    order given: the column pass over the z-scores as they stream in. A score
    that is not finite (a huge ratio can overflow its z-score) is refused with
    its bank-year.
    """
    columns = z_columns(moments, list(map(itemgetter(2), records)))
    scores = _linear(model.constant, model.coefficients, columns, len(records))
    if not all(map(math.isfinite, scores)):
        s, record = next((s, r) for s, r in zip(scores, records) if not math.isfinite(s))
        raise DomainError(f"bank {record.bank_id!r} year {record.year}: score must be finite, got {s!r}")
    return scores


def score_panel(
    model: DiscriminantModel,
    stats: NormalizationStats | None,
    records: Sequence[BankYearRecord],
    zones: ClassificationZones,
) -> list[dict]:
    """The zoned bank-year of each available record, in the order given, as the
    object classify prints: {"bank", "year", "score", "zone"}, the score on the
    scale of the zones; unavailable records are skipped.

    A score that is not finite (a huge ratio can overflow its z-score) is
    refused with the bank-year it belongs to.
    """
    available = [record for record in records if record.available]
    scores = _scores(model, _moments(model, stats, zones.scale), available)
    return [
        {"bank": r.bank_id, "year": r.year, "score": s, "zone": z}
        for r, s, z in zip(available, scores, _zones_of(scores, zones))
    ]


class ConfusionMatrix(Record):
    """Counts indexed by (actual, predicted) group."""

    counts: dict[tuple[GroupLabel, GroupLabel], int]

    def count(self, actual: GroupLabel, predicted: GroupLabel) -> int:
        return self.counts.get((actual, predicted), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def correct_fraction(self) -> float:
        total = self.total()
        if total == 0:
            return 0.0
        return sum(self.count(g, g) for g in GroupLabel) / total


def confusion_matrix(model: DiscriminantModel, tsZ: TrainingSet) -> ConfusionMatrix:
    """Fisher-classify every training sample against its actual label: both Fisher
    functions over the training set's z-score columns, an exact tie to nonbankrupt."""
    samples, fisher = tsZ.samples, model.fisher
    columns = list(zip(*map(itemgetter(1), samples))) or [()] * len(VARIABLES)
    bankrupt, healthy = (_linear(fisher.constants[k], fisher.weights[k], columns, len(samples)) for k in GROUP_KEYS)
    called = map((_NONBANKRUPT, _BANKRUPT).__getitem__, map(gt, bankrupt, healthy))
    return ConfusionMatrix(counts=dict(Counter(zip(map(itemgetter(2), samples), called))))


class YearRow(Record):
    year: int
    bankrupt_count: int
    grey_count: int
    nonbankrupt_count: int
    hits: int
    total: int
    type1_count: int
    type2_count: int
    type1_rate: float
    type2_rate: float
    accuracy: float
    # One {"bank", "score", "zone"} entry per zoned bank-year, in bank order. An
    # entry is shared with the cut-off-only row wherever both rules give it the
    # same zone, and with report_to_dict's output, so entries are read-only, as
    # the dict fields of NormalizationStats and FisherFunctions are.
    banks: tuple[dict, ...]


class EvaluationReport(Record):
    years: tuple[YearRow, ...]
    cutoff_only: tuple[YearRow, ...]
    zones: ClassificationZones
    notices: tuple[str, ...]


def infer_warning_years(
    records: Sequence[BankYearRecord], actual: Mapping[str, GroupLabel]
) -> dict[str, int]:
    """Warning year per distressed bank: its last reporting year.

    Taken as the last available year before the bank's first unavailable year
    (once it has started reporting), so a year the panel has no row for is
    never chosen; a bank that never drops out warns in its final available
    year.
    """
    warning: dict[str, int] = {}
    for bank, recs in rows_by_bank(records).items():
        if actual.get(bank) is not _BANKRUPT:
            continue
        available = sorted(r.year for r in recs if r.available)
        if not available:
            continue
        drop_out = min((r.year for r in recs if not r.available and r.year > available[0]), default=math.inf)
        warning[bank] = max(year for year in available if year < drop_out)
    return warning


def _tally(year: int, banks: list[dict], expected: set[str]) -> YearRow:
    """The year's row: zone counts, hits and error rates of its zoned banks.

    expected holds the distressed banks whose warning year this is, each with
    an available record that year: only they are expected to look distressed.
    """
    called = list(map(itemgetter("zone"), banks))
    warned = list(compress(called, map(expected.__contains__, map(itemgetter("bank"), banks)))) if expected else []
    n_b, n_g = called.count("bankrupt"), called.count("grey")
    type1 = warned.count("nonbankrupt")  # missed warnings
    type2 = n_b - warned.count("bankrupt")  # alarms for banks not expected to look distressed
    total = len(banks)
    # Hit arithmetic: false alarms and grey calls are subtracted from the
    # total; a missed warning shows up in the type-I rate, not in the hits.
    hits = total - type2 - n_g
    eb = len(expected)
    en = total - eb
    return YearRow(
        year=year,
        bankrupt_count=n_b,
        grey_count=n_g,
        nonbankrupt_count=total - n_b - n_g,
        hits=hits,
        total=total,
        type1_count=type1,
        type2_count=type2,
        type1_rate=type1 / eb if eb else 0.0,
        type2_rate=type2 / en if en else 0.0,
        accuracy=hits / total,
        banks=tuple(banks),
    )


def evaluate_panel(
    model: DiscriminantModel,
    stats: NormalizationStats | None,
    records: Sequence[BankYearRecord],
    actual: Mapping[str, GroupLabel],
    zones: ClassificationZones,
    mode: str | None = None,
    warning_years: Mapping[str, int] | None = None,
) -> EvaluationReport:
    """Score and zone a yearly panel, with and without the grey interval.

    The zones fix the score scale; a mode, if given, must name that scale.
    warning_years overrides the inferred last-reporting year of distressed
    banks whose drop-out year the panel does not show; one for a bank not in
    the panel, not labelled bankrupt, or without an available record in that
    year, is ignored with a notice.
    """
    if mode is not None and mode != zones.scale:
        raise ValueError(f"mode {mode!r} disagrees with the zones' {zones.scale} scale")
    banks = dict.fromkeys(r.bank_id for r in records)  # first-seen order names the first unlabelled bank
    for bank in banks:
        if bank not in actual:
            raise MissingLabelError(f"bank {bank!r} has no group label")
    warning = infer_warning_years(records, actual)
    notices: list[str] = []
    reported = {(r.bank_id, r.year) for r in records if r.available} if warning_years else set()
    for bank, year in sorted((warning_years or {}).items()):
        if bank not in banks:
            notices.append(f"warning year for bank {bank!r} ignored: bank not in panel")
        elif actual[bank] is not _BANKRUPT:
            notices.append(f"warning year for bank {bank!r} ignored: bank is not labelled bankrupt")
        elif (bank, year) not in reported:
            notices.append(
                f"warning year {year} for bank {bank!r} ignored: "
                f"bank has no available record in {year}"
            )
        else:
            warning[bank] = year
    moments = _moments(model, stats, zones.scale)
    cut = ClassificationZones(zones.cutoff, None, zones.source)
    ordered = sorted(records, key=itemgetter(0))
    ordered.sort(key=itemgetter(1))  # by year, then bank: two stable sorts
    rows: list[tuple[YearRow, YearRow]] = []
    for year, run in groupby(ordered, itemgetter(1)):  # scored, zoned and tallied one year at a time
        available = list(filter(itemgetter(3), run))
        if not available:
            notices.append(f"year {year}: no available records, omitted")
            continue
        scores = _scores(model, moments, available)
        zoned = _zones_of(scores, zones)
        entries = [{"bank": b, "score": s, "zone": z} for b, s, z in zip(map(itemgetter(0), available), scores, zoned)]
        cutoff_entries = [e if c == z else {**e, "zone": c} for e, z, c in zip(entries, zoned, _zones_of(scores, cut))]
        expected = {bank for bank, warns in warning.items() if warns == year}
        rows.append((_tally(year, entries, expected), _tally(year, cutoff_entries, expected)))
    return EvaluationReport(
        years=tuple(row for row, _ in rows),
        cutoff_only=tuple(row for _, row in rows),
        zones=zones,
        notices=tuple(notices),
    )


def zones_to_dict(zones: ClassificationZones) -> dict:
    return {
        "cutoff": zones.cutoff,
        "grey": list(zones.grey) if zones.grey is not None else None,
        "source": zones.source,
    }


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready form of an evaluation report; keys are stable."""

    def row_dict(row: YearRow, with_grey: bool) -> dict:
        counts = {"bankrupt": row.bankrupt_count, "nonbankrupt": row.nonbankrupt_count}
        if with_grey:
            counts["grey"] = row.grey_count
        return {
            "year": row.year,
            "counts": counts,
            "hits": row.hits,
            "total": row.total,
            "type1": row.type1_rate,
            "type2": row.type2_rate,
            "accuracy": row.accuracy,
            "banks": list(row.banks),
        }

    return {
        "years": [row_dict(row, True) for row in report.years],
        "cutoff_only": [row_dict(row, False) for row in report.cutoff_only],
        "zones": zones_to_dict(report.zones),
        "mode": report.zones.scale,
        "notices": list(report.notices),
    }
