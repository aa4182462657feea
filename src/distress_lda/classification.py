"""Classification zones, scoring, confusion matrix, and yearly evaluation.

Zones come in two flavors. Derived zones follow the stated construction: the
cut-off is the size-weighted centroid mean and the grey interval is
[y0 + s0, y1 - s1], collapsing to cut-off-only when the candidate interval is
empty. Override zones are loaded from a file and carry whatever cut-off and
interval the caller trusts; they are tagged with their source so reports can
say which rule produced them, and the source fixes the score scale.

Yearly evaluation scores every available bank-year, assigns a zone, and
counts hits the way early-warning tables are usually read: a distressed bank
is only *expected* to look distressed in its warning year (the last year it
reports before dropping out); in every other year a distress signal for it
counts against the healthy expectation like any other alarm. Grey cases are
reported separately and excluded from hits and errors.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import compress, repeat
from operator import add, is_not, itemgetter, le, lt, mul
from typing import Mapping, Sequence

from .dataset import VARIABLES, BankYearRecord, GroupLabel, TrainingSet, rows_by_bank
from .errors import BindingError, DomainError, MissingLabelError
from .lda_fit import DiscriminantModel, fisher_classify
from .normalization import NormalizationStats, z_columns
from .record import Record

# Score scale of each zone source: derived zones sit between the fit's centroids,
# which are z-scored; explicit overrides are the published zones, on raw ratios.
ZONE_SCALES = {"derived-from-model": "normalized", "explicit-override": "raw"}
ZONE_SOURCES = tuple(ZONE_SCALES)


class ZoneLabel(enum.Enum):
    BANKRUPT = "bankrupt"
    GREY = "grey"
    NONBANKRUPT = "nonbankrupt"


# Members the per-bank loops use, bound once: on Python 3.11 reading a member
# off its enum class costs ~130-220 ns, a module global ~10-20 ns.
_BANKRUPT_ZONE, _GREY_ZONE, _HEALTHY_ZONE = ZoneLabel.BANKRUPT, ZoneLabel.GREY, ZoneLabel.NONBANKRUPT
_BANKRUPT = GroupLabel.BANKRUPT


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


_ZONE_BY_RANK = (_BANKRUPT_ZONE, _GREY_ZONE, _HEALTHY_ZONE)


def _zones_of(scores: Sequence[float], zones: ClassificationZones) -> list[ZoneLabel]:
    """The zone of each score, the one home of the zone rule. With a grey
    interval: below it bankrupt, inside it (boundaries included) grey, above it
    non-bankrupt. Without one, the cut-off alone splits the axis and a score
    exactly at the cut-off counts as healthy. So the zone's rank in (bankrupt,
    grey, non-bankrupt) is (lo <= s) + (hi < s), or (cutoff <= s) twice."""
    if zones.grey is None:
        low = high = partial(le, zones.cutoff)
    else:
        low, high = partial(le, zones.grey[0]), partial(lt, zones.grey[1])
    return list(map(_ZONE_BY_RANK.__getitem__, map(add, map(low, scores), map(high, scores))))


def classify_zone(score_value: float, zones: ClassificationZones) -> ZoneLabel:
    """Map a finite score to its zone by the rule of the zones (see _zones_of)."""
    if not math.isfinite(score_value):
        raise DomainError(f"score must be finite, got {score_value!r}")
    return _zones_of((score_value,), zones)[0]


_IDENTITY_SCALE = NormalizationStats(mean=dict.fromkeys(VARIABLES, 0.0), sd=dict.fromkeys(VARIABLES, 1.0))


def _scores(
    model: DiscriminantModel, stats: NormalizationStats | None, scale: str, records: Sequence[BankYearRecord]
) -> list[float]:
    """The model's score of each record's ratios on either score scale, in the order given.

    The scores are summed column by column: each starts at the constant and
    adds one term per coefficient, in model.coefficients order. The arithmetic
    is that of score(model, v) on the raw scale and of
    score(model, apply(stats, v)) on the normalized one, so the scores carry
    the same bits. A score that is not finite (a huge ratio can overflow its
    z-score) is refused with the bank-year it belongs to.
    """
    if scale == "normalized" and stats is None:
        raise ValueError("the normalized scale requires normalization stats")
    for name in model.coefficients:
        if name not in VARIABLES:
            raise BindingError(f"observation has no variable {name!r}")
    # The raw scale is z-scoring against mean 0.0 and sd 1.0, which leaves every finite ratio's bits.
    moments = stats if scale == "normalized" else _IDENTITY_SCALE
    columns = z_columns(moments, list(map(itemgetter(2), records)))
    scores = [model.constant] * len(records)
    for name, coef in model.coefficients.items():
        scores = list(map(add, scores, map(mul, repeat(coef), columns[VARIABLES.index(name)])))
    if not all(map(math.isfinite, scores)):
        s, record = next((s, r) for s, r in zip(scores, records) if not math.isfinite(s))
        raise DomainError(f"bank {record.bank_id!r} year {record.year}: score must be finite, got {s!r}")
    return scores


def score_panel(
    model: DiscriminantModel,
    stats: NormalizationStats | None,
    records: Sequence[BankYearRecord],
    zones: ClassificationZones,
) -> list[tuple[BankYearRecord, float]]:
    """The available records, in the order given, each with its score on the
    scale of the zones; unavailable records are skipped.

    A score that is not finite (a huge ratio can overflow its z-score) is
    refused with the bank-year it belongs to.
    """
    available = [record for record in records if record.available]
    return list(zip(available, _scores(model, stats, zones.scale, available)))


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
    """Fisher-classify every training sample against its actual label."""
    counts: dict[tuple[GroupLabel, GroupLabel], int] = {}
    for sample in tsZ.samples:
        key = (sample.label, fisher_classify(model, sample.ratios))
        counts[key] = counts.get(key, 0) + 1
    return ConfusionMatrix(counts=counts)


class BankScore(Record):
    bank: str
    score: float
    zone: ZoneLabel


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
    banks: tuple[BankScore, ...]


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


def _tally(year: int, banks: list[BankScore], expected: set[str]) -> YearRow:
    """The year's row: zone counts, hits and error rates of its zoned banks.

    expected holds the distressed banks whose warning year this is, each with
    an available record that year: only they are expected to look distressed.
    """
    called = list(map(itemgetter(2), banks))
    warned = list(compress(called, map(expected.__contains__, map(itemgetter(0), banks)))) if expected else []
    n_b, n_g = called.count(_BANKRUPT_ZONE), called.count(_GREY_ZONE)
    type1 = warned.count(_HEALTHY_ZONE)  # missed warnings
    type2 = n_b - warned.count(_BANKRUPT_ZONE)  # alarms for banks not expected to look distressed
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
    expected_by_year: dict[int, set[str]] = {}
    for bank, year in warning.items():
        expected_by_year.setdefault(year, set()).add(bank)

    ordered = sorted(sorted(records, key=itemgetter(0)), key=itemgetter(1))  # by year, then bank: two stable sorts
    available = list(compress(ordered, map(itemgetter(3), ordered)))
    scores = _scores(model, stats, zones.scale, available)
    bank_ids = list(map(itemgetter(0), available))
    years = list(map(itemgetter(1), available))
    # A cut-off-only entry shares the entry under the zones where its zone is the same.
    zoned = _zones_of(scores, zones)
    cut = _zones_of(scores, ClassificationZones(zones.cutoff, None, zones.source))
    entries = BankScore._from_checked(zip(bank_ids, scores, zoned))
    differs = list(map(is_not, cut, zoned))
    fresh = iter(BankScore._from_checked(compress(zip(bank_ids, scores, cut), differs)))
    cutoff_entries = [next(fresh) if other else entry for entry, other in zip(entries, differs)]

    rows: list[tuple[YearRow, YearRow]] = []
    for year in dict.fromkeys(map(itemgetter(1), ordered)):
        lo = bisect_left(years, year)
        hi = bisect_right(years, year, lo)  # years[lo:hi] is this year's contiguous slice
        if lo == hi:
            notices.append(f"year {year}: no available records, omitted")
            continue
        expected = expected_by_year.get(year, set())
        rows.append((_tally(year, entries[lo:hi], expected), _tally(year, cutoff_entries[lo:hi], expected)))
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
            # _value_ is the member's text, read without a call to Enum's value descriptor per bank.
            "banks": [{"bank": bank, "score": s, "zone": zone._value_} for bank, s, zone in row.banks],
        }

    return {
        "years": [row_dict(row, True) for row in report.years],
        "cutoff_only": [row_dict(row, False) for row in report.cutoff_only],
        "zones": zones_to_dict(report.zones),
        "mode": report.zones.scale,
        "notices": list(report.notices),
    }
