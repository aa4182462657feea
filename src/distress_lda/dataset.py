"""Bank-year ratio panels: parsing, averaging, and training-set assembly.

A panel is a CSV of yearly financial ratios per bank. Rows whose six ratio
cells are all zero (or all empty) are markers for "no data available" and are
carried with available=False so that averaging windows can skip them without
losing track of the bank.
"""
from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateRecordError,
    EmptyWindowError,
    InsufficientGroupError,
    MissingLabelError,
    ParseError,
    SchemaError,
    VariableCountError,
)

# Canonical predictor order; every matrix and serialized mapping follows it.
VARIABLES = ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")

_REQUIRED_COLUMNS = ("bank", "year") + VARIABLES


@dataclass(frozen=True)
class RatioVector:
    """Six financial ratios as decimal fractions.

    Values are unbounded reals: negative returns and loans-to-assets above
    one both occur in real panels. Only finiteness is enforced.
    """

    eaa: float
    roae: float
    roaa: float
    nii: float
    laaa: float
    bdtla: float

    def __post_init__(self) -> None:
        for name in VARIABLES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ratio {name!r} must be finite, got {getattr(self, name)!r}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in VARIABLES], dtype=float)

    @classmethod
    def from_array(cls, values) -> "RatioVector":
        values = list(values)
        if len(values) != len(VARIABLES):
            raise ValueError(f"expected {len(VARIABLES)} values, got {len(values)}")
        return cls(**{name: float(v) for name, v in zip(VARIABLES, values)})

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in VARIABLES}


class GroupLabel(enum.IntEnum):
    """Binary solvency status; the integer value is the discriminant target."""

    BANKRUPT = 0
    NONBANKRUPT = 1

    @classmethod
    def from_string(cls, text: str) -> "GroupLabel":
        key = text.strip().lower()
        if key == "bankrupt":
            return cls.BANKRUPT
        if key == "nonbankrupt":
            return cls.NONBANKRUPT
        raise ValueError(f"unknown group label {text!r}")


@dataclass(frozen=True)
class BankYearRecord:
    bank_id: str
    year: int
    ratios: RatioVector
    available: bool


@dataclass(frozen=True)
class LabeledSample:
    """One training observation: window-averaged ratios plus group label."""

    bank_id: str
    ratios: RatioVector
    label: GroupLabel


@dataclass(frozen=True)
class TrainingSet:
    samples: tuple[LabeledSample, ...]
    n0: int  # bankrupt count
    n1: int  # non-bankrupt count
    p: int


def _split_rows(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if header is None:
                header = [cell.strip().lower() for cell in row]
            else:
                rows.append((lineno, row))
    except csv.Error as exc:  # a bare carriage return, a field over the csv size limit
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise SchemaError("panel is empty: header row required")
    for column in _REQUIRED_COLUMNS:
        if column not in header:
            raise SchemaError(f"panel is missing required column {column!r}")
    return header, rows


def _cell(row: list[str], idx: int) -> str:
    return row[idx].strip() if idx < len(row) else ""


def parse_panel(text: str) -> list[BankYearRecord]:
    """Parse a ratio-panel CSV into bank-year records.

    Rows whose six ratio cells are all zero or all empty become records with
    available=False (the ratios are kept as zeros but mean nothing).
    """
    header, rows = _split_rows(text)
    bank_at, year_at = header.index("bank"), header.index("year")
    ratio_at = [header.index(name) for name in VARIABLES]
    records: list[BankYearRecord] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in rows:
        bank = _cell(row, bank_at)
        if not bank:
            raise ParseError(f"row {lineno}: column 'bank' is empty")
        year_text = _cell(row, year_at)
        try:
            year = int(year_text)
        except ValueError:
            raise ParseError(f"row {lineno}: column 'year': not an integer: {year_text!r}") from None
        key = (bank, year)
        if key in seen:
            raise DuplicateRecordError(f"row {lineno}: duplicate record for bank {bank!r}, year {year}")
        seen.add(key)

        cells = [_cell(row, idx) for idx in ratio_at]
        if all(cell == "" for cell in cells):
            records.append(BankYearRecord(bank, year, RatioVector.from_array([0.0] * 6), False))
            continue
        values = []
        for name, cell in zip(VARIABLES, cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"row {lineno}: column {name!r}: not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"row {lineno}: column {name!r}: not finite: {cell!r}")
            values.append(value)
        available = any(v != 0.0 for v in values)
        records.append(BankYearRecord(bank, year, RatioVector.from_array(values), available))
    return records


def panel_labels(text: str) -> dict[str, GroupLabel]:
    """Extract the bank -> group mapping from a panel's label column."""
    header, rows = _split_rows(text)
    if "label" not in header:
        raise SchemaError("panel has no 'label' column")
    bank_at, label_at = header.index("bank"), header.index("label")
    labels: dict[str, GroupLabel] = {}
    for lineno, row in rows:
        bank = _cell(row, bank_at)
        cell = _cell(row, label_at)
        if not cell:
            continue
        try:
            label = GroupLabel.from_string(cell)
        except ValueError:
            raise ParseError(f"row {lineno}: column 'label': unknown label {cell!r}") from None
        if bank in labels and labels[bank] is not label:
            raise ParseError(f"row {lineno}: bank {bank!r} has conflicting labels")
        labels[bank] = label
    return labels


def serialize_panel(records: list[BankYearRecord], labels: dict[str, GroupLabel] | None = None) -> str:
    """Inverse of parse_panel (plus optional label column); round-trips exactly.

    Lines end in CRLF, the csv default, which also makes the writer quote a
    bank name holding a bare carriage return.
    """
    out = io.StringIO()
    columns = list(_REQUIRED_COLUMNS) + (["label"] if labels is not None else [])
    writer = csv.writer(out)
    writer.writerow(columns)
    for rec in records:
        row = [rec.bank_id, str(rec.year)]
        row += [repr(getattr(rec.ratios, name)) for name in VARIABLES]
        if labels is not None:
            label = labels.get(rec.bank_id)
            row.append(label.name.lower() if label is not None else "")
        writer.writerow(row)
    return out.getvalue()


def rows_by_bank(records: Iterable[BankYearRecord]) -> dict[str, list[BankYearRecord]]:
    """Each bank's records, banks in first-seen order, rows in panel order."""
    grouped: dict[str, list[BankYearRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.bank_id, []).append(rec)
    return grouped


def average_ratios(records: list[BankYearRecord], bank_id: str, years: tuple[int, int]) -> RatioVector:
    """Mean ratios for one bank over an inclusive year window.

    Unavailable years are excluded from both the numerator and the
    denominator, so a bank observed in only one window year keeps that
    year's ratios unchanged. The bank's window rows are summed in the order
    they appear in `records`; rows of other banks never enter the mean, so
    passing only this bank's rows gives the same result.
    """
    first, last = years
    rows = [
        rec.ratios.as_array()
        for rec in records
        if rec.bank_id == bank_id and first <= rec.year <= last and rec.available
    ]
    if not rows:
        raise EmptyWindowError(f"bank {bank_id!r} has no available data in {first}-{last}")
    return RatioVector.from_array(np.mean(rows, axis=0))


def check_variable_count(p: int, n: int) -> None:
    """Reject p variables over n samples in two groups: the pooled within-group
    scatter has rank at most n - 2, so more variables make it singular."""
    if p > n - 2:
        raise VariableCountError(f"{p} variables exceed the limit of {n - 2} for {n} samples")


def build_training_set(samples: list[LabeledSample]) -> TrainingSet:
    """Assemble and validate a training set, preserving sample order."""
    n0 = sum(1 for s in samples if s.label is GroupLabel.BANKRUPT)
    n1 = len(samples) - n0
    p = len(VARIABLES)
    if n0 < 2 or n1 < 2:
        raise InsufficientGroupError(
            f"each group needs at least 2 samples, got bankrupt={n0}, nonbankrupt={n1}"
        )
    check_variable_count(p, n0 + n1)
    return TrainingSet(samples=tuple(samples), n0=n0, n1=n1, p=p)


def training_set_from_panel(
    records: list[BankYearRecord],
    labels: dict[str, GroupLabel],
    window: tuple[int, int] = (2012, 2015),
) -> TrainingSet:
    """Average each labeled bank over the window and build a training set.

    Samples follow the order in which banks first appear in `records`. Each
    bank's rows are averaged in panel order, so interleaving other banks'
    rows between them leaves that bank's sample unchanged.
    """
    samples: list[LabeledSample] = []
    for bank_id, rows in rows_by_bank(records).items():
        if bank_id not in labels:
            raise MissingLabelError(f"bank {bank_id!r} has no group label")
        samples.append(LabeledSample(bank_id, average_ratios(rows, bank_id, window), labels[bank_id]))
    return build_training_set(samples)

