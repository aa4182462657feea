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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConfigError,
    DistressLdaError,
    DuplicateRecordError,
    EmptyWindowError,
    InsufficientGroupError,
    MissingLabelError,
    PanelError,
    ParseError,
    SchemaError,
    VariableCountError,
)
from .record import Record

# Canonical predictor order; every matrix and serialized mapping follows it.
VARIABLES = ("eaa", "roae", "roaa", "nii", "laaa", "bdtla")
WINDOW_DEFAULT = (2012, 2015)  # the case study's averaging window

_REQUIRED_COLUMNS = ("bank", "year") + VARIABLES
_Rows = list[tuple[int, list[str]]]  # (line number, cells) of each data row


class RatioVector(Record):
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

    def _validate(self) -> None:
        values = self.as_tuple()
        if all(map(math.isfinite, values)):
            return
        for name, value in zip(VARIABLES, values):  # name the first ratio that is not finite
            if not math.isfinite(value):
                raise ValueError(f"ratio {name!r} must be finite, got {value!r}")

    def as_tuple(self) -> tuple[float, ...]:
        """The six ratios in VARIABLES order."""
        return (self.eaa, self.roae, self.roaa, self.nii, self.laaa, self.bdtla)

    @classmethod
    def from_array(cls, values) -> "RatioVector":
        values = list(values)
        if len(values) != len(VARIABLES):
            raise ValueError(f"expected {len(VARIABLES)} values, got {len(values)}")
        return cls(*map(float, values))


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


class BankYearRecord(Record):
    bank_id: str
    year: int
    ratios: RatioVector
    available: bool


class LabeledSample(Record):
    """One training observation: window-averaged ratios plus group label."""

    bank_id: str
    ratios: RatioVector
    label: GroupLabel


class TrainingSet(Record):
    samples: tuple[LabeledSample, ...]
    n0: int  # bankrupt count
    n1: int  # non-bankrupt count


def _split_rows(text: str) -> tuple[list[str], _Rows]:
    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    rows: _Rows = []
    try:
        for lineno, row in enumerate(reader, start=1):
            if not "".join(row).strip():  # every cell blank
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
    # A repeated column would go unread. Blank or unknown cells may repeat, as
    # spreadsheet exports often end their rows with empty columns.
    for column in _REQUIRED_COLUMNS + ("label",):
        if header.count(column) > 1:
            raise SchemaError(f"panel names column {column!r} more than once")
    return header, rows


def _padded(row: list[str], width: int) -> list[str]:
    """The row with empty cells appended up to width: a short row's missing cells are empty."""
    return row if len(row) >= width else row + [""] * (width - len(row))


def parse_panel(text: str) -> list[BankYearRecord]:
    """Parse a ratio-panel CSV into bank-year records.

    Rows whose six ratio cells are all zero or all empty become records with
    available=False (the ratios are kept as zeros but mean nothing).
    """
    return _records(*_split_rows(text), set())


def _plain(text: str) -> bool:
    """No underscore and only ASCII: float() also reads 0_5 as 5.0, and non-ASCII digits."""
    return text.isascii() and "_" not in text


def parse_number(text: str) -> float:
    """A finite number in plain ASCII: the one number rule of ratio cells and settings.
    Unlike float(), refuses 0_5, non-ASCII digits, nan and inf with ValueError."""
    if not _plain(text):
        raise ValueError(f"not a plain ASCII number: {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _ratio_error(lineno: int, cells: list[str]) -> ParseError:
    """The error for a row's first ratio cell, in VARIABLES order, that parse_number refuses."""
    for name, cell in zip(VARIABLES, cells):
        try:
            parse_number(cell)
        except ValueError as exc:
            return ParseError(f"row {lineno}: column {name!r}: {exc}")
    raise AssertionError(f"row {lineno}: every ratio cell is a finite number")


def parse_year(text: str) -> int:
    """A year written as ASCII digits, surrounding whitespace aside: the one year
    rule of panels and settings. Unlike int(), refuses 2_015, -5, +5 and
    non-ASCII digits with ValueError."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _records(header: list[str], rows: _Rows, seen: set[tuple[str, int]]) -> list[BankYearRecord]:
    """The rows' records; a bank-year already in seen (from any file) is refused, a new one added."""
    bank_at, year_at = header.index("bank"), header.index("year")
    ratio_at = [header.index(name) for name in VARIABLES]
    width = max(bank_at, year_at, *ratio_at) + 1
    blank = RatioVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # shared by every row with empty ratio cells
    records: list[BankYearRecord] = []
    for lineno, row in rows:
        row = _padded(row, width)
        bank = row[bank_at].strip()
        if not bank:
            raise ParseError(f"row {lineno}: column 'bank' is empty")
        try:
            year = parse_year(row[year_at])
        except ValueError as exc:
            raise ParseError(f"row {lineno}: column 'year': {exc}") from None
        key = (bank, year)
        if key in seen:
            raise DuplicateRecordError(f"row {lineno}: duplicate record for bank {bank!r}, year {year}")
        seen.add(key)

        cells = [row[idx].strip() for idx in ratio_at]
        joined = "".join(cells)
        if not joined:
            records.append(BankYearRecord(bank, year, blank, False))
            continue
        if not _plain(joined):
            raise _ratio_error(lineno, cells)
        try:
            values = list(map(float, cells))
            ratios = RatioVector(*values)
        except ValueError:  # a cell that is not a number, or not finite
            raise _ratio_error(lineno, cells) from None
        records.append(BankYearRecord(bank, year, ratios, any(values)))
    return records


def panel_labels(text: str) -> dict[str, GroupLabel]:
    """Extract the bank -> group mapping from a panel's label column."""
    return _labels(*_split_rows(text), {})


def _labels(header: list[str], rows: _Rows, labels: dict[str, GroupLabel]) -> dict[str, GroupLabel]:
    """labels plus the rows' labels; a bank labelled otherwise in labels (from any file) is refused."""
    if "label" not in header:
        raise SchemaError("panel has no 'label' column")
    bank_at, label_at = header.index("bank"), header.index("label")
    width = max(bank_at, label_at) + 1
    for lineno, row in rows:
        row = _padded(row, width)
        bank = row[bank_at].strip()
        cell = row[label_at].strip()
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


def read_text(path: str | Path, what: str, error: type[DistressLdaError]) -> str:
    """A file's UTF-8 text, without the byte-order mark that spreadsheet exports
    may put first; a file that cannot be read or decoded raises `error`."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")  # not read_text(), which turns a quoted CR into LF
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from None


def load_panels(
    paths: Iterable[str | Path], what: str, overrides: Mapping[str, GroupLabel] | None
) -> tuple[list[BankYearRecord], dict[str, GroupLabel]]:
    """Records of every panel file and, unless overrides is None, the labels of
    their banks: each panel's label column, overridden by overrides.

    Each file is read and split once, and the files are checked as one panel.
    Also refused: an override for a bank in no panel, and a panel without a
    label column when no override is given. An error in a file names the file.
    """
    records: list[BankYearRecord] = []
    labels: dict[str, GroupLabel] = {}
    seen: set[tuple[str, int]] = set()
    for path in paths:
        text = read_text(path, what, PanelError)
        try:
            header, rows = _split_rows(text)
            records += _records(header, rows, seen)
            if overrides is None or (overrides and "label" not in header):
                continue
            _labels(header, rows, labels)
        except PanelError as exc:
            raise type(exc)(f"{what} file {path}: {exc}") from None
    if overrides:
        unknown = sorted(set(overrides) - {record.bank_id for record in records})
        if unknown:
            raise ConfigError(f"label for bank {unknown[0]!r} rejected: bank not in panel")
        labels.update(overrides)
    return records, labels


def rows_by_bank(records: Iterable[BankYearRecord]) -> dict[str, list[BankYearRecord]]:
    """Each bank's records, banks in first-seen order, rows in panel order."""
    grouped: dict[str, list[BankYearRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.bank_id, []).append(rec)
    return grouped


def ordered_sum(terms: Iterable[float]) -> float:
    """The terms added one by one from 0.0. Not sum(): from Python 3.12 it compensates float rounding."""
    total = 0.0
    for term in terms:
        total += term
    return total


def column_sums(rows: Sequence[Sequence[float]]) -> list[float]:
    """Column totals added row by row from 0.0, in the order and to the bits of numpy's sums along axis 0."""
    return [ordered_sum(column) for column in zip(*rows)]


def column_moments(rows: Sequence[Sequence[float]]) -> tuple[list[float], list[float]]:
    """Column means, and column sums of squared deviations from them, summed as column_sums does."""
    means = [total / len(rows) for total in column_sums(rows)]
    return means, column_sums([[(x - m) * (x - m) for x, m in zip(row, means)] for row in rows])


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
        rec.ratios.as_tuple()
        for rec in records
        if rec.bank_id == bank_id and first <= rec.year <= last and rec.available
    ]
    if not rows:
        raise EmptyWindowError(f"bank {bank_id!r} has no available data in {first}-{last}")
    try:
        return RatioVector.from_array(total / len(rows) for total in column_sums(rows))
    except ValueError as exc:  # finite ratios whose sum overflows
        raise EmptyWindowError(f"bank {bank_id!r}: mean over {first}-{last}: {exc}") from None


def check_design(n0: int, n1: int, p: int) -> None:
    """The two-group design rule: each group needs two members for its score
    dispersion, and p variables need N >= p + 2 samples, since the pooled
    within-group scatter of N samples has rank at most N - 2."""
    if n0 < 2 or n1 < 2:
        raise InsufficientGroupError(
            f"each group needs at least 2 samples, got bankrupt={n0}, nonbankrupt={n1}"
        )
    n = n0 + n1
    if p > n - 2:
        raise VariableCountError(f"{p} variables exceed the limit of {n - 2} for {n} samples")


def build_training_set(samples: list[LabeledSample]) -> TrainingSet:
    """Assemble and validate a training set, preserving sample order."""
    n0 = sum(1 for s in samples if s.label is GroupLabel.BANKRUPT)
    n1 = len(samples) - n0
    check_design(n0, n1, len(VARIABLES))
    return TrainingSet(samples=tuple(samples), n0=n0, n1=n1)


def training_set_from_panel(
    records: list[BankYearRecord],
    labels: dict[str, GroupLabel],
    window: tuple[int, int] = WINDOW_DEFAULT,
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

