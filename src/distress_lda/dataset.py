"""Bank-year ratio panels: parsing, averaging, and training-set assembly.

A panel is a CSV of yearly financial ratios per bank. Rows whose six ratio
cells are all zero (or all empty) are markers for "no data available" and are
carried with available=False so that averaging windows can skip them without
losing track of the bank.

A panel is read a row at a time by one loop, which holds no split copy of
the text. Its ratio cells are read unstripped through the read's cached
parse_number, which reads a cell as it reads the stripped cell or refuses
it; only a row it refuses is stripped, to tell a no-data row from a faulty
cell. A csv error anywhere in the text (a bare carriage return, a field over
the csv size limit) still wins over any other fault, as if the whole text
had been split first: a panel error met before the end drains the rest of
the reader, and a csv error found there is raised in its place.

The csv reader reads the lines that io.StringIO(text) would yield, cut from
the text with str.split, which holds no copy of the text at four bytes a
character. A text, like a panel file, may start with one byte-order mark,
which is not data.

The records of one read (one text, or every file of load_panels) share one
str for each bank's name and one float for each distinct ratio-cell text,
parsed once: ratios published to four decimals repeat. Each value keeps the
bits of float() of its cell, so only `is` can tell. The read's
functools.cache of parse_number is keyed by the cell's text, so -0.0000 and
0.0000 keep their signs; it keeps no call that raised, so a refused cell
raises on every read; and it ends with the read.
"""
from __future__ import annotations

import csv
import enum
import math
from functools import cache
from itertools import chain, groupby, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

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

WINDOW_DEFAULT = (2012, 2015)  # the case study's averaging window

_Rows = Iterable[tuple[int, list[str]]]  # (record number, cells) of each data row
_Read = TypeVar("_Read")


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
        if all(map(math.isfinite, self)):
            return
        for name, value in zip(VARIABLES, self):  # name the first ratio that is not finite
            if not math.isfinite(value):
                raise ValueError(f"ratio {name!r} must be finite, got {value!r}")


# Canonical predictor order; every matrix and serialized mapping follows it.
VARIABLES = RatioVector.__match_args__
_REQUIRED_COLUMNS = ("bank", "year") + VARIABLES


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


_BANKRUPT = GroupLabel.BANKRUPT  # bound once: a global reads faster than a member of its enum


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


def _split_rows(reader: Iterator[list[str]]) -> tuple[list[str], _Rows]:
    """The header and a stream of the data rows that follow it, each with its
    record number; the first row with a cell that is not blank is the header.
    A csv error propagates from the stream as csv.Error."""
    lineno, first = next(((n, row) for n, row in enumerate(reader, start=1) if "".join(row).strip()), (0, None))
    if first is None:
        raise SchemaError("panel is empty: header row required")
    header = [cell.strip().lower() for cell in first]
    for column in _REQUIRED_COLUMNS:
        if column not in header:
            raise SchemaError(f"panel is missing required column {column!r}")
    # A repeated column would go unread. Blank or unknown cells may repeat, as
    # spreadsheet exports often end their rows with empty columns.
    for column in _REQUIRED_COLUMNS + ("label",):
        if header.count(column) > 1:
            raise SchemaError(f"panel names column {column!r} more than once")
    return header, enumerate(reader, lineno + 1)


def _lines(text: str) -> Iterator[str]:
    """The lines io.StringIO(text) yields: cut at each "\\n" and at no other
    line break, each keeping its "\\n", the last only when not empty. Not
    splitlines(), which also cuts at "\\r", "\\x1c" and "\\u2028" among others,
    and so changes the csv errors."""
    lines = text.split("\n")
    last = lines.pop()
    return chain(map(add, lines, repeat("\n")), [last] if last else [])


def _read_panel(text: str, read: Callable[[list[str], _Rows], _Read]) -> _Read:
    """read(header, rows) over the text's header and its stream of data rows.

    A csv error anywhere in the text wins: a panel error raised before the
    reader is spent is raised only once the rest of the text splits cleanly.
    """
    reader = csv.reader(_lines(text))
    try:
        try:
            return read(*_split_rows(reader))
        except PanelError:
            for _ in reader:
                pass
            raise
    except csv.Error as exc:  # a bare carriage return, a field over the csv size limit
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def parse_panel(text: str) -> list[BankYearRecord]:
    """Parse a ratio-panel CSV into bank-year records.

    Rows whose six ratio cells are all zero or all empty become records with
    available=False (the ratios are kept as zeros but mean nothing).
    """
    text = text.removeprefix("\ufeff")  # a byte-order mark, as read_text drops it
    return _read_panel(text, lambda header, rows: _records(header, rows, set(), cache(parse_number), {}))


def parse_number(text: str) -> float:
    """A finite number in plain ASCII: the one number rule of ratio cells and settings.
    Unlike float(), refuses 0_5, non-ASCII digits, nan and inf with ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def parse_year(text: str) -> int:
    """A year written as ASCII digits, surrounding whitespace aside: the one year
    rule of panels and settings. Unlike int(), refuses 2_015, -5, +5 and
    non-ASCII digits with ValueError."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_BLANK = RatioVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # shared by every row with empty ratio cells


def _records(
    header: list[str], rows: _Rows, seen: set[tuple[int, str]], floats: Callable[[str], float], names: dict[str, str]
) -> list[BankYearRecord]:
    """The rows' records; a (year, bank) already in seen (from any file) is
    refused, a new one added. floats is the read's cached parse_number and
    names holds the bank names read so far (from any file), so that equal
    cells share one float and each bank's records one str."""
    bank_at, year_at = header.index("bank"), header.index("year")
    ratio_at = [header.index(name) for name in VARIABLES]
    ratio_cells = itemgetter(*ratio_at)
    width = max(bank_at, year_at, *ratio_at) + 1
    years = cache(parse_year)  # each distinct year cell, parsed once
    records = []
    append, new = records.append, tuple.__new__  # bound once, not looked up each row
    for lineno, row in rows:
        if len(row) < width:
            row = row + [""] * (width - len(row))  # a short row's missing cells are empty
        bank = row[bank_at].strip()
        if not bank:
            if not "".join(row).strip():  # a blank line holds no record
                continue
            raise ParseError(f"row {lineno}: column 'bank' is empty")
        bank = names.setdefault(bank, bank)
        try:
            year = years(row[year_at])
        except ValueError as exc:
            raise ParseError(f"row {lineno}: column 'year': {exc}") from None
        key = (year, bank)
        if key in seen:
            raise DuplicateRecordError(f"row {lineno}: duplicate record for bank {bank!r}, year {year}")
        seen.add(key)
        cells = ratio_cells(row)
        try:  # parse_number checks values as RatioVector._validate would; a list, unlike a map, leaves no spare tuple
            ratios = new(RatioVector, list(map(floats, cells)))
        except ValueError:  # empty cells, or a cell only its stripped text reads
            cells = [cell.strip() for cell in cells]
            ratios = _BLANK  # all zeros, so the record is not available
            if any(cells):
                values = []
                for name, cell in zip(VARIABLES, cells):
                    try:
                        values.append(floats(cell))
                    except ValueError as exc:
                        raise ParseError(f"row {lineno}: column {name!r}: {exc}") from None
                ratios = new(RatioVector, values)
        append(new(BankYearRecord, (bank, year, ratios, any(ratios))))
    return records


def panel_labels(text: str) -> dict[str, GroupLabel]:
    """Extract the bank -> group mapping from a panel's label column."""
    text = text.removeprefix("\ufeff")  # a byte-order mark, as read_text drops it
    return _read_panel(text, lambda header, rows: _labels(header, rows, {}))


def _labels(header: list[str], rows: _Rows, labels: dict[str, GroupLabel]) -> dict[str, GroupLabel]:
    """labels plus the rows' labels; a bank labelled otherwise in labels (from any file) is refused."""
    if "label" not in header:
        raise SchemaError("panel has no 'label' column")
    bank_at, label_at = header.index("bank"), header.index("label")
    width = max(bank_at, label_at) + 1
    known: dict[str, GroupLabel | None] = {}  # each distinct label cell, resolved once
    for lineno, row in rows:
        if len(row) < width:
            row = row + [""] * (width - len(row))  # a short row's missing cells are empty
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
    Also refused: a file with a header but no data rows, an override for a bank
    in no panel, and a panel without a label column when no override is given.
    An error in a file names the file.
    """
    records: list[BankYearRecord] = []
    labels: dict[str, GroupLabel] = {}
    seen: set[tuple[int, str]] = set()  # each (year, bank), over every file
    floats = cache(parse_number)  # each ratio cell's value, over every file
    names: dict[str, str] = {}  # each bank's name, over every file
    for path in paths:
        text = read_text(path, what, PanelError)
        try:
            header, rows = _read_panel(text, lambda header, rows: (header, list(rows)))
            if not (found := _records(header, rows, seen, floats, names)):
                raise SchemaError("panel has a header but no data rows")
            records += found
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
    for bank, run in groupby(records, itemgetter(0)):  # a run of one bank's rows at a time
        grouped.setdefault(bank, []).extend(run)
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
    rows = [ratios for bank, year, ratios, ok in records if bank == bank_id and first <= year <= last and ok]
    if not rows:
        raise EmptyWindowError(f"bank {bank_id!r} has no available data in {first}-{last}")
    try:
        return RatioVector(*[total / len(rows) for total in column_sums(rows)])
    except ValueError as exc:  # finite ratios whose sum overflows
        raise EmptyWindowError(f"bank {bank_id!r}: mean over {first}-{last}: {exc}") from None


def check_design(n0: int, n1: int, p: int) -> None:
    """The two-group design rule: each group needs two members for its score
    dispersion, a discriminant needs at least one variable, and p variables
    need N >= p + 2 samples, since the pooled within-group scatter of N
    samples has rank at most N - 2."""
    if n0 < 2 or n1 < 2:
        raise InsufficientGroupError(
            f"each group needs at least 2 samples, got bankrupt={n0}, nonbankrupt={n1}"
        )
    n = n0 + n1
    if not 1 <= p <= n - 2:
        raise VariableCountError(
            f"a discriminant needs at least 1 variable, got {p}" if p < 1
            else f"{p} variables exceed the limit of {n - 2} for {n} samples"
        )


def build_training_set(samples: list[LabeledSample]) -> TrainingSet:
    """Assemble and validate a training set, preserving sample order."""
    n0 = sum(1 for s in samples if s.label is _BANKRUPT)
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
    samples = []
    for bank_id, rows in rows_by_bank(records).items():
        if bank_id not in labels:
            raise MissingLabelError(f"bank {bank_id!r} has no group label")
        samples.append((bank_id, average_ratios(rows, bank_id, window), labels[bank_id]))
    return build_training_set(LabeledSample._from_checked(samples))

