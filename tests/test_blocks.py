"""The panel reader against the row-at-a-time oracle, and the kernels it shares.

- parse_panel, panel_labels (on texts with and without a byte-order mark)
  and load_panels (two files) return what the row-at-a-time reader of
  tests/oracles.py returns, records compared by float.hex, or raise the
  same error type with the same message, over panels with injected faults:
  blank and short rows, whitespace cells (\\x1c among them), non-ASCII
  digits, 1_0, nan and inf, rows of empty ratio cells and rows that mix
  empty and numeric ones, duplicates within a file and across files, and
  labels that conflict. Rows of empty ratio cells share one blank ratio
  vector, empty lines hold no record, and no record runs its checks again.
  Each case starts at data row 1, 2, 3 or 512, after rows of other banks.
- load_panels reads a file as parse_panel and panel_labels read its text,
  with no, one or two byte-order marks, or raises the text's error type
  with the text's message after the file's path.
- The column-wise row dots and column sums of the fit carry the bits of the
  per-row kernels, which make each fused multiply-add with Dekker's product,
  over 1-9 columns, with signed zeros, subnormals and values outside the
  range where the package's half-products are exact.
- The line source gives the csv reader the lines io.StringIO gives it: the
  same rows, csv errors and line numbers, over texts of commas, quotes, LF,
  CR and NUL, at the default field size limit and at a tiny one. It holds
  less than half the memory io.StringIO holds for a bench panel.
- What a parse shares: the records of one bank share one str for its name,
  and equal ratio cells one float, whether a cell is read as it stands or
  stripped, within one text and within each file of load_panels. The parsed
  records of a bench panel hold under 2.0 MB.
- Each ratio is float() of its cell, bit for bit, "-0.0" with its sign,
  whether its row is read as it stands or stripped.

The duplicate rule's set and the read's caches hash bank names and cell
texts, and no result may depend on hash order, so CI runs this file under
two values of PYTHONHASHSEED.
"""
from __future__ import annotations

import collections
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    column_sums_reference,
    load_panels_reference,
    panel_labels_reference,
    parse_panel_reference,
    row_dot_reference,
    split_reference,
)

from distress_lda import DistressLdaError
from distress_lda import dataset
from distress_lda.lda_fit import _row_dots

SETTINGS = settings(deadline=None, max_examples=150)
# The data row at which a case's rows start: after 0, 1, 2 or 511 rows of
# other banks, so that they meet the read's caches, bank names, duplicate set
# and line count both fresh and after a long history.
STARTS = [1, 2, 3, 512]

COLUMNS = ["bank", "year", "eaa", "roae", "roaa", "nii", "laaa", "bdtla", "label"]
# Cells the row rules read: plain numbers, and whitespace that strip() removes
# but float() alone refuses (\x1c-\x1f) or that is not ASCII (U+00A0).
GOOD_CELLS = ["0.5", "-1.25", " 2 ", "0", "-0", "1e-3", "0.0000", "\x1c0.5", "0.5\x1f", "\xa00.5", "\t7\n"]
BAD_CELLS = ["1_0", "nan", "inf", "-inf", "1e999", "x", "٣", "0x10", ""]
GOOD_YEARS = ["2014", " 2015", "2016\x1c", "2017"]
BAD_YEARS = ["2_015", "٢٠١٥", "-2015", "", "20x5"]
LABELS = ["bankrupt", "nonbankrupt", " NonBankrupt ", "BANKRUPT\x1d"]
FAULTS = [None] * 6 + [  # a fault kind per row; good rows, duplicates and bad cells weigh more
    "blank", "short", "dup", "dup", "cell", "cell", "year", "label", "conflict", "empty", "mix", "spaces",
]


@st.composite
def faulty_rows(draw):
    """(header, rows): mostly good rows of distinct bank-years, with faults injected."""
    header = draw(st.permutations(COLUMNS + ["note"]))
    specs, rows = [], []  # each row as a dict from column to cell, and as its cells
    for i in range(draw(st.integers(0, 14))):
        fault = draw(st.sampled_from(FAULTS))
        row = {
            "bank": draw(st.sampled_from([f"Bank {i}", f" Bank {i} "])),
            "year": draw(st.sampled_from(GOOD_YEARS)),
            "label": draw(st.sampled_from(LABELS + [""])),
            "note": "n",
        }
        row.update({name: draw(st.sampled_from(GOOD_CELLS)) for name in COLUMNS[2:8]})
        if fault in ("dup", "conflict") and specs:
            earlier = draw(st.sampled_from(specs))
            row["bank"] = earlier["bank"].strip()
            if fault == "dup":  # the same bank-year, its cells written another way
                row["year"] = earlier["year"].strip()
            else:  # another year, the other label
                row["year"] = "2030"
                row["label"] = "bankrupt" if "non" in earlier["label"].lower() else "nonbankrupt"
        elif fault == "cell":
            row[draw(st.sampled_from(COLUMNS[2:8]))] = draw(st.sampled_from(BAD_CELLS + GOOD_CELLS[-4:]))
        elif fault == "year":
            row["year"] = draw(st.sampled_from(BAD_YEARS))
        elif fault == "label":
            row["label"] = "healthy"
        elif fault == "empty":
            row.update(dict.fromkeys(COLUMNS[2:8], draw(st.sampled_from(["", " ", "\x1c"]))))
        elif fault == "mix":
            row.update(dict.fromkeys(draw(st.sets(st.sampled_from(COLUMNS[2:8]), min_size=1, max_size=5)), ""))
        elif fault == "blank":
            row = dict.fromkeys(COLUMNS, draw(st.sampled_from(["", " ", "\t"])))
        elif fault == "spaces":
            row["bank"] = draw(st.sampled_from(["", "  "]))
        cells = [row.get(column, "") for column in header]
        if fault == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        specs.append(row)
        rows.append(cells)
    return header, rows


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def lead_rows(header, start) -> list[list[str]]:
    """The start - 1 good rows, in the header's columns, of banks no case uses."""
    cells = ["0.5", "1", "-0.0000", "0.25", "1e-3", "0.0000"]
    rows = []
    for i in range(start - 1):
        row = {"bank": f"Lead {i}", "year": "2010", "label": ("bankrupt", "nonbankrupt")[i % 2], "note": "n"}
        row.update(zip(COLUMNS[2:8], cells[i % 6:] + cells[:i % 6]))
        rows.append([row.get(column, "") for column in header])
    return rows


def led(text, start) -> str:
    """A panel text with the lead rows of start put after its header line."""
    header, _, body = text.partition("\n")
    return csv_text(header.split(","), lead_rows(header.split(","), start)) + body


def outcome(read, *args):
    """What a reader returns, records as (bank, year, hex ratios, available), or its error."""
    try:
        result = read(*args)
    except DistressLdaError as exc:
        return type(exc), str(exc)
    records, labels = result if isinstance(result, tuple) else (result, None)
    if isinstance(records, dict):
        records, labels = None, records
    return (
        None if records is None else [
            (r.bank_id, r.year, type(r.ratios).__name__, [x.hex() for x in r.ratios], r.available)
            for r in records
        ],
        None if labels is None else list(labels.items()),
    )


@pytest.mark.parametrize("start", STARTS)
@SETTINGS
@given(faulty_rows(), st.sampled_from(["", "\ufeff"]))
def test_text_readers_match_the_row_rules(start, case, mark):
    header, rows = case
    text = mark + csv_text(header, lead_rows(header, start) + rows)
    assert outcome(dataset.parse_panel, text) == outcome(parse_panel_reference, text)
    assert outcome(dataset.panel_labels, text) == outcome(panel_labels_reference, text)


@pytest.mark.parametrize("start", STARTS)
@SETTINGS
@given(faulty_rows(), st.data())
def test_two_files_match_the_row_rules(start, case, data):
    header, rows = case
    rows = lead_rows(header, start) + rows
    cut = data.draw(st.integers(start - 1, len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "first.csv", Path(tmp) / "second.csv"]
        for path, part in zip(paths, (rows[:cut], rows[cut:])):
            path.write_bytes(csv_text(header, part).encode("utf-8"))
        assert outcome(dataset.load_panels, paths, "panel", {}) == outcome(load_panels_reference, paths, "panel")


@pytest.mark.parametrize("start", STARTS)
@SETTINGS
@given(faulty_rows(), st.integers(0, 2))
def test_a_file_reads_as_its_text(start, case, marks):
    """load_panels reads a panel file as parse_panel and panel_labels read its
    text, each dropping one byte-order mark; a file's error is its text's, the
    message prefixed with the file's path. A text with a header and no data
    rows, which load_panels alone refuses, is left out."""
    header, rows = case
    text = "\ufeff" * marks + csv_text(header, lead_rows(header, start) + rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        loaded = outcome(dataset.load_panels, [path], "panel", {})
        assume(outcome(dataset.parse_panel, text)[0] != [])
        expected = outcome(lambda: (dataset.parse_panel(text), dataset.panel_labels(text)))
    if isinstance(expected[0], type):
        expected = (expected[0], f"panel file {path}: {expected[1]}")
    assert loaded == expected


@pytest.mark.parametrize("start", STARTS)
def test_cell_that_only_strip_reads(start):
    """float() refuses \\x1c0.5, which strip() reads as 0.5: the row is read
    again stripped, and that reading stands."""
    text = led("bank,year,eaa,roae,roaa,nii,laaa,bdtla,label\n" + "".join(
        f"B{i},2015,{cell},1,1,1,1,1,bankrupt\n" for i, cell in enumerate(["0.25", "\x1c0.5", "0.75"])
    ), start)
    records = dataset.parse_panel(text)[start - 1:]
    assert [r.ratios.eaa for r in records] == [0.25, 0.5, 0.75]
    assert outcome(dataset.parse_panel, text) == outcome(parse_panel_reference, text)


@pytest.mark.parametrize("start", STARTS)
def test_block_pass_reads_no_data_rows_and_empty_lines(start):
    """A row of empty ratio cells (a no-data marker) takes the one shared blank
    ratio vector, a row of zeros its own, and an empty line holds no record.
    The read builds each record without re-running its checks (parse_number
    has made them), so the records' _validate never runs. (The name is that
    of the block pass that read these rows before the one row loop.)"""
    text = led("bank,year,eaa,roae,roaa,nii,laaa,bdtla,label\n" + "".join(
        f"B{i},2015,{cells},bankrupt\n" + "\n" * (i % 3 == 0)
        for i, cells in enumerate(["0.5,1,1,1,1,1", ",,,,,", "0,0,0,0,0,0", ",,,,,", "-1,2,3,4,5,6"])
    ), start)
    with mock.patch.object(dataset.BankYearRecord, "_validate", side_effect=AssertionError("record checks ran")), \
            mock.patch.object(dataset.RatioVector, "_validate", side_effect=AssertionError("ratio checks ran")):
        records = dataset.parse_panel(text)
    assert [r.ratios is dataset._BLANK for r in records[start - 1:]] == [False, True, False, True, False]
    assert outcome(lambda: records) == outcome(parse_panel_reference, text)


# Signed zeros, subnormals, values past 2**±480 (where _fma leaves its
# half-products for exact fractions) and ordinary ones.
kernel_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1000, -(2.0**-1030), 2.0**500, -(2.0**600), 1e300, 2.0**-481]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def kernel_cases(draw):
    p = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(kernel_values, min_size=p, max_size=p), min_size=1, max_size=6))
    return rows, draw(st.lists(kernel_values, min_size=p, max_size=p))


def bits(values) -> list[str]:
    return [value.hex() for value in values]


@settings(deadline=None, max_examples=200)
@given(kernel_cases())
def test_row_dots_carry_the_bits_of_the_row_kernel(case):
    rows, b = case
    expected = [row_dot_reference(row, list(map(split_reference, b))) for row in rows]
    assert bits(_row_dots([tuple(row) for row in rows], b)) == bits(expected)


@settings(deadline=None, max_examples=200)
@given(kernel_cases())
def test_column_sums_carry_the_bits_of_the_row_kernel(case):
    rows, _ = case
    assert bits(dataset.column_sums(rows)) == bits(column_sums_reference(rows))


def csv_outcome(lines, limit):
    """The rows the csv reader gives for the lines, with the message of its error
    (None if it read to the end) and its line number, at this field size limit."""
    previous = csv.field_size_limit(limit)
    reader, rows = csv.reader(lines), []
    try:
        rows.extend(reader)
    except csv.Error as exc:
        return rows, str(exc), reader.line_num
    finally:
        csv.field_size_limit(previous)
    return rows, None, reader.line_num


@settings(deadline=None, max_examples=500)
@given(st.text(st.sampled_from([",", '"', "\n", "\r", "\x00", "a", "1"]), max_size=30),
       st.booleans(), st.sampled_from([csv.field_size_limit(), 3]))
@example("", False, csv.field_size_limit())
@example("a\rb", True, csv.field_size_limit())  # a bare carriage return, not a line break to io.StringIO
@example('"a', False, csv.field_size_limit())  # a quote still open at the end of the text
@example("ab,cdef", True, 3)  # a field over the size limit
def test_line_source_reads_as_stringio(text, newline, limit):
    text += "\n" * newline
    assert csv_outcome(dataset._lines(text), limit) == csv_outcome(io.StringIO(text), limit)


def test_line_source_holds_less_than_half_of_stringio(monkeypatch):
    """io.StringIO copies the text at four bytes a character; the line source
    holds the lines once, each a str of one byte a character plus its header."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from synth import generate_panel

    text, _ = generate_panel(1, 800)

    def peak(lines) -> int:
        tracemalloc.start()
        try:
            collections.deque(csv.reader(lines(text)), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(dataset._lines) < peak(io.StringIO) / 2


@pytest.mark.parametrize("start", STARTS)
def test_records_of_a_bank_share_one_name(start, tmp_path):
    """Also when one of the bank's rows is read stripped (\\x1c0.5, which
    float() refuses, sends it there), and within each of the two files of
    load_panels, each of which holds both banks. (Names of one character
    would prove nothing: CPython keeps one str per such character.)"""
    rows = [("Bank A", 2012, "0.5"), (" Bank A", 2013, "0.5"), ("Bank A ", 2014, "\x1c0.5"), ("Bank B", 2012, "1"),
            (" Bank B ", 2013, "1"), ("Bank A", 2015, "0.25"), ("Bank B", 2014, "\x1c1"), ("Bank A", 2016, "2")]
    header = "bank,year,eaa,roae,roaa,nii,laaa,bdtla,label\n"
    lines = [f"{bank},{year},{cell},1,1,1,1,1,bankrupt\n" for bank, year, cell in rows]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path, part, lead in zip(paths, (lines[:4], lines[4:]), (start, 1)):
        path.write_text(led(header + "".join(part), lead), encoding="utf-8")
    parsed = dataset.parse_panel(led(header + "".join(lines), start))
    loaded, _ = dataset.load_panels(paths, "panel", None)
    assert [r.bank_id for r in loaded[start - 1:]] == [bank.strip() for bank, _, _ in rows]
    for records in (parsed[start - 1:], loaded[start - 1:start + 3], loaded[start + 3:]):
        first: dict[str, str] = {}
        assert all(first.setdefault(r.bank_id, r.bank_id) is r.bank_id for r in records)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("stripped", [False, True])
def test_ratios_are_float_of_each_cell(start, stripped):
    """Each ratio carries the bits of float() of its cell, -0.0 its sign, in
    rows read as they stand and in a row read stripped after a \\x1c cell,
    which float() refuses."""
    cells = ["0.5", "0.25", "0.5", "-0.0", "0.0", " 0.1 ", "0.30000000000000004", "-0.0", "1e-3", "0.001",
             "5e-324", "-2.2250738585072014e-308", "0.50", "12345678.9", "-7e-06", "0", "-0", "0.0"]
    cells += ["\x1c0.5", "1", "1", "1", "1", "1"] if stripped else []
    rows = [cells[i:i + 6] for i in range(0, len(cells), 6)]
    text = led("bank,year,eaa,roae,roaa,nii,laaa,bdtla\n" + "".join(
        f"B{i},2015,{','.join(row)}\n" for i, row in enumerate(rows)
    ), start)
    values = [value for record in dataset.parse_panel(text)[start - 1:] for value in record.ratios]
    assert [value.hex() for value in values] == [float(cell.strip()).hex() for cell in cells]


@pytest.mark.parametrize("start", STARTS)
def test_equal_cells_share_one_float(start, tmp_path):
    """Equal ratio cells of one text or file share one float: in rows read as
    they stand, in the rows a \x1c cell sends to be read stripped (so \x1c0.5
    shares the float of 0.5), and within each of the two files of load_panels."""
    distinct = ["0.5", "0.25", "-0.0000", "0.0000", "1e-3", "0.1234", "-7.5"]
    rows = [[distinct[(i + j) % len(distinct)] for j in range(6)] for i in range(12)]
    rows[3][0] = "\x1c" + rows[3][0]
    rows[9][2] = "\x1c" + rows[9][2]
    header = "bank,year,eaa,roae,roaa,nii,laaa,bdtla\n"
    lines = [f"B{i},2015,{','.join(row)}\n" for i, row in enumerate(rows)]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path, part, lead in zip(paths, (lines[:6], lines[6:]), (start, 1)):
        path.write_text(led(header + "".join(part), lead), encoding="utf-8")
    parsed = dataset.parse_panel(led(header + "".join(lines), start))
    loaded, _ = dataset.load_panels(paths, "panel", None)
    parts = [(parsed[start - 1:], rows), (loaded[start - 1:start + 5], rows[:6]), (loaded[start + 5:], rows[6:])]
    for records, cells in parts:
        first: dict[str, float] = {}
        assert all(
            first.setdefault(cell.strip(), value) is value
            for record, row in zip(records, cells, strict=True) for value, cell in zip(record.ratios, row)
        )
        assert len(first) == len(distinct)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("stripped", [False, True])
def test_signed_zero_cells_keep_their_sign(start, stripped):
    """-0.0000 and 0.0000 are equal floats but not equal cells: each keeps its
    own sign, whichever of them the read meets first, read as it stands or stripped."""
    zeros = ["0.0000", "-0.0000", "-0.0000", "0.0000", "0.0000", "-0.0000"]
    rows = [zeros[i:] + zeros[:i] for i in range(6)]
    if stripped:
        rows[2][1] = "\x1c" + rows[2][1]
    text = led("bank,year,eaa,roae,roaa,nii,laaa,bdtla\n" + "".join(
        f"B{i},2015,{','.join(row)}\n" for i, row in enumerate(rows)
    ), start)
    records = dataset.parse_panel(text)[start - 1:]
    assert [[value.hex() for value in record.ratios] for record in records] == [
        [float(cell.strip()).hex() for cell in row] for row in rows
    ]


def test_parsed_bench_panel_is_small(monkeypatch):
    """The records of seed 1's 800-bank panel, whose 43,200 ratio cells hold
    about 7,400 distinct texts, hold under 2.0 MB (1.72 MB with one float per
    distinct cell; 2.58 MB with one float per cell)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from synth import generate_panel

    text, _ = generate_panel(1, 800)
    tracemalloc.start()
    try:
        records = dataset.parse_panel(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == 7200
    assert held < 2.0e6


def test_load_panels_holds_no_row_list(monkeypatch, tmp_path):
    """load_panels streams each pass over a file's rows, as parse_panel does over
    a text, so its peak on seed 1's 800-bank panel file stays near parse_panel's
    on the same text (1.14x), the file's bytes and text included; a list of the
    file's split rows would double it (2.22x)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from synth import generate_panel

    text, _ = generate_panel(1, 800)
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")

    def peak(read, *args) -> int:
        tracemalloc.start()
        try:
            read(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(dataset.load_panels, [path], "panel", {}) <= 1.5 * peak(dataset.parse_panel, text)
