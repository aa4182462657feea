"""The CLI's exit-code contract over broken model, zones and panel files.

Each model example replaces one to three leaves of the bundled
reference_model.json and paper_zones.json with boundary values from a fixed
list, then runs diagnose on the model and classify and evaluate on the model
with derived, the published and the mutated zones, in text and in JSON. Each
panel example sets one to three cells of appendix_a.csv and of table2.csv to
boundary texts from a fixed list, written raw, so a quote or a bare carriage
return reaches the csv reader, or cuts a row short, blanks it or repeats it;
then it runs classify and evaluate on the appendix panel and fit on the
training panel, in text and in JSON. Every call keeps the contract: its exit
code is a documented one; a non-zero code prints nothing on stdout and
exactly one stderr line, starting `error: `; code 0 prints no error and,
under --format json, what parse_json reads.

The seed is fixed and the budget is the loaded hypothesis profile's: the
default's 100 examples of each take a few seconds. `--hypothesis-profile=boundary`
(conftest.py) runs 3000.
"""
from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from distress_lda.cli import main
from distress_lda.errors import ConfigError
from distress_lda.fixtures import data_path
from distress_lda.model_io import parse_json

PANEL = str(data_path("appendix_a.csv"))
MODEL = str(data_path("reference_model.json"))
DOCUMENTS = {
    name: json.loads(data_path(f"{stem}.json").read_text(encoding="utf-8"))
    for name, stem in (("model", "reference_model"), ("zones", "paper_zones"))
}
EXIT_CODES = {0, 1, 2, 3, 4, 5}  # the README's table
BOUNDARY_VALUES = (
    0, -0.0, 5e-324, 1e-320, -1, 0.5, 2, 1e300, 1e308, -1e308, 2**1100, 10**400,
    "", "-0", "99999999", None, True, [], {},
)


def leaves(doc, path=()) -> list[tuple]:
    """The path of every value in doc that is neither an object nor an array."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [leaf for at, value in enumerate(doc) for leaf in leaves(value, (*path, at))]
    return [path]


LEAVES = [(name, *path) for name, doc in DOCUMENTS.items() for path in leaves(doc)]
mutations = st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(BOUNDARY_VALUES)), min_size=1, max_size=3)


def mutated(mutations) -> dict:
    """Copies of the documents with each (path, value) set in turn."""
    docs = json.loads(json.dumps(DOCUMENTS))
    for (*path, last), value in mutations:
        node = docs
        for key in path:
            node = node[key]
        node[last] = value
    return docs


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str]) -> None:
    code, out, err = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    if code:
        assert out == "" and err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
        if argv[-1] == "json":
            parse_json(out, "stdout", argv[0], ConfigError)


@seed(0)
@settings(deadline=None)
@given(mutations)
# classify and evaluate with derived zones once escaped as a bare ValueError: the
# cut-off of this model overflows.
@example([(("model", "centroids", "nonbankrupt"), 1e308)])
# diagnose --format json once printed a NaN Box's M for a group of 1e308 banks.
@example([(("model", "group_sizes", "bankrupt"), 1e308)])
def test_broken_model_and_zones_files_keep_the_exit_code_contract(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in mutated(mutations).items():
            paths[name] = str(Path(tmp, f"{name}.json"))
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        calls = [["diagnose", "--model", paths["model"]]]
        calls += [
            [command, "--panel", PANEL, "--model", paths["model"], "--zones", zones]
            for command in ("classify", "evaluate")
            for zones in ("derived", "paper", paths["zones"])
        ]
        for argv in calls:
            for fmt in ("text", "json"):
                assert_contract([*argv, "--format", fmt])


def csv_rows(name: str) -> list[list[str]]:
    with data_path(name).open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


PANEL_ROWS = {"appendix": csv_rows("appendix_a.csv"), "training": csv_rows("table2.csv")}
PANEL_CELLS = ("", " ", "\x1c0.5", "-0", "0_5", "nan", "1e308", str(10**400), '"', "\r", "\u0663")
# Each edit names its row and column by an index taken modulo the file's data rows and that row's cells.
edits = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 99), st.integers(0, 99), st.sampled_from(PANEL_CELLS)),
    st.tuples(st.sampled_from(["short", "blank", "repeat"]), st.integers(0, 99), st.integers(0, 99), st.none()),
)


def quoted(cell: str) -> str:
    """The cell as the csv writer writes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([cell])
    return out.getvalue()


def edited(rows: list[list[str]], edits) -> str:
    """The panel's text after each edit in turn; an edited cell is written as it
    stands, every other cell as the csv writer writes it."""
    header, rows = rows[0], [[(cell, False) for cell in row] for row in rows[1:]]
    for kind, at, column, value in edits:
        at %= len(rows)
        row = rows[at]
        if kind == "cell" and row:  # a blank row stays blank
            row[column % len(row)] = (value, True)
        elif kind == "short":
            rows[at] = row[: column % (len(row) or 1)]
        elif kind == "blank":
            rows[at] = []
        elif kind == "repeat":
            rows.insert(at, list(row))
    lines = [map(quoted, header)] + [(cell if raw else quoted(cell) for cell, raw in row) for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


@seed(0)
@settings(deadline=None)
@given(st.lists(edits, min_size=1, max_size=3))
# A finite ratio whose score overflows is exit 1, "any other toolkit error".
@example([("cell", 0, 2, "1e308")])
# A bare carriage return is a csv error, exit 3.
@example([("cell", 0, 3, "\r")])
def test_broken_panel_cells_keep_the_exit_code_contract(edits):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, rows in PANEL_ROWS.items():
            paths[name] = str(Path(tmp, f"{name}.csv"))
            Path(paths[name]).write_bytes(edited(rows, edits).encode("utf-8"))
        calls = [[command, "--panel", paths["appendix"], "--model", MODEL] for command in ("classify", "evaluate")]
        calls.append(["fit", "--train", paths["training"], "--model", str(Path(tmp, "model.json"))])
        for argv in calls:
            for fmt in ("text", "json"):
                assert_contract([*argv, "--format", fmt])
