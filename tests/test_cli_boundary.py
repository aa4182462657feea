"""The CLI's exit-code contract over broken model, zones and panel files.

Each model example makes one to three edits to the bundled
reference_model.json and paper_zones.json: an edit sets a value at any depth,
an object or an array as well as a leaf, to a boundary value from a fixed
list, deletes it, or adds an unknown key to an object. Then it runs diagnose
on the model and classify and evaluate on the model with derived, the
published and the mutated zones, in text and in JSON. Each panel example sets
one to three cells of appendix_a.csv and of table2.csv to boundary texts from
a fixed list, written raw, so a quote or a bare carriage return reaches the
csv reader, or cuts a row short, blanks it or repeats it; then it runs
classify and evaluate on the appendix panel and fit on the training panel, in
text and in JSON. Each config example replaces one to three values of a JSON
config and of a `key = value` config, each valid for every command before its
edits, and passes each through --config and through DISTRESS_LDA_CONFIG to
fit, diagnose, classify and evaluate, in text or in JSON. Every call keeps the
contract: its exit code is a documented one; a non-zero code prints nothing on
stdout and exactly one stderr line, starting `error: `; code 0 prints no error
and, under --format json, what parse_json reads.

The seed is fixed and the budget is the loaded hypothesis profile's: the
default's 100 examples of each take a few seconds. `--hypothesis-profile=boundary`
(conftest.py) runs 3000.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path
from unittest import mock

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


class _Delete:
    def __repr__(self) -> str:
        return "DELETE"


DELETE = _Delete()  # an edit's value that deletes the key or the array item at its path


def leaves(doc, path=()) -> list[tuple]:
    """The path of every value in doc that is neither an object nor an array."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [leaf for at, value in enumerate(doc) for leaf in leaves(value, (*path, at))]
    return [path]


def nodes(doc, path=()) -> list[tuple]:
    """The path of every value in doc below its top, objects and arrays included,
    and a path to an unknown key of every object, doc included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    found = [node for key, value in items for node in ((*path, key), *nodes(value, (*path, key)))]
    return [*found, (*path, "unknown")] if isinstance(doc, dict) else found


PATHS = [(name, *path) for name, doc in DOCUMENTS.items() for path in nodes(doc)]
mutations = st.lists(
    st.tuples(st.sampled_from(PATHS), st.sampled_from((*BOUNDARY_VALUES, DELETE))), min_size=1, max_size=3
)


def mutated(docs: dict, mutations) -> dict:
    """A copy of docs with each (path, value) set, or deleted for DELETE, in turn.
    An edit whose path an earlier edit removed or replaced is left out."""
    docs = json.loads(json.dumps(docs))
    for (*path, last), value in mutations:
        try:
            node = reduce(getitem, path, docs)
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
        except (KeyError, IndexError, TypeError):
            continue
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
# One edit of each structural kind: an object replaced, an array item deleted, an unknown key added.
@example([(("model", "fisher"), []), (("zones", "grey", 0), DELETE), (("model", "unknown"), None)])
def test_broken_model_and_zones_files_keep_the_exit_code_contract(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in mutated(DOCUMENTS, mutations).items():
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


# A config every command accepts: the bundled panels and model, and a valid
# value of every other key. Its labels name the one bank of both panel sets.
CONFIG = {
    "train": str(data_path("table2.csv")),
    "panel": [PANEL, str(data_path("appendix_b.csv"))],
    "model": MODEL,
    "zones": "paper",
    "format": "text",
    "alpha": 0.05,
    "collinearity_threshold": 0.8,
    "window": "2012:2015",
    "priors": "proportional",
    "labels": {"Moza Banco, S.A": "bankrupt"},
    "warning_years": {"Moza Banco, S.A": 2015},
}
# The same settings as `key = value` lines, which cannot hold the two bank maps.
LINES = {key: ",".join(value) if key == "panel" else value for key, value in CONFIG.items() if not isinstance(value, dict)}


def config_texts(json_edits, line_edits) -> dict[str, str]:
    """The JSON config and the `key = value` config after their edits; a line
    holds a string as it stands and any other value as JSON."""
    lines = [f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
             for key, value in mutated(LINES, line_edits).items()]
    return {"config.json": json.dumps(mutated(CONFIG, json_edits)), "config.txt": "".join(lines)}


def config_calls(tmp: str, fmt: str):
    """argv and DISTRESS_LDA_CONFIG of each call on each config file in tmp:
    every command, the config named by --config (the variable None, which the
    callers set empty: no file) or by the variable. fit writes its model into
    tmp, as its --model flag overrides the configs' model."""
    commands = [["fit", "--model", str(Path(tmp, "model.json"))], ["diagnose"], ["classify"], ["evaluate"]]
    for name in ("config.json", "config.txt"):
        path = str(Path(tmp, name))
        for argv in commands:
            yield [*argv, "--config", path, "--format", fmt], None
            yield [*argv, "--format", fmt], path


def test_unbroken_configs_run_every_command():
    """The configs the examples break pass every command, so the examples reach past the config stage."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in config_texts([], []).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv, variable in config_calls(tmp, "json"):
            with mock.patch.dict(os.environ, {"DISTRESS_LDA_CONFIG": variable or ""}):
                code, _out, err = run(argv)
            assert code == 0, (argv, variable, err)


config_edits, line_edits = (
    st.lists(st.tuples(st.sampled_from(leaves(doc)), st.sampled_from(BOUNDARY_VALUES)), min_size=1, max_size=3)
    for doc in (CONFIG, LINES)
)


@seed(0)
@settings(deadline=None)
@given(config_edits, line_edits, st.sampled_from(["text", "json"]))
def test_broken_config_values_keep_the_exit_code_contract(json_edits, line_edits, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in config_texts(json_edits, line_edits).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv, variable in config_calls(tmp, fmt):
            with mock.patch.dict(os.environ, {"DISTRESS_LDA_CONFIG": variable or ""}):
                assert_contract(argv)
