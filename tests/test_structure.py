"""Source structure: file I/O, the JSON format and the two-group design rule
each live in one function, a record skips its checks only in its constructor
and the panel reader's row loop, the package imports only the standard
library and itself, nothing imports numpy or dataclasses, no package module
imports another's underscore name, and every square is a product, never pow.
The package exports what __init__ imports, the bench finds every name it calls,
and the README's python examples run."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distress_lda"
BENCH = Path(__file__).resolve().parents[1] / "bench"
TESTS = Path(__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# Each call that reads, writes or formats a file, each raise of the design
# rule's error and each import of a module in IMPORTS, with the one function
# allowed to make it.
HOMES = {
    "json.loads": "model_io.parse_json",
    "json.dumps": "model_io.json_text",
    ".write_text": "model_io.write_json",
    ".read_bytes": "dataset.read_text",
    "raise VariableCountError": "dataset.check_design",
}
# The qualified functions allowed to build a record with tuple.__new__, which
# skips the class's _validate: the constructor itself, and the panel reader's
# row loop, whose cells parse_number checks as RatioVector._validate would.
UNCHECKED_BUILDS = {"record.Record.__new__", "dataset._records"}
# Neither has a home. numpy's import would cost every fit ~140 ms for a 6x6
# solve. dataclasses' pulls in inspect, ast, dis and tokenize, a cost every CLI
# call would pay, and the package's records are record.Record.
IMPORTS = ("numpy", "dataclasses")


def _calls(path: Path):
    """(call name, enclosing module.function) of each watched call or raise in a source file."""
    module = path.stem

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and where == module:
                inner = f"{module}.{child.name}"
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            for top in sorted({module.split(".")[0] for module in modules} & set(IMPORTS)):
                yield f"import {top}", inner
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and f"raise {exc.id}" in HOMES:
                    yield f"raise {exc.id}", inner
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                target, attr = child.func.value, child.func.attr
                if isinstance(target, ast.Name) and target.id == "json" and f"json.{attr}" in HOMES:
                    yield f"json.{attr}", inner
                elif f".{attr}" in HOMES:
                    yield f".{attr}", inner
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), module)


def test_file_io_and_json_have_one_home_each():
    """Also: VariableCountError is raised only by dataset.check_design, and
    numpy and dataclasses are imported nowhere."""
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path))
    assert calls == sorted(HOMES.items())


def _unchecked_builds(path: Path):
    """module.Class.function of each mention of tuple.__new__ in a source file."""

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and (getattr(child.value, "id", None), child.attr) == ("tuple", "__new__"):
                yield where
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def test_records_skip_their_checks_in_one_place():
    """A record built by tuple.__new__ skips its class's _validate. Only the
    panel reader's row loop does so, where a measurement showed it pays; any
    other such build is an unchecked fast path."""
    builds = {where for path in sorted(PACKAGE.rglob("*.py")) for where in _unchecked_builds(path)}
    assert builds == UNCHECKED_BUILDS


def _powers(path: Path):
    """(line, source) of each ** 2 and each call of pow or math.pow in a source file."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(exponent, ast.Constant) and exponent.value == 2:
                yield node.lineno, ast.get_source_segment(source, node)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pow":
            yield node.lineno, ast.get_source_segment(source, node)


def test_every_square_is_a_product():
    """A square has one form, x * x. No module under src/ writes ** 2 or calls
    pow or math.pow: both go to the C library's pow, which can round x ** 2
    differently from the IEEE product x * x in the last bit, so a fit's bits
    would follow the host. Exact constant folds such as 2.0**480 stay."""
    powers = {(path.name, *power) for path in sorted(PACKAGE.rglob("*.py")) for power in _powers(path)}
    assert powers == set()


def test_package_imports_only_the_standard_library():
    """Every import under src/, at any depth, names a standard-library module or the
    package itself, so installing it needs no runtime dependency."""
    outside = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"distress_lda"}}
    assert outside == set()


def test_no_module_imports_another_modules_private_name():
    """A name with a leading underscore is private to its module: no module under
    src/ imports one from another, as `from .module import _name` or from distress_lda.module."""
    private = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level > 0 or node.module.split(".")[0] == "distress_lda":
                private |= {(path.name, node.module, alias.name)
                            for alias in node.names if alias.name.startswith("_")}
    assert private == set()


# Prints, as JSON, what the numerics outside the fit give on a score table and
# on the reference model; with the argument "blocked", numpy cannot be imported.
_NUMERICS = """
import json, sys
from records import astuple
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
from distress_lda import box_m_from_model, box_m_test, eigenvalue_from_scores, solve_spd, wilks_test
from distress_lda.fixtures import load_reference_model
scores = json.loads(sys.argv[1])
model, _stats = load_reference_model()
print(json.dumps({
    "solve_spd": solve_spd(model.pooled_correlation, [model.standardized[v] for v in model.variables]),
    "eigenvalue": eigenvalue_from_scores(scores),
    "box_m_test": astuple(box_m_test(scores)),
    "wilks_test": astuple(wilks_test(model)),
    "box_m_from_model": astuple(box_m_from_model(model)),
}))
"""


def test_numerics_outside_the_fit_run_without_numpy(score_table):
    """solve_spd and the diagnostics run with numpy blocked, to the same bits."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(TESTS)])}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _NUMERICS, json.dumps(score_table), numpy],
            capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
        )
        for numpy in ("blocked", "allowed")
    ]
    assert [proc.returncode for proc in outputs] == [0, 0], [proc.stderr for proc in outputs]
    assert outputs[0].stdout == outputs[1].stdout


def test_all_lists_what_init_imports():
    """__all__ and the names __init__ imports are one list, declared twice."""
    import distress_lda

    imported = {
        name
        for name, value in vars(distress_lda).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(distress_lda.__all__) == sorted(imported)
    assert len(set(distress_lda.__all__)) == len(distress_lda.__all__)


def test_bench_reaches_what_it_calls(monkeypatch):
    """The bench's tracer resolves every name it times, and one panel-800 op
    passes its own check, untraced and traced, with the traced op's counts
    read off the report: a renamed function or a reshaped report fails here,
    not at bench time."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    panel = workloads.Panel800(0, False)
    try:
        assert panel.check(0, panel.op(0)) == []
        with tracer.installed(0):
            output = panel.op(0)
        assert panel.check(0, output) == []
    finally:
        panel.close()
    years = output[-1]["years"]
    assert tracer.counts[0]["classification.scored"] == sum(y["total"] for y in years)
    assert tracer.counts[0]["classification.grey"] == sum(y["counts"]["grey"] for y in years)


def test_readme_python_blocks_run(tmp_path):
    """Each python block of the README runs on the package alone, and the library
    example prints one line per evaluated year of the bundled panels."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    years = []
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True, text=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        years += re.findall(r"^(\d{4}) \d+%$", proc.stdout, re.M)
    assert years == [str(year) for year in range(2012, 2021)]
