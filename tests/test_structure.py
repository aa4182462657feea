"""Source structure: file I/O, the JSON format and the two-group design rule
each live in one function, the package imports only the standard library and
itself, and nothing imports numpy or dataclasses.
The package exports what __init__ imports, and the bench finds every name it calls."""
import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distress_lda"
BENCH = Path(__file__).resolve().parents[1] / "bench"
TESTS = Path(__file__).resolve().parent

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
            capture_output=True, text=True, env=env, timeout=60,
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
    passes its own check: a renamed function fails here, not at bench time."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    spans.Tracer()
    panel = workloads.Panel800(0, False)
    try:
        assert panel.check(0, panel.op(0)) == []
    finally:
        panel.close()
