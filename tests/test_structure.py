"""Source structure: file I/O, the JSON format, the two-group design rule and
numpy each live in one function, and the rest of the package runs without numpy."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distress_lda"

# Each call that reads, writes or formats a file, each raise of the design
# rule's error and each import of numpy, with the one function allowed to make it.
HOMES = {
    "import numpy": "lda_fit.fit_from_matrices",
    "json.loads": "model_io.parse_json",
    "json.dumps": "model_io.json_text",
    ".write_text": "model_io.write_json",
    ".read_bytes": "dataset.read_text",
    "raise VariableCountError": "dataset.check_design",
}


def _calls(path: Path):
    """(call name, enclosing module.function) of each watched call or raise in a source file."""
    module = path.stem

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and where == module:
                inner = f"{module}.{child.name}"
            if isinstance(child, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in child.names):
                yield "import numpy", inner
            if isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
                yield "import numpy", inner
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
    numpy is imported only by lda_fit.fit_from_matrices."""
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path))
    assert calls == sorted(HOMES.items())


# Prints, as JSON, what the numerics outside the fit give on a score table and
# on the reference model; with the argument "blocked", numpy cannot be imported.
_NUMERICS = """
import dataclasses, json, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
from distress_lda import box_m_from_model, box_m_test, eigenvalue_from_scores, solve_spd, wilks_test
from distress_lda.fixtures import load_reference_model
scores = json.loads(sys.argv[1])
model, _stats = load_reference_model()
print(json.dumps({
    "solve_spd": solve_spd(model.pooled_correlation, [model.standardized[v] for v in model.variables]),
    "eigenvalue": eigenvalue_from_scores(scores),
    "box_m_test": dataclasses.astuple(box_m_test(scores)),
    "wilks_test": dataclasses.astuple(wilks_test(model)),
    "box_m_from_model": dataclasses.astuple(box_m_from_model(model)),
}))
"""


def test_numerics_outside_the_fit_run_without_numpy(score_table):
    """solve_spd and the diagnostics run with numpy blocked, to the same bits."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _NUMERICS, json.dumps(score_table), numpy],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for numpy in ("blocked", "allowed")
    ]
    assert [proc.returncode for proc in outputs] == [0, 0], [proc.stderr for proc in outputs]
    assert outputs[0].stdout == outputs[1].stdout
