"""Source structure: file I/O, the JSON format and the two-group design rule
each live in one function."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distress_lda"

# Each call that reads, writes or formats a file, and each raise of the design
# rule's error, with the one function allowed to make it.
HOMES = {
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
    """Also: VariableCountError is raised only by dataset.check_design."""
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path))
    assert calls == sorted(HOMES.items())
