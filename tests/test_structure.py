"""Source structure: file I/O and the JSON format each live in one function."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distress_lda"

# Each call that reads, writes or formats a file, and the one function allowed to make it.
HOMES = {
    "json.loads": "model_io.parse_json",
    "json.dumps": "model_io.json_text",
    ".write_text": "model_io.write_json",
    ".read_bytes": "dataset.read_text",
}


def _calls(path: Path):
    """(call name, enclosing module.function) of each watched call in a source file."""
    module = path.stem

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and where == module:
                inner = f"{module}.{child.name}"
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                target, attr = child.func.value, child.func.attr
                if isinstance(target, ast.Name) and target.id == "json" and f"json.{attr}" in HOMES:
                    yield f"json.{attr}", inner
                elif f".{attr}" in HOMES:
                    yield f".{attr}", inner
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), module)


def test_file_io_and_json_have_one_home_each():
    calls = sorted(call for path in sorted(PACKAGE.glob("*.py")) for call in _calls(path))
    assert calls == sorted(HOMES.items())
