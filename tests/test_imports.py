"""The runtime imports only the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parent.parent / "src" / "wdcheck"


def _absolute_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_is_stdlib_only():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [(path.name, name) for path in sources for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
