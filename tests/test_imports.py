"""The runtime imports only the standard library."""

import ast
import os
import pathlib
import subprocess
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


def test_no_module_imports_dataclasses():
    # a dataclass builds its methods by executing generated source, on every run's import
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if any(name.split(".")[0] == "dataclasses" for name in _absolute_imports(path))]
    assert users == []


def test_cli_import_loads_no_dataclasses_inspect_or_calendar():
    # -S: no site hooks, so every module loaded is one wdcheck's import asks for
    code = ("import sys; import wdcheck.cli; "
            "print(sorted({'dataclasses', 'inspect', 'calendar'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
