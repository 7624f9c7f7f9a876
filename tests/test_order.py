"""A report does not depend on the order of the input's lines.

Each input is checked as written and with its lines reordered; ``check``
must print the same text and JSON reports, byte for byte, and exit with the
same code.  Printed forms of equal quantities (``1`` and ``1.0``) are left
out: the inputs here have none.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from wdcheck.cli import main

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def _bench_gen():
    """bench/gen.py, imported from its file without adding bench/ to the path."""
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # a dataclass needs its module registered
    return module


def _orders(lines: list, shuffles: int, reverse: bool) -> list:
    """The reordered copies of lines: reversed, if asked, and a number of seeded shuffles."""
    out = [lines[::-1]] if reverse else []
    for seed in range(shuffles):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        out.append(shuffled)
    return out


def _reports(capsys, tmp_path, lines: list) -> tuple:
    """(exit code, text report, JSON report) of check on the lines."""
    path = tmp_path / "input.native"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    codes, reports = [], []
    for fmt in ("text", "json"):
        codes.append(main(["check", "--format", fmt, "--input", str(path)]))
        reports.append(capsys.readouterr().out)
    assert codes[0] == codes[1]
    return (codes[0], *reports)


def _assert_order_free(capsys, tmp_path, text: str, shuffles: int, reverse: bool) -> tuple:
    lines = [line for line in text.splitlines() if line.strip()]
    first = _reports(capsys, tmp_path, lines)
    for reordered in _orders(lines, shuffles, reverse):
        assert _reports(capsys, tmp_path, reordered) == first
    return first


def test_exception_pair_in_either_order(capsys, tmp_path):
    # Q1 is an exception and Q2 is not: the pair shows on Q2's page, so it is not suppressed
    code, text, _ = _assert_order_free(capsys, tmp_path, (
        'P2302(P214, Q21502410) @ {P2303: Q1}\nP214(Q1, "x")\nP214(Q2, "x")\n'), 0, True)
    assert code == 1
    assert text.startswith('[regular] distinct_values on P214 with ?o1="x", ?o2="x", '
                           '?s1=Q1, ?s2=Q2\n')


@pytest.mark.parametrize("name", ["family_s1", "taxonomy_s1"])
def test_fixture_lines_in_any_order(capsys, tmp_path, name):
    text = (FIXTURES / f"{name}.native").read_text(encoding="utf-8")
    _assert_order_free(capsys, tmp_path, text, 3, True)


@pytest.mark.parametrize("workload", ["family", "taxonomy"])
def test_bench_input_in_any_order(capsys, tmp_path, workload):
    text = getattr(_bench_gen(), workload)(1).text
    _assert_order_free(capsys, tmp_path, text, 3, False)
