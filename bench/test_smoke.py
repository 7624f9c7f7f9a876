"""Smoke test of the benchmark itself, at a tiny size.

Run from the checkout root:  python3 -m pytest -q bench/test_smoke.py

It is not part of the repository's test suite (pytest's ``testpaths`` only
names ``tests``).  It checks that the generators are deterministic, that a
repetition finds exactly the planted violations and fails when it does not,
that the traced run yields a well-formed span tree with every per-layer
metric ``BENCHMARK.json`` lists, and that ``bench/metrics.json`` describes
the same metrics and workloads as ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = 0.05
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOG = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))


def _digest_in_fresh_process(name: str, seed: int, hashseed: str) -> str:
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "w = gen.GENERATORS[sys.argv[2]](int(sys.argv[3]), float(sys.argv[4])); "
            "print(hashlib.sha256((w.text + repr(w.expected)).encode()).hexdigest())")
    res = subprocess.run([sys.executable, "-c", code, str(BENCH), name, str(seed), str(TINY)],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"})
    return res.stdout.strip()


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic(name):
    a, b = gen.GENERATORS[name](7, TINY), gen.GENERATORS[name](7, TINY)
    assert (a.text, a.expected, a.statements, a.skipped) == (b.text, b.expected, b.statements, b.skipped)
    assert gen.GENERATORS[name](8, TINY).text != a.text
    # set iteration order differs between hash seeds; the text must not
    assert _digest_in_fresh_process(name, 7, "1") == _digest_in_fresh_process(name, 7, "2")


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_sizes_do_not_depend_on_seed(name):
    a, b = gen.GENERATORS[name](1, TINY), gen.GENERATORS[name](2, TINY)
    assert (a.expected, a.skipped, a.derived) == (b.expected, b.skipped, b.derived)


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_planted_counts_are_found(name, tmp_path):
    w = gen.GENERATORS[name](3, TINY)
    assert w.expected, "every workload plants violations"
    path = tmp_path / f"input{w.suffix}"
    path.write_text(w.text, encoding="utf-8")
    rep = run._repetition(w, path, trace=False)
    assert rep.ok, rep.problem
    assert rep.out["counts"] == w.expected

    wrong = gen.GENERATORS[name](3, TINY)
    first = sorted(wrong.expected)[0]
    wrong.expected = {**wrong.expected, first: wrong.expected[first] + 1}
    rep = run._repetition(wrong, path, trace=False)
    assert not rep.ok and "planted" in rep.problem


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_traced_run_is_well_formed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(gen.GENERATORS, name,
                        lambda seed, f=gen.GENERATORS[name]: f(seed, TINY))
    result = run.run_workload(name, seed=5, seconds=0, trace=True)
    assert result["failed"] == 0, result["problems"]
    trace = json.loads((tmp_path / f"trace-{name}-s5.json").read_text(encoding="utf-8"))
    by_rep: dict = {}
    for s in trace["spans"]:
        by_rep.setdefault(s["rep"], []).append(s)
    assert by_rep
    for rep_spans in by_rep.values():
        assert spans.check_tree(rep_spans) == []
    measured = result["metrics"]
    for m in MANIFEST["per_layer"]:
        assert m["name"] in measured, m["name"]
        assert measured[m["name"]][1] == m["unit"], m["name"]
    assert measured["evaluator.queries"][0] > 0
    assert measured["catalog.declarations"][0] > 0


def test_end_to_end_metrics_match_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(gen.GENERATORS, "taxonomy",
                        lambda seed, f=gen.GENERATORS["taxonomy"]: f(seed, TINY))
    result = run.run_workload("taxonomy", seed=5, seconds=0, trace=False)
    assert result["failed"] == 0, result["problems"]
    for m in MANIFEST["end_to_end"]:
        value, unit, samples = result["metrics"][m["name"]]
        assert unit == m["unit"] and value > 0 and len(samples) >= run.MIN_REPS


def test_metric_catalog_matches_manifest():
    documented = {m["name"]: m for m in CATALOG["metrics"]}
    for kind in ("end_to_end", "per_layer"):
        for m in MANIFEST[kind]:
            doc = documented[m["name"]]
            assert (doc["unit"], doc["better"], doc["kind"]) == (m["unit"], m["better"], kind)
    assert [w["name"] for w in CATALOG["workloads"]] == [w["name"] for w in MANIFEST["workloads"]]
    assert set(gen.GENERATORS) == {w["name"] for w in MANIFEST["workloads"]}


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "family",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
