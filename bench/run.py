"""Seeded end-to-end benchmark of wdcheck: load -> close -> check -> render.

Usage, from the root of a checkout:

    python3 bench/run.py --workload family --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

For one workload (``family``, ``constraint-dump`` or ``taxonomy``; see
``bench/metrics.json``) the run generates the input from the seed and checks
it once, untimed, through ``wdcheck.cli.main``.  Then, for ``--seconds``, it
starts one fresh interpreter per repetition (``bench/worker.py``), which
drives the pipeline through wdcheck's public functions.  Every repetition is
checked against the violation counts, statement count and skip count that
the generator planted; the first is also compared byte for byte with the
CLI's JSON report.  A repetition that fails any check counts toward
``error_rate``.

``--trace 0`` reports the end-to-end metrics as means over repetitions, the
inverse of pipelines completed per second.  The host this was tuned on
swings between a fast and a ~40% slower speed for seconds at a time; the
mean moves in proportion to the time spent slow, where the median jumps
between the two speeds, and over ten seeds the mean spread about half as
much.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead; the spans
are written to ``.bench_work/trace-<workload>-<seed>.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  When ``BENCHMARK.json``
sits at the checkout root, ``metrics`` holds exactly the metrics it lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import spans as spanlib  # noqa: E402

MIN_REPS = 3
RUN_DEADLINE_S = 150  # children still running this long after the run began are killed
LAYERS = ("python", "ingest", "rules", "model", "formula", "templates",
          "catalog", "evaluator", "render")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "MARSHAL_LABELS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same set order in every repetition
    return env


def _run_child(argv: list, deadline=None, stdout_path=None) -> subprocess.CompletedProcess:
    """Run a child to completion; past the deadline, if any, kill it and wait for it."""
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    out = open(stdout_path, "w", encoding="utf-8") if stdout_path else subprocess.PIPE
    try:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, text=True,
                                env=_child_env(), cwd=ROOT)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            stderr = (stderr or "") + "\nkilled at the run's deadline"
    finally:
        if stdout_path:
            out.close()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def _reference_report(w: gen.Workload, input_path: Path, out_path: Path,
                      deadline: float) -> str:
    """Write the JSON report of `wdcheck check --format json`; return a problem or ''."""
    argv = ["check", "--input", str(input_path), "--format", "json"]
    if not w.close:
        argv.append("--no-close")
    code = ("import sys; from wdcheck.cli import main; "
            f"sys.exit(main({argv!r}))")
    res = _run_child([sys.executable, "-c", code], deadline, stdout_path=out_path)
    if res.returncode not in (0, 1):
        return f"`wdcheck check` exited {res.returncode}: {_last_line(res.stderr)}"
    return ""


def _last_line(text: str) -> str:
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else ""


class Repetition:
    def __init__(self, ok: bool, problem: str = "", out=None, wall: float = 0.0) -> None:
        self.ok = ok
        self.problem = problem
        self.out = out or {}
        self.wall = wall


def _repetition(w: gen.Workload, input_path: Path, trace: bool, report_path=None,
                deadline=None) -> Repetition:
    argv = [sys.executable, str(BENCH / "worker.py"), "--input", str(input_path),
            "--format", w.fmt, "--close", str(int(w.close)), "--trace", str(int(trace))]
    if report_path is not None:
        argv += ["--report-out", str(report_path)]
    t0 = time.perf_counter()
    res = _run_child(argv + ["--t0", repr(t0)], deadline)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        return Repetition(False, f"worker exited {res.returncode}: {_last_line(res.stderr)}",
                          wall=wall)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    problems = []
    if not Path(out["wdcheck_file"]).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"imported wdcheck from {out['wdcheck_file']}, not {SRC}")
    if out["counts"] != w.expected:
        problems.append(f"violations per template {out['counts']} != planted {w.expected}")
    if out["statements"] != w.statements:
        problems.append(f"loaded {out['statements']} statements, expected {w.statements}")
    if out["skipped"] != w.skipped:
        problems.append(f"ingest skipped {out['skipped']} snaks, expected {w.skipped}")
    if w.close and out.get("derived") != w.derived:
        problems.append(f"closure derived {out.get('derived')}, expected {w.derived}")
    return Repetition(not problems, "; ".join(problems), out, wall)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(reps: list) -> dict:
    """Mean of each end-to-end metric over the repetitions that passed the gate."""
    good = [r.out for r in reps if r.ok]
    samples = {
        "total_s": [o["done"] - o["t0"] for o in good],
        "setup_s": [o["ready"] - o["t0"] for o in good],
        "check_s": [o["done"] - o["ready"] for o in good],
        "peak_rss_mb": [o["peak_rss_mb"] for o in good],
    }
    units = {"total_s": "s", "setup_s": "s", "check_s": "s", "peak_rss_mb": "MB"}
    return {name: (statistics.mean(vals) if vals else 0.0, units[name], vals)
            for name, vals in samples.items()}


def _rep_layers(out: dict) -> dict:
    """Per-layer values from one traced repetition's spans."""
    spans = out["spans"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def attr(name: str, key: str, default=0):
        found = by_name.get(name)
        return found[-1]["attrs"].get(key, default) if found else default

    load = "ingest.load_wikidata_json" if "ingest.load_wikidata_json" in by_name else "ingest.load_native"
    v = {}
    v["ingest.load_s"] = (dur(load), "s")
    v["ingest.statements"] = (attr(load, "statements"), "count")
    v["ingest.skipped"] = (attr(load, "skipped"), "count")
    v["ingest.us_per_stmt"] = (dur(load) * 1e6 / max(v["ingest.statements"][0], 1), "us")

    closure_s = dur("rules.closure")
    derived = attr("rules.closure", "derived")
    v["rules.closure_s"] = (closure_s, "s")
    v["rules.rounds"] = (attr("rules.closure", "rounds"), "count")
    v["rules.derived"] = (derived, "count")
    by_rule = attr("rules.closure", "by_rule", {})
    for rule in out.get("rule_names", ()):
        v[f"rules.derived.{rule}"] = (by_rule.get(rule, 0), "count")
    v["rules.us_per_derived"] = (closure_s * 1e6 / derived if derived else 0.0, "us")

    v["model.copy_s"] = (dur("model.copy"), "s")
    v["model.active_domain_s"] = (dur("model.active_domain"), "s")
    v["model.attr_sets_s"] = (dur("model.attr_sets"), "s")

    evals = by_name.get("evaluator.evaluate", [])
    v["evaluator.safe_range_ms"] = (dur("evaluator.check_safe_range") * 1e3, "ms")
    v["evaluator.bindings"] = (sum(s["attrs"]["bindings"] for s in evals), "count")
    v["evaluator.queries"] = (len(evals), "count")

    check_s = dur("catalog.check")
    decomposed = (dur("catalog.extract_declarations") + dur("catalog.derive_violation_queries")
                  + dur("evaluator.check_safe_range") + dur("evaluator.evaluate"))
    v["catalog.check_s"] = (check_s, "s")
    v["catalog.extract_s"] = (dur("catalog.extract_declarations"), "s")
    v["catalog.derive_ms"] = (dur("catalog.derive_violation_queries") * 1e3, "ms")
    v["catalog.self_s"] = (check_s - decomposed, "s")
    v["catalog.declarations"] = (attr("catalog.extract_declarations", "declarations"), "count")
    for s in by_name.get("catalog.template", ()):
        v[f"catalog.template_s.{s['attrs']['template']}"] = (s["end"] - s["start"], "s")

    v["formula.catalog_parse_ms"] = (dur("formula.parse_catalog") * 1e3, "ms")
    v["templates.build_ms"] = (dur("templates.builtin_templates") * 1e3, "ms")
    v["render.json_s"] = (dur("render.json"), "s")
    v["render.text_s"] = (dur("render.text"), "s")
    v["render.bytes"] = (attr("render.json", "bytes") + attr("render.text", "bytes"), "bytes")

    own = spanlib.self_times(spans)
    per_layer = defaultdict(float)
    for s in spans:
        per_layer[s["name"].split(".", 1)[0]] += own[s["id"]]
    for name in LAYERS:
        v[f"self_s.{name}"] = (per_layer[name], "s")

    top = [s for s in spans if s["parent"] is None and s["name"] != "probe"]
    v["trace.pipeline_s"] = (out["done"] - out["t0"], "s")
    v["trace.coverage"] = (sum(s["end"] - s["start"] for s in top) / (out["done"] - out["t0"]),
                           "ratio")
    return v


def per_layer(untraced: list, traced: list) -> dict:
    good = [r.out for r in traced if r.ok]
    if not good:
        return {}
    values = defaultdict(list)
    units = {}
    for out in good:
        for name, (value, unit) in _rep_layers(out).items():
            values[name].append(value)
            units[name] = unit
    metrics = {name: (_median(vals), units[name], vals) for name, vals in values.items()}

    def pooled(pred) -> list:
        return sorted((s["end"] - s["start"]) * 1e3 for out in good for s in out["spans"]
                      if s["name"] == "evaluator.evaluate" and pred(s))

    times = pooled(lambda s: True)
    empty = pooled(lambda s: s["attrs"]["empty"])
    metrics["evaluator.query_ms.p50"] = (_median(times), "ms", times)
    metrics["evaluator.query_ms.p95"] = (_percentile(times, 0.95), "ms", times)
    metrics["evaluator.empty_query_ms.p50"] = (_median(empty), "ms", empty)
    base = [r.out["done"] - r.out["t0"] for r in untraced if r.ok]
    traced_total = metrics["trace.pipeline_s"][0]
    metrics["trace.overhead_s"] = (traced_total - _median(base), "s", base)
    return metrics


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = gen.GENERATORS[name](seed)
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        input_path = work / f"input{w.suffix}"
        input_path.write_text(w.text, encoding="utf-8")
        deadline = time.perf_counter() + RUN_DEADLINE_S
        reference = work / "cli.json"
        reference_problem = _reference_report(w, input_path, reference, deadline)

        reps, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            estimate = _median([r.wall for r in reps]) if reps else 0.0
            if len(reps) >= MIN_REPS * (1 + trace) and elapsed + estimate > seconds:
                break
            first = not reps
            traced_rep = trace and len(reps) % 2 == 1
            report = work / "report.json" if first else None
            rep = _repetition(w, input_path, traced_rep, report, deadline)
            if first and rep.ok and (reference_problem
                                     or report.read_bytes() != reference.read_bytes()):
                rep.ok = False
                rep.problem = reference_problem or (
                    "JSON report differs from `wdcheck check --format json`")
            reps.append(rep)
            (traced if traced_rep else untraced).append(rep)
        env = _environment()
        metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
        metrics["error_rate"] = (sum(not r.ok for r in reps) / len(reps), "ratio",
                                 [float(not r.ok) for r in reps])
        if trace:
            _write_trace(name, seed, traced, env)
        return {"workload": name, "seed": seed, "statements": w.statements,
                "attempted": len(reps), "failed": sum(not r.ok for r in reps),
                "problems": sorted({r.problem for r in reps if not r.ok}),
                "metrics": metrics, "env": env}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_trace(name: str, seed: int, traced: list, env: dict) -> None:
    spans = []
    for rep_id, rep in enumerate(traced):
        for s in rep.out.get("spans", ()):
            spans.append({**s, "rep": rep_id})
    path = WORK / f"trace-{name}-s{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "env": env,
                                "spans": spans}) + "\n", encoding="utf-8")


def _listed_metrics(trace: bool):
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return None
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['statements']} statements, {result['attempted']} repetitions, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    for name, (value, unit, samples) in sorted(result["metrics"].items()):
        q1, q3 = _quartiles(samples)
        print(f"  {name:42s} {value:14.6f} {unit:6s} n={len(samples)} "
              f"median={_median(samples):.6g} q1={q1:.6g} q3={q3:.6g}")
    env = result["env"]
    print(f"  env: python {env['python']}, nproc {env['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")


def _select(metrics: dict, listed, prefix: str = "") -> dict:
    names = sorted(metrics) if listed is None else listed
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {prefix + n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wdcheck" / "__init__.py").is_file():
        print(f"error: wdcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    names = sorted(gen.GENERATORS) if args.workload == "all" else [args.workload]
    listed = _listed_metrics(bool(args.trace))
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
        metrics = {}
        for r in results:
            _report(r)
            prefix = f"{r['workload']}." if args.workload == "all" else ""
            metrics.update(_select(r["metrics"], listed, prefix))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for r in results:
        path = WORK / f"result-{r['workload']}-s{r['seed']}-trace{args.trace}.json"
        path.write_text(json.dumps({**r, "metrics": {
            k: {"value": v[0], "unit": v[1], "samples": v[2]}
            for k, v in r["metrics"].items()}}, indent=1) + "\n", encoding="utf-8")
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
