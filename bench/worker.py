"""One benchmark repetition: load -> close -> check -> render, in this process.

Started by run.py in a fresh interpreter for every repetition, so the
interpreter start and the ``wdcheck`` import are part of what it measures.
It prints one JSON object on its last stdout line.

Untraced (``--trace 0``) it records only the phase boundaries:
``t0`` (the parent's clock just before it started this process), ``ready``
(KB loaded and closed) and ``done`` (both reports rendered).  Traced
(``--trace 1``) it also records a span around every call it makes into a
wdcheck module, then probes single layers on the ready KB after the
pipeline: a cold copy and domain build, a cold parse of the catalog, a
closure of the ready KB when the pipeline ran without one, and a decomposed
pass of the check (declarations, query derivation, safe-range test and
evaluation per query).  ``time.perf_counter`` reads the same
monotonic clock in every process on the platforms this runs on, so spans
and ``t0`` share one time base.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--format", choices=("native", "json"), required=True)
    ap.add_argument("--close", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report-out")
    args = ap.parse_args(argv)

    tr = Tracer(enabled=bool(args.trace))
    tr.record("python.start", args.t0, T_START)

    with tr.span("python.import"):
        import wdcheck
        from wdcheck import catalog, evaluator, formula, ingest, rules, templates
        from wdcheck.labels import LabelTable

    labels = LabelTable.from_environment()
    text = Path(args.input).read_text(encoding="utf-8")
    if args.format == "json":
        with tr.span("ingest.load_wikidata_json") as attrs:
            kb, stats = ingest.load_wikidata_json(text)
    else:
        with tr.span("ingest.load_native") as attrs:
            kb, stats = ingest.load_native(text, labels)
    attrs.update(statements=stats.statements, skipped=len(stats.skipped))
    closed = None
    if args.close:
        with tr.span("rules.builtin_ontology"):
            ontology = rules.builtin_ontology()
        with tr.span("rules.closure") as attrs:
            closed = rules.closure(kb, ontology)
        kb = closed.kb
        attrs.update(_closure_counts(closed))
    ready = time.perf_counter()

    with tr.span("catalog.check"):
        result = catalog.check(kb, templates.builtin_templates(), labels,
                               evaluator.EvalConfig())
    with tr.span("render.json") as attrs:
        report_json = catalog.render_json(result)
    attrs["bytes"] = len(report_json.encode())
    with tr.span("render.text") as attrs:
        report_text = catalog.render_text(result)
    attrs["bytes"] = len(report_text.encode())
    done = time.perf_counter()

    out = {
        "t0": args.t0, "ready": ready, "done": done,
        "wdcheck_file": wdcheck.__file__,
        "statements": stats.statements,
        "skipped": len(stats.skipped),
        "counts": dict(sorted(Counter(v.template for v in result.violations).items())),
        "violations": len(result.violations),
    }
    if closed is not None:
        out["derived"] = _closure_counts(closed)["by_rule"]
    if args.report_out:
        # the JSON report as `wdcheck check --format json` prints it
        Path(args.report_out).write_text(report_json + "\n", encoding="utf-8")

    if args.trace:
        with tr.span("probe"):
            _probe_layers(tr, kb, labels, not args.close,
                          catalog, evaluator, formula, rules, templates)
        out["spans"] = tr.spans
        out["rule_names"] = [r.name for r in rules.builtin_ontology()]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def _closure_counts(closed) -> dict:
    by_rule = Counter(d.rule for d in closed.provenance.values())
    return {"rounds": closed.rounds, "derived": len(closed.derived_ids),
            "by_rule": dict(sorted(by_rule.items()))}


def _probe_layers(tr, kb, labels, probe_closure, catalog, evaluator, formula,
                  rules, templates) -> None:
    """Time single layers on the ready KB, after the timed pipeline."""
    with tr.span("model.copy"):
        fresh = kb.copy()
    with tr.span("model.active_domain"):
        fresh.active_domain()
    with tr.span("model.attr_sets"):
        fresh.attr_sets()
    with tr.span("templates.builtin_templates"):
        catalog_templates = templates.builtin_templates()
    with tr.span("formula.parse_catalog") as attrs:
        n = 0
        for tpl in catalog_templates:
            for var in tpl.variants:
                if var.enabled:
                    formula.parse(var.text.replace("<K>", "2"), labels)
                    n += 1
    attrs["variants"] = n
    if probe_closure:
        # a workload that runs without closure still reports what one costs
        with tr.span("rules.builtin_ontology"):
            ontology = rules.builtin_ontology()
        with tr.span("rules.closure") as attrs:
            closed = rules.closure(kb, ontology)
        attrs.update(_closure_counts(closed))

    # The check again, one call at a time.  A new label table keeps the
    # catalog's per-label parse cache cold, as it is inside the timed check.
    labels = type(labels).from_environment()
    cfg = evaluator.EvalConfig()
    with tr.span("catalog.decomposed"):
        with tr.span("catalog.extract_declarations") as attrs:
            declarations = catalog.extract_declarations(kb)
        attrs["declarations"] = len(declarations)
        for tpl in catalog_templates:
            with tr.span("catalog.template", template=tpl.name):
                decls = [None] if tpl.type_item is None else [
                    d for d in declarations if d.type_item == tpl.type_item]
                for decl in decls:
                    with tr.span("catalog.derive_violation_queries"):
                        queries = catalog.derive_violation_queries(tpl, decl, labels)
                    for var, query in queries:
                        with tr.span("evaluator.check_safe_range"):
                            problem = evaluator.check_safe_range(query)
                        if problem:
                            continue
                        prop = None if decl is None else decl.property
                        empty = prop is not None and not kb.facts_for(prop)
                        with tr.span("evaluator.evaluate", template=tpl.name,
                                     variant=var.name,
                                     property=None if prop is None else str(prop),
                                     empty=empty) as attrs:
                            attrs["bindings"] = sum(
                                1 for _ in evaluator.evaluate(kb, query, cfg))


if __name__ == "__main__":
    sys.exit(main())
