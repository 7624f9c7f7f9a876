"""Command line driver.

Exit codes: 0 clean (no unsuppressed violations), 1 violations found,
2 usage, processing or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .catalog import (
    builtin_templates,
    check,
    render_json,
    render_text,
    validate_catalog,
)
from .evaluator import EvalConfig, EvalError, evaluate
from .formula import FormulaError, parse
from .ingest import IngestError, export_native, load_native, load_wikidata_json
from .labels import LabelTable
from .model import KnowledgeBase, ModelError
from .rules import RuleError, builtin_ontology, closure, parse_rules


class CliError(Exception):
    pass


def _read(path: str) -> str:
    """A file's text; one that cannot be read, or is not UTF-8, is a CliError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 at byte offset {exc.start}") from exc


def _load_inputs(specs: list, labels: LabelTable) -> KnowledgeBase:
    """Load every input into one KB, as if the inputs were one file."""
    if not specs:
        raise CliError("no --input given")
    kb = KnowledgeBase()
    for spec in specs:
        path, _, fmt = spec.rpartition(":")
        if fmt not in ("json", "native"):
            path, fmt = spec, None
        text = _read(path)
        if fmt is None:
            # native text never starts with a JSON object or array
            fmt = "json" if text.lstrip()[:1] in ("{", "[") else "native"
        try:
            _, stats = load_wikidata_json(text, kb) if fmt == "json" \
                else load_native(text, labels, kb)
        except (IngestError, json.JSONDecodeError) as exc:
            raise CliError(f"{path}: {exc}") from exc
        if stats.skipped:
            counts = Counter(reason for reason, _detail in stats.skipped)
            shown = ", ".join(f"{reason}: {n}" for reason, n in sorted(counts.items()))
            print(f"note: {path}: skipped {len(stats.skipped)} claim(s) ({shown})",
                  file=sys.stderr)
    return kb


def _load_rules(path, labels: LabelTable) -> list:
    rules = builtin_ontology()
    if path:
        rules.extend(parse_rules(_read(path), labels))
    return rules


def _prepare_kb(args, labels: LabelTable) -> KnowledgeBase:
    kb = _load_inputs(args.input, labels)
    if getattr(args, "close", True):
        kb = closure(kb, _load_rules(getattr(args, "rules", None), labels)).kb
    return kb


def _select_templates(args) -> list:
    templates = builtin_templates()
    if getattr(args, "non_property", False):
        templates = [t for t in templates if t.category == "non_property"]
    if getattr(args, "templates", None) is not None:
        wanted = {name.strip() for name in args.templates.split(",") if name.strip()}
        if not wanted:
            raise CliError("--templates names no template")
        known = {t.name for t in templates}
        missing = wanted - known
        if missing:
            raise CliError(f"unknown template(s): {', '.join(sorted(missing))}")
        templates = [t for t in templates if t.name in wanted]
    return templates


def cmd_check(args, labels: LabelTable) -> int:
    kb = _prepare_kb(args, labels)
    cfg = EvalConfig(include_deprecated=args.include_deprecated)
    templates = _select_templates(args)
    result = check(kb, templates, labels, cfg, max_violations=args.max_violations)
    out = render_json(result) if args.format == "json" else render_text(result)
    print(out, end="" if out.endswith("\n") else "\n")
    return 1 if result.unsuppressed else 0


def cmd_query(args, labels: LabelTable) -> int:
    kb = _prepare_kb(args, labels)
    cfg = EvalConfig(include_deprecated=args.include_deprecated,
                     max_bindings=args.max_bindings)
    f = parse(args.formula, labels)
    diagnostics: list = []
    rows = [b.as_dict() for b in evaluate(kb, f, cfg, diagnostics)]
    if diagnostics:  # a datatype error makes its atom false: say so, or "no bindings" misleads
        print(f"note: {len(diagnostics)} datatype diagnostic(s); first: {diagnostics[0]}",
              file=sys.stderr)
    if args.format == "json":
        print(json.dumps(
            [{k: str(v) for k, v in row.items()} for row in rows], indent=2))
    else:
        if not rows:
            print("no bindings")
        for row in rows:
            print(", ".join(f"?{k}={v}" for k, v in sorted(row.items())))
    return 0


def cmd_infer(args, labels: LabelTable) -> int:
    kb = _load_inputs(args.input, labels)
    result = closure(kb, _load_rules(args.rules, labels))
    if args.explain:
        for sid in result.derived_ids:
            print("# " + result.explain(sid))
    if args.derived_only:
        derived = KnowledgeBase()
        for sid in result.derived_ids:
            derived.add_statement(result.kb.statements[sid])
        print(export_native(derived), end="")
    else:
        print(export_native(result.kb), end="")
    return 0


def cmd_catalog(args, labels: LabelTable) -> int:
    problems = validate_catalog(labels) if args.self_test else []
    templates = builtin_templates()
    if args.format == "json":
        doc = [
            {
                "name": t.name,
                "type_item": str(t.type_item) if t.type_item else None,
                "category": t.category,
                "description": t.description,
                "variants": [
                    {"name": v.name, "enabled": v.enabled, "formula": v.text}
                    for v in t.variants
                ],
            }
            for t in templates
        ]
        print(json.dumps(doc, indent=2))
    else:
        for t in templates:
            shown = f"{t.name} constraint ({t.type_item})" if t.type_item else t.name
            print(f"{shown} [{t.category}]: {t.description}")
            for v in t.variants:
                mark = "" if v.enabled else " (disabled)"
                print(f"  - {v.name}{mark}")
    if problems:
        for p in problems:
            print(f"catalog problem: {p}", file=sys.stderr)
        return 2
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wdcheck",
        description="Constraint checking for Wikidata-style knowledge bases")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", action="append", default=[],
                       metavar="PATH[:json|native]",
                       help="knowledge base file; repeatable")

    def add_io(p):
        add_input(p)
        p.add_argument("--include-deprecated", action="store_true",
                       help="also match deprecated-rank statements")
        p.add_argument("--close", dest="close", action="store_true", default=True,
                       help="apply inference rules before checking (default)")
        p.add_argument("--no-close", dest="close", action="store_false")
        p.add_argument("--rules", metavar="FILE",
                       help="extra rule file applied on top of the builtin ontology")

    pc = sub.add_parser("check", help="report constraint violations")
    add_io(pc)
    pc.add_argument("--templates", metavar="NAMES",
                    help="comma-separated template names to run")
    pc.add_argument("--non-property", action="store_true",
                    help="run only the non-property constraint templates")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--max-violations", type=_positive_int, metavar="N")
    pc.set_defaults(func=cmd_check)

    pq = sub.add_parser("query", help="evaluate a formula against the KB")
    add_io(pq)
    pq.add_argument("formula")
    pq.add_argument("--format", choices=("text", "json"), default="text")
    pq.add_argument("--max-bindings", type=_positive_int, metavar="N")
    pq.set_defaults(func=cmd_query)

    pi = sub.add_parser("infer", help="print the rule closure in native format")
    add_input(pi)
    pi.add_argument("--rules", metavar="FILE")
    pi.add_argument("--explain", action="store_true",
                    help="print a provenance comment per derived fact")
    pi.add_argument("--derived-only", action="store_true",
                    help="print only derived facts, not the whole closure")
    pi.set_defaults(func=cmd_infer)

    pl = sub.add_parser("catalog", help="list and validate the template catalog")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.add_argument("--self-test", action="store_true",
                    help="parse, negate and safe-range check every variant")
    pl.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        labels = LabelTable.from_environment()
        return args.func(args, labels)
    except (CliError, IngestError, FormulaError, EvalError, RuleError,
            ModelError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the parser's; the evaluator names a plan's depth as an EvalError
        print("error: input nests deeper than Python's recursion limit allows", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as exit 1, "violations found"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
