"""Constraint declaration extraction, violation checking and reporting.

A property constraint is declared as a statement
``property_constraint(P_x, <type item>) @ {params...}``.  Each template
variant is parsed and negated into a violation query once per process, with
the property ?p and the declaration's parameter set ?CQ left free; each
declaration then evaluates that query with ?p and ?CQ bound to its own
values.  Global templates (the non-property constraints plus asymmetry) have
no declarations and are evaluated as written.
"""

from __future__ import annotations

import json
import weakref
from typing import Iterator, NamedTuple, Optional

from . import labels as L
from .evaluator import EvalConfig, check_safe_range, evaluate
from .formula import (
    Formula,
    negate_to_violation_query,
    parse,
    substitute,
)
from .labels import DEFAULT_LABELS, LabelTable
from .model import (
    AttrSet,
    EntityId,
    KnowledgeBase,
    Record,
    StringVal,
    UnsupportedPattern,
    compile_pattern,
    is_property,
)
from .templates import ConstraintTemplate, Variant, builtin_templates


class CatalogError(Exception):
    pass


class Declaration(Record):
    """One property_constraint statement, decoded."""

    __slots__ = ("statement_id", "property", "type_item", "params", "severity", "exceptions")

    def __init__(self, statement_id: str, property: EntityId, type_item: EntityId,
                 params: AttrSet, severity: str = "regular", exceptions: tuple = ()) -> None:
        self.statement_id, self.type_item = statement_id, type_item
        self.property = property  # the constrained property
        self.params = params  # the declaration's qualifier set, pseudo pairs included
        self.severity = severity  # "mandatory", "suggestion" or "regular"
        self.exceptions = exceptions  # entity ids exempted via exception_to_constraint


class Violation(Record):
    __slots__ = ("template", "variant", "declaration_property", "params", "binding",
                 "severity", "suppressed", "message", "diagnostics")

    def __init__(self, template: str, variant: str, declaration_property: Optional[str],
                 params: list, binding: dict, severity: str, suppressed: bool, message: str,
                 diagnostics: Optional[list] = None) -> None:
        self.template, self.variant, self.severity = template, variant, severity
        self.declaration_property = declaration_property  # "P26" or None for global templates
        self.params = params  # [[attr, value], ...] as strings
        self.binding = binding  # variable -> printable value
        self.suppressed, self.message = suppressed, message
        self.diagnostics = [] if diagnostics is None else diagnostics

    def sort_key(self) -> tuple:
        return (self.template, self.declaration_property or "", self.variant,
                json.dumps(self.binding, sort_keys=True))


class CheckResult(Record):
    __slots__ = ("violations", "notes")  # notes: skipped declarations etc.

    def __init__(self, violations: Optional[list] = None, notes: Optional[list] = None) -> None:
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    @property
    def unsuppressed(self) -> list:
        return [v for v in self.violations if not v.suppressed]

    def summary(self) -> dict:
        by_severity: dict = {}
        for v in self.unsuppressed:
            by_severity[v.severity] = by_severity.get(v.severity, 0) + 1
        return {
            "total": len(self.unsuppressed),
            "suppressed": len(self.violations) - len(self.unsuppressed),
            "by_severity": by_severity,
        }


def extract_declarations(kb: KnowledgeBase) -> list:
    """Decode all property_constraint statements in the KB."""
    out = []
    for st in kb.facts_for(L.PROPERTY_CONSTRAINT):
        if not is_property(st.subject) or not isinstance(st.value, EntityId) \
                or is_property(st.value):
            continue
        params = st.qualifiers
        statuses = params.values_for(L.PARAM_STATUS)  # mandatory outranks suggestion
        severity = "mandatory" if L.MANDATORY_STATUS in statuses \
            else "suggestion" if L.SUGGESTION_STATUS in statuses else "regular"
        exceptions = tuple(v for v in params.values_for(L.PARAM_EXCEPTION)
                           if isinstance(v, EntityId))
        out.append(Declaration(st.id, st.subject, st.value, params, severity, exceptions))
    return out


# label table -> {variant text: violation query}; keyed by the table object,
# so a new table starts cold even when it reuses the address of a freed one
_QUERY_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# the variables a property template's query takes from its declaration
_PARAMS = frozenset(("p", "CQ"))


def _variant_query(tpl: ConstraintTemplate, var: Variant, labels: LabelTable) -> tuple:
    """(violation query, gate verdict) of a variant: its text parsed and negated once per
    label table, ?p and ?CQ left free for its declarations to bind, and None or why the
    query is not range-restricted once they are."""
    cache = _QUERY_CACHE.setdefault(labels, {})
    query = cache.get(var.text)
    if query is None:
        query = cache[var.text] = negate_to_violation_query(parse(var.text, labels))
    return query, check_safe_range(query, () if tpl.type_item is None else _PARAMS)


def derive_violation_queries(
    tpl: ConstraintTemplate,
    decl: Optional[Declaration] = None,
    labels: Optional[LabelTable] = None,
) -> list:
    """(variant, query) pairs of the enabled variants, with a declaration's ?p and
    ?CQ written in as constants."""
    if decl is None and tpl.type_item is not None:
        raise CatalogError(f"template {tpl.name} needs a declaration")
    labels = labels or DEFAULT_LABELS
    objmap, setmap = ({}, {}) if decl is None else ({"p": decl.property}, {"CQ": decl.params})
    return [(var, substitute(_variant_query(tpl, var, labels)[0], objmap, setmap))
            for var in tpl.variants if var.enabled]


class Instance(NamedTuple):
    """A violation query to evaluate, or (query None) a note on what was skipped.

    A property template's query keeps ?p and ?CQ free; ``params`` binds them
    to the declaration, for the evaluator and the oracle alike.
    """

    template: ConstraintTemplate
    declaration: Optional[Declaration]
    variant: Optional[Variant]
    query: Optional[Formula]
    note: Optional[str] = None

    @property
    def params(self) -> dict:
        decl = self.declaration
        return {} if decl is None else {"p": decl.property, "CQ": decl.params}


def instantiate(kb: KnowledgeBase, templates: list,
                labels: Optional[LabelTable] = None) -> Iterator[Instance]:
    """Every violation query of the templates over the KB's declarations.

    Global templates are instantiated once; a property template once per
    declaration of its type item.  Each enabled variant is parsed, negated
    and gated once; its declarations share the query.  Declarations that fail
    prevalidation and queries that are not range-restricted come out as
    notes, in order.
    """
    labels = labels or DEFAULT_LABELS
    declarations = extract_declarations(kb)
    for tpl in templates:
        decls = [None] if tpl.type_item is None else [
            d for d in declarations if d.type_item == tpl.type_item]
        for decl in decls:
            if decl is not None and (note := _prevalidate(tpl, decl)):
                yield Instance(tpl, decl, None, None, note)
                continue
            for var in tpl.variants:
                if not var.enabled:
                    continue
                query, problem = _variant_query(tpl, var, labels)
                if problem:
                    yield Instance(tpl, decl, var, None, f"skipped {tpl.name}/{var.name}: "
                                   f"query not range-restricted ({problem})")
                else:
                    yield Instance(tpl, decl, var, query)


def _params_list(params: AttrSet) -> list:
    return [[str(a), str(v)] for a, v in params.without_pseudo().sorted_pairs()]


def _canonical_binding(shown: dict, pairs: tuple) -> frozenset:
    """Order-normalize symmetric variable pairs of a printed binding for deduplication."""
    swapped = dict(shown)
    for a, b in pairs:
        if a in swapped and b in swapped:
            swapped[a], swapped[b] = swapped[b], swapped[a]
    return frozenset(min(tuple(sorted(shown.items())), tuple(sorted(swapped.items()))))


def check(
    kb: KnowledgeBase,
    templates: Optional[list] = None,
    labels: Optional[LabelTable] = None,
    cfg: Optional[EvalConfig] = None,
    max_violations: Optional[int] = None,
) -> CheckResult:
    """Evaluate all (selected) constraint templates over the KB."""
    cfg = cfg or EvalConfig()
    templates = builtin_templates() if templates is None else templates
    result = CheckResult()
    instances = instantiate(kb, templates, labels)
    for violation in _violations(kb, instances, cfg, result.notes):
        result.violations.append(violation)
        if max_violations is not None and len(result.violations) >= max_violations:
            # the cap is on violations: the rest still give their skip notes, unevaluated
            result.notes.extend(inst.note for inst in instances if inst.query is None)
            break
    result.violations.sort(key=Violation.sort_key)
    return result


def _prevalidate(tpl: ConstraintTemplate, decl: Declaration) -> Optional[str]:
    if tpl.name == "format":
        for a, v in decl.params.sorted_pairs():  # the first bad pattern in a fixed order
            if a == L.PARAM_REGEX and isinstance(v, StringVal):
                try:
                    compile_pattern(v.text)
                except UnsupportedPattern as exc:
                    return (f"skipped format declaration {decl.statement_id} "
                            f"on {decl.property}: {exc}")
    return None


def _violations(kb, instances, cfg, notes: list) -> Iterator[Violation]:
    """Evaluate each instance; skip notes go to notes as they come."""
    seen: set = set()
    for inst in instances:
        tpl, decl, var, query, note = inst
        if query is None:
            notes.append(note)
            continue
        params = _params_list(decl.params) if decl else []  # shared by its violations
        head = tpl.name + (f" ({var.name})" if var.name != "main" else "") \
            + (f" on {decl.property}" if decl else "")
        diagnostics: list = []
        for binding in evaluate(kb, query, cfg, diagnostics, inst.params):
            env = binding.as_dict()
            shown = {k: str(v) for k, v in binding.data}  # data is sorted by name
            if var.symmetric_pairs:
                # symmetric-pair dedup is scoped per template and declaration
                key = (tpl.name, decl and decl.statement_id, var.name,
                       _canonical_binding(shown, var.symmetric_pairs))
                if key in seen:
                    continue
                seen.add(key)
            suppressed = decl is not None and env.get(tpl.subject_var) in decl.exceptions
            values = ", ".join(f"?{k}={text}" for k, text in shown.items()
                               if not isinstance(env[k], AttrSet))
            yield Violation(
                template=tpl.name,
                variant=var.name,
                declaration_property=str(decl.property) if decl else None,
                params=params,
                binding=shown,
                severity=decl.severity if decl else "regular",
                suppressed=suppressed,
                message=f"{head} with {values}" if values else head,
                diagnostics=list(diagnostics),
            )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


_STR = json.encoder.encode_basestring_ascii  # the C string encoder json.dumps uses


def _block(opener: str, closer: str, members, pad: str) -> str:
    """A JSON container of written members, laid out as ``indent=2`` does at indentation pad."""
    if not members:
        return opener + closer
    inner = "\n" + pad + "  "
    return opener + inner + ("," + inner).join(members) + "\n" + pad + closer


def _violation_json(v: Violation) -> str:
    pad = "      "  # a violation's members
    return _block("{", "}", [
        '"binding": ' + _block("{", "}", [f"{_STR(k)}: {_STR(text)}"
                                          for k, text in sorted(v.binding.items())], pad),
        '"declaration_property": ' + json.dumps(v.declaration_property),  # or null
        '"diagnostics": ' + _block("[", "]", list(map(_STR, v.diagnostics)), pad),
        '"message": ' + _STR(v.message),
        '"params": ' + _block("[", "]", [_block("[", "]", list(map(_STR, pair)), pad + "  ")
                                         for pair in v.params], pad),
        '"severity": ' + _STR(v.severity),
        '"suppressed": ' + ("true" if v.suppressed else "false"),
        '"template": ' + _STR(v.template),
    ], "    ")


def render_json(result: CheckResult) -> str:
    """The report, byte for byte as ``json.dumps(doc, indent=2, sort_keys=True)``
    writes it, but with each string written by the C encoder: with an indent,
    json.dumps encodes in pure Python."""
    summary = json.dumps(result.summary(), indent=2, sort_keys=True)  # a few lines
    violations = _block("[", "]", list(map(_violation_json, result.violations)), "  ")
    return _block("{", "}", ['"summary": ' + summary.replace("\n", "\n  "),
                             '"violations": ' + violations], "")


def render_text(result: CheckResult) -> str:
    lines = []
    summary = result.summary()
    for v in result.violations:
        flag = "suppressed" if v.suppressed else v.severity
        lines.append(f"[{flag}] {v.message}")
    for note in result.notes:
        lines.append(f"note: {note}")
    lines.append(
        f"{summary['total']} violation(s), {summary['suppressed']} suppressed")
    for sev, count in sorted(summary["by_severity"].items()):
        lines.append(f"  {sev}: {count}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Catalog self-test
# ---------------------------------------------------------------------------


def validate_catalog(labels: Optional[LabelTable] = None) -> list:
    """Parse every template variant and safe-range check its violation query.

    Returns a list of problems; an empty list means the catalog is sound.
    """
    problems = []
    for tpl in builtin_templates():
        for var in tpl.variants:
            try:
                issue = _variant_query(tpl, var, labels or DEFAULT_LABELS)[1]
            except Exception as exc:
                issue = exc
            if issue:
                problems.append(f"{tpl.name}/{var.name}: {issue}")
    return problems
