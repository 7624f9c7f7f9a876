"""Horn-style inference rules and forward-chaining closure.

A rule derives a new statement from a conjunction of positive atoms.  The
builtin ontology covers subclass transitivity, instance propagation along
subclass edges, subproperty lifting, and symmetric / transitive / reflexive
properties (declared via instance_of on the property entity).

``closure`` runs semi-naive forward chaining: after the first round only
statements derived in the previous round are allowed to match one body atom,
which keeps rounds from redoing old joins.  Derived facts are deduplicated
against (subject, property, value, qualifiers), so closure reaches a least
fixpoint and terminates on any finite base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .evaluator import EvalConfig, _Ctx, _resolve_term, _satisfy_and, check_safe_range, match_rel
from .formula import (
    And,
    AtomF,
    Formula,
    Implies,
    Rel,
    free_variables,
    parse,
    parse_blocks,
    print_formula,
)
from .labels import (
    DEFAULT_LABELS,
    INSTANCE_OF,
    REFLEXIVE_PROPERTY,
    SUBCLASS_OF,
    SUBPROPERTY_OF,
    SYMMETRIC_PROPERTY,
    TRANSITIVE_PROPERTY,
)
from .model import (
    AttrSet,
    EMPTY_ATTRS,
    KnowledgeBase,
    PropRef,
    RANK_ATTR,
    REFERENCE_ATTR,
    Statement,
    StringVal,
    as_entity,
    make_statement,
)


class RuleError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """body atoms (all positive) deriving one relational head atom."""

    name: str
    body: tuple  # of AtomF
    head: Rel

    def __str__(self) -> str:
        return print_formula(Implies(And(self.body), AtomF(self.head)))


def rule_from_formula(name: str, f: Formula) -> Rule:
    """Validate an implication as a rule and package it."""
    if not isinstance(f, Implies):
        raise RuleError(f"rule {name!r} must be an implication")
    body = f.body if isinstance(f.body, And) else And((f.body,))
    if not all(isinstance(g, AtomF) for g in body.items):
        raise RuleError(f"rule {name!r} body must be a conjunction of atoms")
    if not any(isinstance(g.atom, Rel) and not isinstance(g.atom.pred, str) for g in body.items):
        raise RuleError(f"rule {name!r} needs at least one statement atom in its body")
    if not isinstance(f.head, AtomF) or not isinstance(f.head.atom, Rel):
        raise RuleError(f"rule {name!r} head must be a relational atom")
    head = f.head.atom
    if isinstance(head.pred, str):
        raise RuleError(f"rule {name!r} may not derive builtin facts")
    problem = check_safe_range(body)
    if problem:
        raise RuleError(f"rule {name!r} body is not safe-range: {problem}")
    loose = free_variables(head) - free_variables(body)
    if loose:
        raise RuleError(
            f"rule {name!r} head variable(s) not bound in body: " + ", ".join(sorted(loose)))
    return Rule(name, body.items, head)


def rules_from_blocks(blocks: list) -> list:
    out = []
    for b in blocks:
        if b.kind == "rule":
            out.append(rule_from_formula(b.name, b.formula))
    return out


def parse_rules(text: str, labels=None) -> list:
    return rules_from_blocks(parse_blocks(text, labels))


# ---------------------------------------------------------------------------
# Builtin ontology rules
# ---------------------------------------------------------------------------


def builtin_ontology() -> list:
    p31 = str(INSTANCE_OF)
    p279 = str(SUBCLASS_OF)
    p1647 = str(SUBPROPERTY_OF)
    texts = [
        ("subclass-transitivity",
         f"{p279}(?x, ?y) & {p279}(?y, ?z) -> {p279}(?x, ?z)"),
        ("instance-propagation",
         f"{p31}(?x, ?y) & {p279}(?y, ?z) -> {p31}(?x, ?z)"),
        ("subproperty-lifting",
         f"{p1647}(?p, ?q) & ?p(?s, ?o)@?S -> ?q(?s, ?o)@?S"),
        ("symmetric-property",
         f"{p31}(?p, {SYMMETRIC_PROPERTY}) & ?p(?x, ?y)@?S -> ?p(?y, ?x)@?S"),
        ("transitive-property",
         f"{p31}(?p, {TRANSITIVE_PROPERTY}) & ?p(?x, ?y) & ?p(?y, ?z) -> ?p(?x, ?z)"),
        ("reflexive-property-subject",
         f"{p31}(?p, {REFLEXIVE_PROPERTY}) & ?p(?x, ?y) -> ?p(?x, ?x)"),
        ("reflexive-property-object",
         f"{p31}(?p, {REFLEXIVE_PROPERTY}) & ?p(?x, ?y) -> ?p(?y, ?y)"),
    ]
    return [rule_from_formula(name, parse(text, DEFAULT_LABELS)) for name, text in texts]


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


@dataclass
class Derivation:
    rule: str
    binding: dict  # body variable assignment that fired the rule


@dataclass
class ClosureResult:
    kb: KnowledgeBase
    provenance: dict = field(default_factory=dict)  # statement id -> Derivation
    rounds: int = 0
    derived_ids: list = field(default_factory=list)

    def explain(self, statement_id: str) -> str:
        st = self.kb.statements.get(statement_id)
        if st is None:
            return f"{statement_id}: no such statement"
        head = f"{st.property}({st.subject}, {st.value})"
        d = self.provenance.get(statement_id)
        if d is None:
            return f"{statement_id}: {head} asserted in the base knowledge base"
        env = ", ".join(f"?{k}={v}" for k, v in sorted(d.binding.items()))
        return f"{statement_id}: {head} derived by rule {d.rule} with {env}"


def _fire(ctx: _Ctx, rule: Rule, delta: Optional[list]) -> Iterator[dict]:
    """Bindings of the rule body, with one statement atom matched in delta."""
    items = rule.body
    seen_positions = set()
    for i, item in enumerate(items):
        atom = item.atom
        if not isinstance(atom, Rel) or isinstance(atom.pred, str):
            continue
        key = (atom.pred, atom.args, atom.attrs)
        if key in seen_positions:
            continue
        seen_positions.add(key)
        rest = items[:i] + items[i + 1:]
        for env0 in match_rel(ctx, atom, {}, statements=delta):
            yield from _satisfy_and(ctx, rest, env0)
        if delta is None:
            return  # full join once is enough when unrestricted


def _derived_statement(rule: Rule, env: dict, kb: KnowledgeBase) -> Optional[Statement]:
    pred = _resolve_term(rule.head.pred, env)
    subj = _resolve_term(rule.head.args[0], env)
    value = _resolve_term(rule.head.args[1], env)
    if not isinstance(pred, PropRef):
        return None
    subj_ent = as_entity(subj) if subj is not None else None
    if subj_ent is None or value is None:
        return None
    quals, rank, refs = EMPTY_ATTRS, "normal", ()
    if rule.head.attrs is not None:
        copied = _resolve_term(rule.head.attrs, env)
        if not isinstance(copied, AttrSet):
            return None
        quals = copied.without_pseudo()
        rank = next((v.text for a, v in copied if a == RANK_ATTR and isinstance(v, StringVal)),
                    "normal")
        refs = sorted(v.text for a, v in copied
                      if a == REFERENCE_ATTR and isinstance(v, StringVal))
    if kb.has_fact(subj_ent, pred.entity, value, quals):
        return None
    return make_statement(kb.fresh_statement_id("d"), subj_ent, pred.entity, value, quals,
                          rank, refs)


def closure(
    base: KnowledgeBase,
    rules: Optional[list] = None,
    cfg: Optional[EvalConfig] = None,
    max_rounds: Optional[int] = None,
) -> ClosureResult:
    """Least fixpoint of the rules over a copy of the base KB."""
    if rules is None:
        rules = builtin_ontology()
    cfg = cfg or EvalConfig()
    kb = base.copy()
    result = ClosureResult(kb=kb)
    delta: Optional[list] = None  # first round joins over everything
    while True:
        result.rounds += 1
        if max_rounds is not None and result.rounds > max_rounds:
            raise RuleError(f"closure did not settle within {max_rounds} rounds")
        fresh: list = []
        ctx = _Ctx(kb, cfg)
        pending = [(rule, env) for rule in rules for env in _fire(ctx, rule, delta)]
        for rule, env in pending:
            st = _derived_statement(rule, env, kb)
            if st is None:
                continue
            kb.add_statement(st)
            shown = {k: v for k, v in env.items() if not isinstance(v, AttrSet)}
            result.provenance[st.id] = Derivation(rule.name, shown)
            result.derived_ids.append(st.id)
            fresh.append(st)
        if not fresh:
            return result
        delta = fresh
