"""Horn-style inference rules and forward-chaining closure.

A rule derives a new statement from a conjunction of positive atoms.  The
builtin ontology covers subclass transitivity, instance propagation along
subclass edges, subproperty lifting, and symmetric / transitive / reflexive
properties (declared via instance_of on the property entity).

``closure`` reaches the least fixpoint in rounds.  A rule of the shape
``guards & B(?x, ?y) & A(?y, ?z) -> B(?x, ?z)`` (no qualifier terms on the
two chain atoms, guards that bind the predicate variables without
mentioning ?x, ?y or ?z) closes by reachability: for each guard binding,
one breadth-first search over the non-deprecated A edges from every B
subject derives all of B o A+ at once (Nuutila 1995).  Subclass
transitivity, instance propagation and the transitive-property axiom have
this shape, and so may a ``--rules`` rule.  Such a rule runs again only
when another pass added A or B facts, or when a deprecated statement
stopped its search in a pass that derived facts.  Every other rule is joined
semi-naively (Bancilhon and Ramakrishnan 1986): after the first round one
body atom must match a statement derived in the previous round, and an atom
whose predicate is a variable is matched after its guard, so it reads only
the new statements of the properties the guard binds.  Derived facts are
deduplicated against (subject, property, value, qualifiers), so closure
terminates on any finite base.  The derived facts do not depend on the
evaluation order; their order, their ``d`` ids and the ?y that a chain
derivation names do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from .evaluator import (
    EvalConfig,
    _binds,
    _Ctx,
    _resolve_term,
    check_safe_range,
    match_rel,
    solve,
)
from .formula import (
    And,
    Atom,
    Formula,
    Implies,
    ObjVar,
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
    EntityId,
    KnowledgeBase,
    PropRef,
    RANK_ATTR,
    REFERENCE_ATTR,
    Statement,
    StringVal,
    as_entity,
    entity_value,
    make_statement,
)


class RuleError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """body atoms (all positive) deriving one relational head atom."""

    name: str
    body: tuple  # of atoms
    head: Rel

    def __str__(self) -> str:
        return print_formula(Implies(And(self.body), self.head))

    @cached_property
    def joins(self) -> tuple:
        """(atom, rest, guard, after) per distinct statement atom of the body, in body order.

        rest is every other conjunct; guard, those that bind the atom's
        predicate variables alone; after, the rest without the guard.
        """
        out, seen = [], set()
        for i, atom in enumerate(self.body):
            if not isinstance(atom, Rel) or isinstance(atom.pred, str) \
                    or (atom.pred, atom.args, atom.attrs) in seen:
                continue
            seen.add((atom.pred, atom.args, atom.attrs))
            rest = self.body[:i] + self.body[i + 1:]
            pred_vars = free_variables(atom.pred)
            own = free_variables(atom) - pred_vars
            guard = tuple(g for g in rest if pred_vars & free_variables(g)
                          and not own & free_variables(g)
                          and free_variables(g) <= _binds(g, frozenset()))
            if not pred_vars <= _binds(And(guard), frozenset()):
                guard = ()
            out.append((atom, And(rest), And(guard),
                        And(tuple(g for g in rest if g not in guard))))
        return tuple(out)


def rule_from_formula(name: str, f: Formula) -> Rule:
    """Validate an implication as a rule and package it."""
    if not isinstance(f, Implies):
        raise RuleError(f"rule {name!r} must be an implication")
    body = f.body if isinstance(f.body, And) else And((f.body,))
    if not all(isinstance(g, Atom) for g in body.items):
        raise RuleError(f"rule {name!r} body must be a conjunction of atoms")
    if not any(isinstance(g, Rel) and not isinstance(g.pred, str) for g in body.items):
        raise RuleError(f"rule {name!r} needs at least one statement atom in its body")
    head = f.head
    if not isinstance(head, Rel):
        raise RuleError(f"rule {name!r} head must be a relational atom")
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

    @property
    def derived_ids(self) -> list:
        """Ids of the derived statements, in derivation order."""
        return list(self.provenance)

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


def _fire(ctx: _Ctx, rule: Rule, delta: Optional[dict]) -> Iterator[dict]:
    """Bindings of the rule body, with one statement atom matched in delta.

    ``delta`` maps each property to the statements the last round derived
    for it; None joins over the whole KB.  A delta atom whose predicate is a
    variable is matched after its guard, the conjuncts that mention that
    variable and nothing else of the atom, so it reads only the delta
    statements of the properties the guard binds.
    """
    if delta is None:
        atom, rest, _guard, _after = rule.joins[0]  # one full join is enough
        for env0 in match_rel(ctx, atom, {}):
            yield from solve(ctx, rest, env0)
        return
    for atom, _rest, guard, after in rule.joins:
        for genv in solve(ctx, guard, {}):
            pred = _resolve_term(atom.pred, genv)
            if pred is None:
                statements = [st for sts in delta.values() for st in sts]
            else:
                statements = delta.get(as_entity(pred), ())
            for env0 in match_rel(ctx, atom, genv, statements=statements):
                yield from solve(ctx, after, env0)


@dataclass(frozen=True)
class _Chain:
    """A rule read as guards & B(?x, ?y) & A(?y, ?z) -> B(?x, ?z)."""

    guards: And
    b: Rel
    a: Rel


def _chain(rule: Rule) -> Optional[_Chain]:
    """The chain reading of a rule, or None when the rule has another shape.

    The chain atoms carry no qualifier terms, the head repeats B, and the
    guards bind the predicate variables by themselves without mentioning
    ?x, ?y or ?z.
    """
    head = rule.head
    x, z = head.args
    if head.attrs is not None or not isinstance(x, ObjVar) or not isinstance(z, ObjVar) \
            or x == z:
        return None
    items = rule.body
    rels = [i for i, g in enumerate(items) if isinstance(g, Rel)
            and not isinstance(g.pred, str) and g.attrs is None]
    for i in rels:
        b = items[i]
        y = b.args[1]
        if b.pred != head.pred or b.args[0] != x or not isinstance(y, ObjVar) or y in (x, z):
            continue
        for j in rels:
            a = items[j]
            if j == i or a.args != (y, z):
                continue
            guards = And(tuple(g for k, g in enumerate(items) if k not in (i, j)))
            guard_vars = free_variables(guards)
            if (guard_vars <= _binds(guards, frozenset())
                    and free_variables(a.pred) | free_variables(b.pred) <= guard_vars
                    and not guard_vars & {x.name, y.name, z.name}):
                return _Chain(guards, b, a)
    return None


def _close_chain(ctx: _Ctx, rule: Rule, chain: _Chain, genv: dict, b: EntityId,
                 a: EntityId, record) -> bool:
    """Derive B(x, z) for every z that A+ reaches from a B-successor of x.

    One breadth-first search over the non-deprecated A edges per B subject;
    each new fact's ?y is the node the search reached it from, whose B fact
    is asserted or was derived before it.  A node whose B fact exists only
    as a deprecated statement is not expanded.  Returns True when that
    happened and the pass derived something: facts derived later in the
    pass may open a way around that node, so the rule must run again.
    """
    kb = ctx.kb
    keep_deprecated = ctx.cfg.include_deprecated
    edges: dict = {}
    for st in kb.by_property.get(a, ()):
        if keep_deprecated or st.rank != "deprecated":
            edges.setdefault(entity_value(st.subject), []).append(st.value)
    sources: dict = {}
    for st in kb.by_property.get(b, ()) if edges else ():
        if keep_deprecated or st.rank != "deprecated":
            sources.setdefault(st.subject, []).append(st.value)
    xn, yn, zn = chain.b.args[0].name, chain.a.args[0].name, chain.a.args[1].name
    blocked = derived = False
    for s, values in sources.items():
        x = entity_value(s)
        # values z for which the fact B(s, z) with no qualifiers exists, of any rank
        have = {st.value for st in kb.by_prop_subject[(b, s)]
                if not st.qualifiers.without_pseudo()}
        queue = list(dict.fromkeys(values))
        reached = set(queue)
        for y in queue:
            for z in edges.get(y, ()):
                if z in have:
                    blocked = blocked or z not in reached
                    continue
                record(rule, {**genv, xn: x, yn: y, zn: z},
                       make_statement(kb.fresh_statement_id("d"), s, b, z))
                derived = True
                have.add(z)
                if z not in reached:
                    reached.add(z)
                    queue.append(z)
    return blocked and derived


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
    shapes = [(rule, _chain(rule)) for rule in rules]
    generic = [rule for rule, chain in shapes if chain is None]
    chains = [(n, rule, chain) for n, (rule, chain) in enumerate(shapes) if chain is not None]
    closed: dict = {}  # (chain, B, A) -> numbers of B and A statements after its last pass
    delta: Optional[dict] = None  # first round joins over everything
    fresh: list = []

    def record(rule: Rule, env: dict, st: Statement) -> None:
        kb.add_statement(st)
        shown = {k: v for k, v in env.items() if not isinstance(v, AttrSet)}
        result.provenance[st.id] = Derivation(rule.name, shown)
        fresh.append(st)

    def sizes(b: EntityId, a: EntityId) -> tuple:
        return len(kb.by_property.get(b, ())), len(kb.by_property.get(a, ()))

    while True:
        result.rounds += 1
        if max_rounds is not None and result.rounds > max_rounds:
            raise RuleError(f"closure did not settle within {max_rounds} rounds")
        fresh.clear()
        ctx = _Ctx(kb, cfg)
        pending = [(rule, env) for rule in generic for env in _fire(ctx, rule, delta)]
        for rule, env in pending:
            st = _derived_statement(rule, env, kb)
            if st is not None:
                record(rule, env, st)
        for n, rule, chain in chains:
            # listed first: the passes below add statements to the indexes it reads
            for genv in list(solve(ctx, chain.guards, {})):
                b = _resolve_term(chain.b.pred, genv)
                a = _resolve_term(chain.a.pred, genv)
                if not isinstance(b, PropRef) or not isinstance(a, PropRef):
                    continue
                key = (n, b.entity, a.entity)
                if closed.get(key) == sizes(b.entity, a.entity):
                    continue  # no B or A fact arrived since its last pass
                if _close_chain(ctx, rule, chain, genv, b.entity, a.entity, record):
                    closed.pop(key, None)
                else:
                    closed[key] = sizes(b.entity, a.entity)
        if not fresh:
            return result
        delta = {}
        for st in fresh:
            delta.setdefault(st.property, []).append(st)
