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
semi-naively (Bancilhon and Ramakrishnan 1986) by the evaluator's planner:
the first round solves the whole body, and each later round solves it once
per distinct statement atom, with that atom reading only the statements the
previous round derived (``_Ctx.delta``).  The planner costs that atom by its
delta, so a cheap guard such as ``P31(?p, symmetric_property)`` still runs
first.  Derived facts are deduplicated against (subject, property, value,
qualifiers), and a head holds no function term that could compute a new
value every round, so closure terminates on any finite base.  The derived
facts do not depend on the evaluation order; their order, their ``d`` ids
and the ?y that a chain derivation names do.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Optional

from .evaluator import (
    EvalConfig,
    _binds,
    _Ctx,
    _resolve_term,
    check_safe_range,
    solve,
)
from .formula import (
    And,
    Atom,
    Formula,
    FormulaError,
    FuncApp,
    Implies,
    ObjVar,
    Rel,
    _nodes,
    free_variables,
    parse,
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
    Frozen,
    KnowledgeBase,
    RANK_ATTR,
    REFERENCE_ATTR,
    Record,
    Statement,
    StringVal,
    _new_tuple,
    is_property,
    make_statement,
)


class RuleError(Exception):
    pass


class Rule(Frozen):
    """body atoms (all positive) deriving one relational head atom."""

    _fields = ("name", "body", "head")  # no __slots__: the cached properties keep a __dict__

    def __new__(cls, name: str, body: tuple, head: Rel) -> "Rule":
        return _new_tuple(cls, (name, body, head))

    def __str__(self) -> str:
        return print_formula(Implies(self.conjunction, self.head))

    @cached_property
    def conjunction(self) -> And:
        """The body as one formula, so its plans are compiled once per closure."""
        return And(self.body)

    @cached_property
    def atoms(self) -> tuple:
        """The distinct statement atoms of the body, in body order."""
        return tuple(dict.fromkeys(g for g in self.body
                                   if isinstance(g, Rel) and not isinstance(g.pred, str)))


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
    if any(isinstance(node, FuncApp) for node in _nodes(head)):
        raise RuleError(f"rule {name!r} head may not hold a function term")
    problem = check_safe_range(body)
    if problem:
        raise RuleError(f"rule {name!r} body is not safe-range: {problem}")
    loose = free_variables(head) - free_variables(body)
    if loose:
        raise RuleError(
            f"rule {name!r} head variable(s) not bound in body: " + ", ".join(sorted(loose)))
    return Rule(name, body.items, head)


_HEADER = re.compile(r"(name|kind|rule)\s*:\s*(\S+)\s*$")


def parse_rules(text: str, labels=None) -> list:
    """The rules of a rule file: '---'-separated blocks, each header lines and a rule.

    Blank and '#' lines among the header lines are skipped.  Every block is
    parsed before any is validated as a rule.
    """
    blocks = []
    for chunk in re.split(r"^---\s*$", text, flags=re.MULTILINE):
        name = kind = None
        lines = chunk.splitlines()
        while lines:
            line = lines[0].strip()
            m = _HEADER.match(line)
            if m and m[1] == "kind":
                kind = m[2]
            elif m:
                name, kind = m[2], "rule" if m[1] == "rule" else kind
            elif line and not line.startswith("#"):
                break
            lines.pop(0)
        body = "\n".join(lines).strip()
        if not body:
            continue
        if name is None:
            raise FormulaError("formula block missing a 'name:' header")
        blocks.append((name, kind, parse(body, labels)))
    out = []
    for name, kind, f in blocks:
        if kind != "rule":
            raise RuleError(f"block {name!r} is not a rule: "
                            "give it a 'kind: rule' or 'rule: NAME' header")
        out.append(rule_from_formula(name, f))
    return out


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


class Derivation(Record):
    __slots__ = ("rule", "binding")  # binding: the body variable assignment that fired the rule

    def __init__(self, rule: str, binding: dict) -> None:
        self.rule = rule
        self.binding = binding


class ClosureResult(Record):
    __slots__ = ("kb", "provenance", "rounds")  # provenance: statement id -> Derivation

    def __init__(self, kb: KnowledgeBase, provenance: Optional[dict] = None, rounds: int = 0) -> None:
        self.kb = kb
        self.provenance = {} if provenance is None else provenance
        self.rounds = rounds

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


class _Chain(Frozen):
    """A rule read as guards & B(?x, ?y) & A(?y, ?z) -> B(?x, ?z)."""

    __slots__ = ()
    _fields = ("guards", "b", "a")

    def __new__(cls, guards: And, b: Rel, a: Rel) -> "_Chain":
        return _new_tuple(cls, (guards, b, a))


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


def _close_chain(kb: KnowledgeBase, rule: Rule, chain: _Chain, genv: dict, b: EntityId,
                 a: EntityId, record) -> bool:
    """Derive B(x, z) for every z that A+ reaches from a B-successor of x.

    One breadth-first search over the non-deprecated A edges per B subject;
    each new fact's ?y is the node the search reached it from, whose B fact
    is asserted or was derived before it.  A node whose B fact exists only
    as a deprecated statement is not expanded.  Returns True when that
    happened and the pass derived something: facts derived later in the
    pass may open a way around that node, so the rule must run again.
    """
    edges: dict = {}
    for st in kb.by_property.get(a, ()):
        if st.rank != "deprecated":
            edges.setdefault(st.subject, []).append(st.value)
    sources: dict = {}
    for st in kb.by_property.get(b, ()) if edges else ():
        if st.rank != "deprecated":
            sources.setdefault(st.subject, []).append(st.value)
    xn, yn, zn = chain.b.args[0].name, chain.a.args[0].name, chain.a.args[1].name
    blocked = derived = False
    for x, values in sources.items():
        # values z for which the fact B(x, z) with no qualifiers exists, of any rank
        have = {st.value for st in kb.by_prop_subject[(b, x)]
                if not st.qualifiers.without_pseudo()}
        queue = list(dict.fromkeys(values))
        reached = set(queue)
        for y in queue:
            for z in edges.get(y, ()):
                if z in have:
                    blocked = blocked or z not in reached
                    continue
                record(rule, {**genv, xn: x, yn: y, zn: z},
                       make_statement(kb.fresh_statement_id("d"), x, b, z))
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
    if not is_property(pred) or not isinstance(subj, EntityId) or value is None:
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
    if kb.has_fact(subj, pred, value, quals):
        return None
    return make_statement(kb.fresh_statement_id("d"), subj, pred, value, quals, rank, refs)


def closure(base: KnowledgeBase, rules: Optional[list] = None) -> ClosureResult:
    """Least fixpoint of the rules over a copy of the base KB; it is finite (module docstring)."""
    if rules is None:
        rules = builtin_ontology()
    cfg = EvalConfig()  # a deprecated statement never takes part in a derivation
    kb = base.copy()
    result = ClosureResult(kb=kb)
    shapes = [(rule, _chain(rule)) for rule in rules]
    generic = [rule for rule, chain in shapes if chain is None]
    chains = [(n, rule, chain) for n, (rule, chain) in enumerate(shapes) if chain is not None]
    closed: dict = {}  # (chain, B, A) -> numbers of B and A statements after its last pass
    delta: Optional[dict] = None
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
        fresh.clear()
        ctx = _Ctx(kb, cfg)
        if delta is None:  # the first round joins over everything
            pending = [(rule, env) for rule in generic
                       for env in solve(ctx, rule.conjunction, {})]
        else:  # each statement atom in turn reads only the last round's statements
            pending = [(rule, env) for rule in generic for atom in rule.atoms
                       for env in solve(_Ctx(kb, cfg, delta=(atom, delta)),
                                        rule.conjunction, {})]
        for rule, env in pending:
            st = _derived_statement(rule, env, kb)
            if st is not None:
                record(rule, env, st)
        for n, rule, chain in chains:
            # listed first: the passes below add statements to the indexes it reads
            for genv in list(solve(ctx, chain.guards, {})):
                b = _resolve_term(chain.b.pred, genv)
                a = _resolve_term(chain.a.pred, genv)
                if not is_property(b) or not is_property(a):
                    continue
                key = (n, b, a)
                if closed.get(key) == sizes(b, a):
                    continue  # no B or A fact arrived since its last pass
                if _close_chain(kb, rule, chain, genv, b, a, record):
                    closed.pop(key, None)
                else:
                    closed[key] = sizes(b, a)
        if not fresh:
            return result
        delta = {}
        for st in fresh:
            delta.setdefault(st.property, []).append(st)
