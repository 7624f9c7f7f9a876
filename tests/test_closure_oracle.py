"""The rule closure against naive fixpoints.

The first oracle shares no matching code with ``rules.closure``: it applies
the seven builtin rules to ``(subject, property, value, qualifiers, rank)``
tuples, every rule against every usable fact, until a pass adds nothing.
A fact is usable unless its rank is deprecated; a head is new unless some
fact, of any rank, already has its content key.

The second checks the semi-naive rounds of rules from a rule file: each
round it evaluates every whole body over the whole knowledge base.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wdcheck.evaluator import evaluate
from wdcheck.formula import And, Const, ObjVar
from wdcheck.labels import (
    INSTANCE_OF,
    REFLEXIVE_PROPERTY,
    SUBCLASS_OF,
    SUBPROPERTY_OF,
    SYMMETRIC_PROPERTY,
    TRANSITIVE_PROPERTY,
)
from wdcheck.model import (
    AnonConst,
    AttrSet,
    EMPTY_ATTRS,
    EntityId,
    KnowledgeBase,
    P,
    Q,
    StringVal,
    make_statement,
)
from wdcheck.rules import builtin_ontology, closure, parse_rules

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def _is_prop(v) -> bool:
    return isinstance(v, EntityId) and v.kind == "property"


def _heads(usable: list) -> list:
    """Every head the seven builtin rules give over the usable facts."""
    by_prop: dict = {}
    for f in usable:
        by_prop.setdefault(f[1], []).append(f)
    declared = {cls: {s for s, _p, v, _q, _r in by_prop.get(INSTANCE_OF, [])
                      if v == cls and _is_prop(s)}
                for cls in (SYMMETRIC_PROPERTY, TRANSITIVE_PROPERTY, REFLEXIVE_PROPERTY)}
    out = []

    def chain(b, a):  # b(?x, ?y) & a(?y, ?z) -> b(?x, ?z)
        for x, _, y, _, _ in by_prop.get(b, []):
            for y2, _, z, _, _ in by_prop.get(a, []):
                if y2 == y:
                    out.append((x, b, z, EMPTY_ATTRS, "normal"))

    chain(SUBCLASS_OF, SUBCLASS_OF)
    chain(INSTANCE_OF, SUBCLASS_OF)
    for p, _, q, _, _ in by_prop.get(SUBPROPERTY_OF, []):
        if _is_prop(p) and _is_prop(q):
            for s, _, o, quals, rank in by_prop.get(p, []):
                out.append((s, q, o, quals, rank))
    for p in declared[SYMMETRIC_PROPERTY]:
        for s, _, o, quals, rank in by_prop.get(p, []):
            if isinstance(o, EntityId):
                out.append((o, p, s, quals, rank))
    for p in declared[TRANSITIVE_PROPERTY]:
        chain(p, p)
    for p in declared[REFLEXIVE_PROPERTY]:
        for s, _, o, _, _ in by_prop.get(p, []):
            out.append((s, p, s, EMPTY_ATTRS, "normal"))
            if isinstance(o, EntityId):
                out.append((o, p, o, EMPTY_ATTRS, "normal"))
    return out


def naive_closure(facts: list) -> set:
    """Content keys the seven builtin rules derive from the facts, by naive iteration."""
    facts = list(facts)
    keys = {f[:4] for f in facts}
    derived = set()
    while True:
        added = False
        for head in _heads([f for f in facts if f[4] != "deprecated"]):
            if head[:4] not in keys:
                keys.add(head[:4])
                derived.add(head[:4])
                facts.append(head)
                added = True
        if not added:
            return derived


# ---------------------------------------------------------------------------
# Random knowledge bases
# ---------------------------------------------------------------------------

_P1, _P2 = P(1), P(2)
_SUBJECTS = [Q(1), Q(2), Q(3), Q(4), _P1]
_PROPERTIES = [SUBCLASS_OF, SUBCLASS_OF, INSTANCE_OF, _P1, _P2]
_VALUES = [Q(n) for n in (1, 2, 3, 4)] * 2 + [_P2, StringVal("s"), AnonConst(1)]
_QUALIFIERS = [EMPTY_ATTRS, EMPTY_ATTRS, AttrSet.of([(P(580), StringVal("q"))])]
_RANKS = ["normal", "normal", "preferred", "deprecated"]
# declarations on the two plain properties, and P1647 between them
_DECLARATIONS = [(p, INSTANCE_OF, cls)
                 for p in (_P1, _P2)
                 for cls in (SYMMETRIC_PROPERTY, TRANSITIVE_PROPERTY, REFLEXIVE_PROPERTY)]
_DECLARATIONS += [(_P1, SUBPROPERTY_OF, _P2), (_P2, SUBPROPERTY_OF, _P1),
                  (_P1, SUBPROPERTY_OF, SUBCLASS_OF)]

_edges = st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PROPERTIES),
                   st.sampled_from(_VALUES), st.sampled_from(_QUALIFIERS),
                   st.sampled_from(_RANKS), st.booleans())
_declarations = st.tuples(st.sampled_from(_DECLARATIONS), st.sampled_from(_QUALIFIERS),
                          st.sampled_from(_RANKS), st.just(False)).map(
                              lambda t: t[0] + t[1:])
_facts = st.tuples(st.lists(_edges, min_size=2, max_size=12),
                   st.lists(_declarations, max_size=3)).map(lambda t: t[0] + t[1])


def _kb(facts: list) -> KnowledgeBase:
    kb = KnowledgeBase()
    for i, (s, p, v, quals, rank, ref) in enumerate(facts):
        kb.add_statement(make_statement(f"s{i + 1}", s, p, v, quals, rank,
                                        ["r1"] if ref else []))
    return kb


def _tuples(kb: KnowledgeBase) -> list:
    return [(st.subject, st.property, st.value, st.qualifiers.without_pseudo(), st.rank)
            for st in kb.statements.values()]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _ground(term, binding: dict):
    if isinstance(term, Const):
        return term.value
    assert isinstance(term, ObjVar), term
    return binding[term.name]


def _premise_ok(result, rules: dict, sid: str, earlier: set) -> bool:
    """The derivation of sid holds in the closed KB, on asserted or earlier facts."""
    st = result.kb.statements[sid]
    d = result.provenance[sid]
    for atom in rules[d.rule].body:
        pred = _ground(atom.pred, d.binding)
        subj, value = _ground(atom.args[0], d.binding), _ground(atom.args[1], d.binding)
        found = False
        for prem in result.kb.statements.values():
            if (prem.rank == "deprecated" or prem.property != pred
                    or prem.subject != subj or prem.value != value):
                continue
            if atom.attrs is not None and (prem.qualifiers.without_pseudo()
                                           != st.qualifiers.without_pseudo()):
                continue
            if prem.id not in result.provenance or prem.id in earlier:
                found = True
                break
        if not found:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(_facts)
def test_closure_equals_naive_fixpoint(facts):
    kb = _kb(facts)
    result = closure(kb)
    got = {result.kb.statements[sid].content_key() for sid in result.derived_ids}
    assert got == naive_closure(_tuples(kb))
    assert set(result.provenance) == set(result.derived_ids)

    rules = {r.name: r for r in builtin_ontology()}
    earlier: set = set()
    for sid in result.derived_ids:
        assert _premise_ok(result, rules, sid, earlier), result.explain(sid)
        earlier.add(sid)


def test_oracle_blocks_a_deprecated_key():
    # a -> b -> c -> d with deprecated a -> c and b -> d: no split of a -> d
    # has two usable premises, so a -> d is not derived
    a, b, c, d = Q(1), Q(2), Q(3), Q(4)
    facts = [(a, SUBCLASS_OF, b, EMPTY_ATTRS, "normal"),
             (b, SUBCLASS_OF, c, EMPTY_ATTRS, "normal"),
             (c, SUBCLASS_OF, d, EMPTY_ATTRS, "normal"),
             (a, SUBCLASS_OF, c, EMPTY_ATTRS, "deprecated"),
             (b, SUBCLASS_OF, d, EMPTY_ATTRS, "deprecated")]
    assert naive_closure(facts) == set()
    kb = _kb([f + (False,) for f in facts])
    assert closure(kb).derived_ids == []


# ---------------------------------------------------------------------------
# Rules from a rule file
# ---------------------------------------------------------------------------

# each head feeds a body, so later rounds join over derived facts
_FILE_RULES = parse_rules("""
rule: unguarded
?p(?x, ?y) -> P5(?y, ?x)
---
rule: three-atom-join
P1(?x, ?y) & P2(?y, ?z) & P1(?z, ?w) -> P2(?x, ?w)
---
rule: qualified
?q(?s, ?o)@?S & (P580 : ?d) in ?S -> P1(?o, ?s)@?S
---
rule: repeated-atom
P1(?x, ?y) & P2(?y, ?z) & P1(?x, ?y) -> P1(?z, ?x)
""")


def naive_rule_closure(kb: KnowledgeBase, rules: list) -> set:
    """Content keys the rules derive, evaluating each whole body every round."""
    kb = kb.copy()
    derived = set()
    while True:
        heads = []
        for rule in rules:
            head = rule.head
            for b in evaluate(kb, And(rule.body)):
                env = b.as_dict()
                quals = EMPTY_ATTRS if head.attrs is None else env[head.attrs.name]
                heads.append((_ground(head.pred, env), _ground(head.args[0], env),
                              _ground(head.args[1], env), quals.without_pseudo()))
        added = False
        for pred, subj, value, quals in heads:
            if isinstance(subj, EntityId) and not kb.has_fact(subj, pred, value, quals):
                st = make_statement(kb.fresh_statement_id("d"), subj, pred, value, quals)
                kb.add_statement(st)
                derived.add(st.content_key())
                added = True
        if not added:
            return derived


@settings(max_examples=200, deadline=None)
@given(_facts, st.sets(st.sampled_from(range(len(_FILE_RULES))), min_size=1))
def test_file_rules_closure_equals_naive_fixpoint(facts, chosen):
    rules = [_FILE_RULES[i] for i in sorted(chosen)]
    kb = _kb(facts)
    result = closure(kb, rules)
    got = {result.kb.statements[sid].content_key() for sid in result.derived_ids}
    assert got == naive_rule_closure(kb, rules)
