"""Formula evaluation over a knowledge base.

``evaluate`` yields the bindings of a formula's free variables that satisfy
it.  It answers only safe-range formulas (``check_safe_range``), and answers
them by index lookups, never by enumerating the domain.  ``_binds`` is the
one binding analysis: the gate, the plans and the rule engine read it.  A
quantifier's variable is local to its body: the analysis, the gate and the
plans read the body with an outer variable of that name unbound, and the
gate refuses a quantified variable that the quantifier's witness (its body,
for ``forall`` the body's negation) cannot bind.

A formula node is compiled into a plan once for each set of variables that
are bound when it runs, and the plan is cached on the node (``_plan``).  The
plan fixes which conjuncts are ready and their cost classes, the projection
of each quantifier, the ``exists v . !g`` of each ``forall``, and the access
path of each statement atom (``_rel_path``): the one place that picks the
statements an atom reads, the semi-naive delta of a closure round included,
and that binds them with one environment per match.  One rule, ``_extend``,
matches each term of a statement or set atom that is neither known nor a
variable's first bare occurrence, and checks a function term once the whole
match is bound.  At run time a plan reads only candidate counts.  A
construct that cannot bind what it leaves open raises ``EvalError``.  The
gate's verdicts are cached on the node as well, so a template variant whose
?p and ?CQ are parameters (``evaluate``'s ``params``) is gated and planned
once, however many declarations run it.

Plans push their solutions into a continuation and stop when it returns True
(``_plan``): a conjunct's continuation runs the rest of the conjunction, and a
test (``!``, ``->``, ``forall``, a closed ``exists``) stops at its first witness.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, methodcaller
from typing import Iterator, Optional

from .formula import (
    And,
    Atom,
    Const,
    DtRel,
    Eq,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    Not,
    ObjVar,
    Or,
    Rel,
    SetLiteral,
    SetMember,
    SetVar,
    _Node,
    _children,
    free_variables,
    negate,
    print_formula,
)
from .model import (
    AttrSet,
    DATATYPE_RELATIONS,
    DatatypeError,
    Frozen,
    KnowledgeBase,
    Pseudo,
    Record,
    Statement,
    _new_tuple,
    datatype_function,
    witness_count,
)


class EvalError(Exception):
    pass


class UnsafeFormulaError(EvalError):
    pass


class Binding(Frozen):
    """An assignment of free variables to values / qualifier sets."""

    __slots__ = ()
    _fields = ("data",)  # sorted tuple of (name, Value-or-AttrSet)

    def __new__(cls, data: tuple) -> "Binding":
        return _new_tuple(cls, (data,))

    data = property(lambda self: tuple.__getitem__(self, 0))  # [] looks up a variable

    @staticmethod
    def of(env: dict) -> "Binding":
        return _new_tuple(Binding, (tuple(sorted(env.items())),))  # names are unique

    def as_dict(self) -> dict:
        return dict(self.data)

    def __getitem__(self, name: str):
        return dict(self.data)[name]

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self.data)


class EvalConfig(Record):
    __slots__ = ("max_bindings", "include_deprecated")

    def __init__(self, max_bindings: Optional[int] = None,
                 include_deprecated: bool = False) -> None:
        if max_bindings is not None and max_bindings < 1:
            raise ValueError("max_bindings must be at least 1 when bounded")
        self.max_bindings = max_bindings
        self.include_deprecated = include_deprecated


class _Ctx:
    """One evaluation: the KB, the config, the diagnostics and the delta.

    ``delta`` is None, or ``(atom, {property: statements})`` in a semi-naive
    closure round: that atom reads only the given statements.
    """

    def __init__(self, kb: KnowledgeBase, cfg: EvalConfig, delta: Optional[tuple] = None) -> None:
        self.kb = kb
        self.cfg = cfg
        self.diagnostics: list = []
        self.delta = delta


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _resolve_term(t, env: dict):
    """Ground value of a term under env, or None if a variable is unbound."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (ObjVar, SetVar)):
        return env.get(t.name)
    if isinstance(t, FuncApp):
        args = [_resolve_term(a, env) for a in t.args]
        return None if None in args else datatype_function(t.name, *args)
    if isinstance(t, SetLiteral):
        if t.ground is not None:
            return t.ground
        pairs = [(_resolve_term(a, env), _resolve_term(v, env)) for a, v in t.pairs]
        return None if any(None in pair for pair in pairs) else AttrSet.of(pairs)
    raise TypeError(t)


def _try_resolve(t, env: dict):
    """As _resolve_term, but None where a function is undefined: nothing equals it."""
    try:
        return _resolve_term(t, env)
    except DatatypeError:
        return None


def _value_of(t):
    """env -> the value of a term whose variables env binds, chosen once per term."""
    if isinstance(t, (ObjVar, SetVar)):
        return methodcaller("get", t.name)
    return (lambda env, v=t.value: v) if isinstance(t, Const) else lambda env: _try_resolve(t, env)


def _extend(terms: tuple, values: tuple, env: dict, late: tuple = ()) -> Optional[tuple]:
    """(env2, late2) under which each constant and bare variable equals its value (one
    new dict at most), or None; late2 adds each function term with the value it must
    equal once the whole match is bound (``_holds``)."""
    out = env
    for t, v in zip(terms, values):
        if isinstance(t, (ObjVar, SetVar)):
            if t.name not in out:
                if out is env:
                    out = dict(env)
                out[t.name] = v
            elif out[t.name] != v:
                return None
        elif isinstance(t, Const):
            if t.value != v:
                return None
        else:
            late += ((t, v),)
    return out, late


def _holds(env: dict, late: tuple) -> bool:
    """Whether each deferred function term equals its value; an undefined one equals nothing."""
    return all(_try_resolve(t, env) == v for t, v in late)


def _bijections(pairs: tuple, targets: list, env: dict, late: tuple, i: int = 0,
                used=frozenset()):
    """Extensions of env under which pairs[i:] map one to one onto the targets not yet
    used (as many as the pairs) and the deferred terms of late hold."""
    if i == len(pairs):
        if _holds(env, late):
            yield env
        return
    for j, target in enumerate(targets):
        m = None if j in used else _extend(pairs[i], target, env, late)
        if m is not None:
            yield from _bijections(pairs, targets, *m, i + 1, used | {j})


# ---------------------------------------------------------------------------
# Access paths: how each statement atom reads the KB, fixed at plan time
# ---------------------------------------------------------------------------


def _rel_path(rel: Rel, bound: frozenset, siblings: tuple):
    """rel's access path for environments that bind exactly bound: (read, run).

    A builtin atom ``no_value(a, b)`` or ``Commons_namespace(a, b)`` reads its
    table's rows (``KnowledgeBase``) as a statement atom with that name as a
    known predicate reads statements.  ``read(ctx, env)`` returns the
    candidates of the one index fixed here, and their number is rel's cost:
    the delta of a closure round that names rel; the subject, value or
    property index for a known predicate; the subject index, the
    ``_qualifier_key`` bucket or every statement for an open one.  ``run(ctx,
    env, k, candidates=None)`` is the atom's plan: it builds one environment
    per match and passes it to k.  A position that is a known value is tested
    unless the index keyed on it (all tested positions in one comparison,
    ``_tests``), and the first bare occurrence of a variable is bound.  Every
    other position (a repeat, a function term) and a literal's pairs, which
    ``_bijections`` maps one to one onto the statement's qualifiers, are
    matched by ``_extend``'s one rule.  The path is kept on rel for the
    variables of rel that bound holds and the qualifier key, all it reads.
    """
    key = _qualifier_key(rel, bound, siblings)
    memo = ("path", bound & free_variables(rel), key)
    if memo in rel._memo:
        return rel._memo[memo]
    pred_term = Const(rel.pred) if isinstance(rel.pred, str) else rel.pred
    terms = {"subject": rel.args[0], "value": rel.args[1], "property": pred_term}
    if isinstance(rel.attrs, SetVar):
        terms["qualifiers"] = rel.attrs
    known = {f: _value_of(t) for f, t in terms.items() if free_variables(t) <= bound}
    fresh, later = {}, []  # fresh: variable -> the field that binds it; later: left to _extend
    for f, t in terms.items():
        if f in known:
            continue
        if isinstance(t, (ObjVar, SetVar)) and t.name not in fresh:
            fresh[t.name] = f
        else:
            later.append((f, t))
    pred, subj, value = known.get("property"), known.get("subject"), known.get("value")
    if pred and (subj or value):
        other, p = subj or value, pred_term.value if isinstance(pred_term, Const) else None
        index, covered = ("by_prop_subject", "subject") if subj else ("by_prop_value", "value")
        lookup = (lambda env: (pred(env), other(env))) if p is None else (lambda env: (p, other(env)))
        covered = ("property", covered)
    else:
        index, lookup, covered = ("by_property", pred, ("property",)) if pred \
            else ("by_subject", subj, ("subject",)) if subj \
            else ("by_qualifier_attr", _value_of(key), ()) if key else (None, None, ())
    tests = _tests(known, [f for f in known if f not in covered])
    delta_tests = _tests(known, [f for f in known if f != "property"])
    lit = rel.attrs if isinstance(rel.attrs, SetLiteral) else None
    pairs = lit.pairs if lit is not None else ()
    # pseudo pairs of a statement (mirrored rank and references) count when the literal names one
    pseudo = any(isinstance(a, Const) and isinstance(a.value, Pseudo) for a, _v in pairs)
    later_fields, later_terms = zip(*later) if later else ((), ())

    def matches(st: Statement, out: dict):
        """out's extensions under which the later positions and the literal's pairs match st."""
        quals = () if lit is None else \
            (st.qualifiers if pseudo else st.qualifiers.without_pseudo()).sorted_pairs()
        m = _extend(later_terms, [getattr(st, f) for f in later_fields], out)
        return () if m is None or len(quals) != len(pairs) else _bijections(pairs, quals, *m)

    def read(ctx: _Ctx, env: dict):
        if ctx.delta is not None and ctx.delta[0] is rel:
            delta = ctx.delta[1]
            return delta.get(pred(env), ()) if pred else [st for sts in delta.values() for st in sts]
        if index is None:
            return ctx.kb.statements.values()
        return getattr(ctx.kb, index).get(lookup(env), ())

    def run(ctx: _Ctx, env: dict, k, candidates=None) -> bool:
        if candidates is None:
            candidates = read(ctx, env)
        if not candidates:
            return False
        tested, expect = delta_tests if ctx.delta is not None and ctx.delta[0] is rel else tests
        expected = tested and expect(env)
        keep_deprecated = ctx.cfg.include_deprecated
        for st in candidates:
            if st.rank == "deprecated" and not keep_deprecated \
                    or tested and tested(st) != expected:
                continue
            out = env
            if fresh:
                out = env.copy()
                for name, f in fresh.items():
                    out[name] = getattr(st, f)
            for out2 in (out,) if lit is None and not later else matches(st, out):
                if k(out2):
                    return True
        return False

    rel._memo[memo] = read, run
    return read, run


def _tests(known: dict, fields: list) -> tuple:
    """(tested, expect) for the fields a candidate is tested on: ``tested(st) !=
    expect(env)`` rejects it in one comparison, of bare values for one field and
    of tuples for several; (None, None) for no field."""
    if len(fields) < 2:
        return (attrgetter(fields[0]), known[fields[0]]) if fields else (None, None)
    expects = [known[f] for f in fields]
    return attrgetter(*fields), lambda env: tuple([get(env) for get in expects])


def _match_member(atom: SetMember, env: dict) -> Iterator[dict]:
    target = _try_resolve(atom.set, env)
    if target is None and free_variables(atom.set) - env.keys():
        raise EvalError("set atom evaluated before its set term was bound")
    for pair in target.sorted_pairs() if target is not None else ():
        m = _extend((atom.attr, atom.value), pair, env)
        if m is not None and (not m[1] or _holds(*m)):
            yield m[0]


def _match_eq(atom: Eq, env: dict) -> Iterator[dict]:
    lv, rv = _try_resolve(atom.left, env), _try_resolve(atom.right, env)
    if lv is not None and rv is not None:
        if lv == rv:
            yield env
        return
    side, value = (atom.right, lv) if lv is not None else (atom.left, rv)
    if value is not None and isinstance(side, (ObjVar, SetVar)):
        yield {**env, side.name: value}
    elif not any(v is None and free_variables(t) <= env.keys()
                 for t, v in ((atom.left, lv), (atom.right, rv))):
        raise EvalError("equality with both sides unbound")
    # else a side whose variables env binds is a function left undefined: it equals nothing


# ---------------------------------------------------------------------------
# Plans: each formula node compiled once per set of bound variables
# ---------------------------------------------------------------------------


def solve(ctx: _Ctx, f: Formula, env: dict, k=None) -> Iterator[dict]:
    """All extensions of env over f's free variables under which f holds, collected in
    the order f's plan finds them; or, given k, the plan's run with continuation k."""
    out: list = []
    try:
        _plan(f, frozenset(env))(ctx, env, k or out.append)  # append returns None: no stop
    except RecursionError:
        raise EvalError(f"cannot evaluate a formula nested {_depth(f)} levels deep: "
                        "its plan exceeds Python's recursion limit") from None
    return iter(out)


def _depth(f: Formula) -> int:
    """How deep f's plan nests: each conjunct runs inside the one before it."""
    depths = [] if isinstance(f, Atom) else [_depth(g) for g in _children(f)]
    return sum(depths) if isinstance(f, And) else 1 + max(depths, default=0)


def _plan(f: Formula, bound: frozenset):
    """f's plan for environments that bind exactly the variables in bound, compiled once.

    ``plan(ctx, env, k)`` calls ``k(env2)`` for each extension env2 of env under
    which f holds, in a fixed order, and returns True as soon as a call of k
    returns True ("stop"), else False once every candidate is tried.
    """
    run = f._memo.get(bound)
    if run is None:
        run = f._memo[bound] = _compile(f, bound)
    return run


def _stop(env: dict) -> bool:  # a test's continuation: its first witness decides it
    return True


def _compile(f: Formula, bound: frozenset):
    if isinstance(f, Atom):
        return _atom_plan(f, bound, ())
    if isinstance(f, And):
        return _and_plan(f.items, bound)
    if isinstance(f, Or):
        branches = [_plan(g, bound) for g in f.items]

        def run(ctx: _Ctx, env: dict, k) -> bool:
            for branch in branches:
                if branch(ctx, env, k):
                    return True
            return False
        return run
    if isinstance(f, Exists):
        return _exists_plan(f, bound)
    if free_variables(f) - bound:  # !, -> and forall test their variables, never bind them
        raise _unbound(f, free_variables(f) - bound)
    if isinstance(f, Not) and isinstance(f.body, Forall):  # !forall v.g == exists v.!g
        return _plan(_witness(f.body), bound)
    if isinstance(f, (Not, Forall)):  # forall v.g == !exists v.!g: the search can use indexes
        body = _plan(f.body if isinstance(f, Not) else _witness(f), bound)
        return lambda ctx, env, k: not body(ctx, env, _stop) and k(env)
    if isinstance(f, Implies):
        body, head = _plan(f.body, bound), _plan(f.head, bound)
        return lambda ctx, env, k: (not body(ctx, env, _stop) or head(ctx, env, _stop)) \
            and k(env)
    raise TypeError(f)


def _witness(f: Forall) -> Exists:
    """exists v.!g for forall v.g, built once per node: the gate and the plans read the same one."""
    witness = f._memo.get("witness")
    if witness is None:
        witness = f._memo["witness"] = Exists(f.var, negate(f.body))
    return witness


def _unbound(f: Formula, loose) -> EvalError:
    return EvalError(f"cannot evaluate {print_formula(f)}: nothing binds "
                     + ", ".join("?" + v for v in sorted(loose)))


def _atom_plan(atom, bound: frozenset, siblings: tuple):
    if isinstance(atom, Rel):
        return _rel_path(atom, bound, siblings)[1]
    if isinstance(atom, SetMember):
        if free_variables(atom) <= bound:  # a known pair is one membership test
            s, a, v = _value_of(atom.set), _value_of(atom.attr), _value_of(atom.value)
            return lambda ctx, env, k: (a(env), v(env)) in (s(env) or ()) and k(env)
        return lambda ctx, env, k: any(map(k, _match_member(atom, env)))
    if isinstance(atom, Eq):
        if free_variables(atom) <= bound:  # a test
            left, right = _value_of(atom.left), _value_of(atom.right)
            return lambda ctx, env, k: (v := left(env)) is not None and v == right(env) \
                and k(env)
        return lambda ctx, env, k: any(map(k, _match_eq(atom, env)))
    if free_variables(atom) - bound:  # a datatype relation only tests
        raise _unbound(atom, free_variables(atom) - bound)
    # readers and relation picked once; a DatatypeError, an undefined function argument's
    # included, makes it false and leaves a diagnostic
    args = [_value_of(t) if isinstance(t, (ObjVar, SetVar, Const)) else partial(_resolve_term, t)
            for t in atom.args]
    a, b = args if len(args) == 2 else (args[0], None)  # the parser checked the arity
    relation = DATATYPE_RELATIONS[atom.name][1]

    def test(ctx: _Ctx, env: dict, k) -> bool:
        try:
            holds = relation(a(env), b(env)) if b else relation(a(env))
        except DatatypeError as exc:
            ctx.diagnostics.append(str(exc))
            return False
        return holds and k(env)
    return test


def _qualifier_key(rel: Rel, bound: frozenset, siblings: tuple):
    """The bound attribute a of a sibling (a : ?v) in ?SQ when rel is ?q(...)@?SQ with ?q
    open: only the statements with an a qualifier can satisfy the sibling."""
    if isinstance(rel.pred, str) or free_variables(rel.pred) <= bound \
            or not isinstance(rel.attrs, SetVar):
        return None
    return next((g.attr for g in siblings if isinstance(g, SetMember)
                 and g.set == rel.attrs and isinstance(g.attr, (Const, ObjVar))
                 and free_variables(g.attr) <= bound), None)


def _and_plan(items: tuple, bound: frozenset):
    """Run the cheapest ready conjunct, continuing each of its solutions with the
    plan of the rest.

    A conjunct is ready when matching it binds what it leaves open.  Its cost
    class: a test 0, ``=`` 1, ``in`` 2, a statement atom 3 plus the number of
    candidates its access path reads, anything else 10,000; the first of the
    cheapest goes first.  Candidates are read only when a statement atom
    could win, and the winner scans the ones read for its cost.  A
    conjunct's plan is compiled when it first goes first, and the plan of
    the rest after it when it first has a solution.
    """
    if not items:
        return lambda ctx, env, k: k(env)
    costs = {}  # ready conjunct -> its cost class; None for a statement atom
    for i, g in enumerate(items):
        unbound = free_variables(g) - bound
        if unbound and not unbound <= _binds(g, bound):
            continue
        costs[i] = 0 if not unbound else None if isinstance(g, Rel) \
            else _COST_CLASS.get(type(g), 10_000)
    if not costs:
        raise _unbound(And(items), free_variables(And(items)) - bound)
    if len(items) == 1:  # the last conjunct needs no plan for the rest
        return _atom_plan(items[0], bound, ()) if isinstance(items[0], Atom) \
            else _plan(items[0], bound)
    if all(costs.get(i) == 0 and isinstance(g, _ONCE) for i, g in enumerate(items)):
        # tests that hold at most once each, in the order the planner would run them
        tests = [_atom_plan(g, bound, ()) if isinstance(g, Atom) else _plan(g, bound) for g in items]

        def run_tests(ctx: _Ctx, env: dict, k) -> bool:
            for test in tests:
                if not test(ctx, env, _stop):
                    return False
            return k(env)
        return run_tests
    fixed = [(c, i) for i, c in costs.items() if c is not None]
    counted = [i for i, c in costs.items() if c is None]
    pick = None
    if not counted or min(fixed, default=(3,))[0] < 3:
        pick = min(fixed)[1]  # a statement atom costs 3 or more
    elif len(counted) == 1 and not fixed:
        pick = counted[0]
    paths = {} if pick is not None and pick not in counted else \
        {i: _rel_path(items[i], bound, items[:i] + items[i + 1:]) for i in counted}
    steps: dict = {}
    rests: dict = {}

    def run(ctx: _Ctx, env: dict, k) -> bool:
        i = pick
        if i is None:
            found = {j: paths[j][0](ctx, env) for j in counted}
            i = min([(3 + len(c), j) for j, c in found.items()] + fixed)[1]
        rest = rests.get(i)

        def each(env2: dict) -> bool:
            nonlocal rest
            if rest is None:
                rest = rests[i] = _and_plan(items[:i] + items[i + 1:],
                                            bound | free_variables(items[i]))
            return rest(ctx, env2, k)
        if i in paths:
            return paths[i][1](ctx, env, each, found[i] if pick is None else None)
        step = steps.get(i)
        if step is None:
            g = items[i]
            step = steps[i] = (_atom_plan(g, bound, items[:i] + items[i + 1:])
                               if isinstance(g, Atom) else _plan(g, bound))
        return step(ctx, env, each)

    return run


_COST_CLASS = {Eq: 1, SetMember: 2}
_ONCE = (SetMember, Eq, DtRel, Not, Implies, Exists, Forall)  # as tests, match env at most once


def _exists_plan(f, bound: frozenset):
    """The body's solutions projected onto the other variables; each outer
    binding holds once it has one (``exists[k]``, and ``exists[?k]`` each run: k)
    distinct witnesses."""
    if f.var in bound:  # an outer ?var: hidden from the body, put back into what it finds
        var, plan = f.var, _plan(f, bound - {f.var})
        return lambda ctx, env, k: plan(ctx, {key: v for key, v in env.items() if key != var},
                                        lambda out: k({**out, var: env[var]}))
    loose = free_variables(f.body) - bound
    if not loose <= _binds(f.body, bound):
        raise _unbound(f, loose)
    body, var = _plan(f.body, bound), f.var
    kept = tuple(sorted(bound | free_variables(f)))

    def run(ctx: _Ctx, env: dict, k, need=f.count or 1) -> bool:
        witnesses: dict = {}

        def each(env2: dict) -> bool:
            key = tuple(map(env2.__getitem__, kept))
            seen = witnesses.setdefault(key, set())
            if len(seen) < need:
                seen.add(env2.get(var))
                return len(seen) == need and k(dict(zip(kept, key)))
            return False
        return body(ctx, env, each)

    if isinstance(f.count, _Node):  # exists[?k]
        count = _value_of(f.count)
        return lambda ctx, env, k: bool(need := witness_count(count(env), ctx.diagnostics)) \
            and run(ctx, env, k, need)
    if (f.count or 1) == 1 and free_variables(f) <= bound:  # a test, decided at the first witness
        return lambda ctx, env, k: body(ctx, env, _stop) and k(env)
    return run


# ---------------------------------------------------------------------------
# Binding analysis and the safe-range gate
# ---------------------------------------------------------------------------

_NOTHING: frozenset = frozenset()


def _binds(f: Formula, pre) -> frozenset:
    """The free variables of f that matching f binds once the variables in pre are bound.

    This is the one place that knows which constructs bind: the safe-range
    gate, the conjunct planner and the rule gate all read it.
    """
    if isinstance(f, Rel):
        return _bare(f)
    if isinstance(f, SetMember):
        return _bare(f) if free_variables(f.set) <= pre else _NOTHING
    if isinstance(f, Eq):
        # a bound side binds the other only when that side is a bare variable
        left, right = free_variables(f.left) <= pre, free_variables(f.right) <= pre
        if (left and right or left and isinstance(f.right, (ObjVar, SetVar))
                or right and isinstance(f.left, (ObjVar, SetVar))):
            return free_variables(f)
        return _NOTHING
    if isinstance(f, And):
        # fixpoint; an item that bound all its variables is not asked again
        bound = set(pre)
        todo = f.items
        while todo:
            size = len(bound)
            open_items = []
            for g in todo:
                new = _binds(g, bound)
                bound |= new
                if len(new) < len(free_variables(g)):
                    open_items.append(g)
            if len(bound) == size:
                break
            todo = open_items
        return free_variables(f) & bound
    if isinstance(f, Or):
        return frozenset.intersection(*[_binds(g, pre) for g in f.items])
    if isinstance(f, Exists):  # exists[?k] reads ?k: something outside must bind it
        out = _binds(f.body, pre - {f.var}) - {f.var}
        return out - {f.count.name} if isinstance(f.count, ObjVar) else out
    return _NOTHING  # DtRel, Not, Implies and Forall only test


def _bare(atom: Atom) -> frozenset:
    """The variables of a statement or set atom that a match binds: those standing
    bare, as a position, predicate or attrs, or as a member of a set literal's pair.
    A variable only inside a function term is resolved, never bound."""
    out = atom.__dict__.get("_bare")  # kept on the node, as its free variables are
    if out is None:
        terms = [t for c in _children(atom)
                 for t in (_children(c) if isinstance(c, SetLiteral) else (c,))]
        out = atom.__dict__["_bare"] = frozenset(t.name for t in terms
                                                 if isinstance(t, (ObjVar, SetVar)))
    return out


def check_safe_range(f: Formula, params=_NOTHING) -> Optional[str]:
    """None if every variable is range-restricted once params are bound; else a diagnostic.

    The verdict is kept on f, so each formula and parameter set is gated once.
    """
    key = ("safe-range", frozenset(params))
    if key not in f._memo:
        problems: list = []
        _check(f, key[1], problems)
        _report(problems, "free variable(s)",
                free_variables(f) - key[1] - _binds(f, key[1]))
        f._memo[key] = "; ".join(problems) if problems else None
    return f._memo[key]


def _check(f: Formula, pre: frozenset, problems: list) -> None:
    """Append the safe-range problems inside f, given that pre is bound."""
    if isinstance(f, And):
        bound = pre | _binds(f, pre)
        for g in f.items:
            _check(g, bound, problems)
            _require_supported(g, bound, problems)
    elif isinstance(f, Or):
        for g in f.items:
            _check(g, pre, problems)
        for g in f.items:
            _require_supported(g, pre, problems)
    elif isinstance(f, Not):
        _check(f.body, pre, problems)
        _report(problems, "variable(s) under negation",
                free_variables(f.body) - pre - _binds(f.body, pre))
    elif isinstance(f, Implies):
        _check(f.body, pre, problems)
        body_bound = pre | _binds(f.body, pre)
        _report(problems, "implication body variable(s)", free_variables(f.body) - body_bound)
        _check(f.head, body_bound, problems)
        _report(problems, "implication head variable(s)",
                free_variables(f.head) - body_bound - _binds(f.head, body_bound))
    elif isinstance(f, (Exists, Forall)):
        inner = pre - {f.var}
        _check(f.body, inner, problems)
        # the witness the plan searches for: the body, or for forall its negation
        witness = f.body if isinstance(f, Exists) else _witness(f).body
        if f.var not in _binds(witness, inner):
            if isinstance(f, Exists) and f.count is not None:
                problems.append(f"counting variable not range-restricted: {f.var}")
            elif f.var in free_variables(f.body):
                problems.append(f"quantified variable not range-restricted: {f.var}")


def _require_supported(g: Formula, bound: frozenset, problems: list) -> None:
    if isinstance(g, (DtRel, Eq)):
        kind = "datatype relation" if isinstance(g, DtRel) else "equality"
        _report(problems, f"{kind} variable(s)", free_variables(g) - bound)


def _report(problems: list, what: str, loose) -> None:
    if loose:
        problems.append(f"{what} not range-restricted: " + ", ".join(sorted(loose)))


# ---------------------------------------------------------------------------
# Public evaluation entry points
# ---------------------------------------------------------------------------


def evaluate(
    kb: KnowledgeBase,
    f: Formula,
    cfg: Optional[EvalConfig] = None,
    diagnostics: Optional[list] = None,
    params: Optional[dict] = None,
) -> Iterator[Binding]:
    """Bindings of f's free variables satisfied by the KB (deduplicated).

    ``params`` binds some free variables before the search starts (a
    template's ?p and ?CQ); the bindings leave them out.  They are collected,
    up to ``cfg.max_bindings``, before the first is yielded, each with the
    diagnostics the search had recorded when it found that binding.
    """
    cfg = cfg or EvalConfig()
    env = dict(params or {})
    problem = check_safe_range(f, env.keys())
    if problem:
        raise UnsafeFormulaError(problem)
    ctx = _Ctx(kb, cfg)
    diagnostics = [] if diagnostics is None else diagnostics
    names = sorted(free_variables(f) - env.keys())
    found: dict = {}  # binding -> the number of diagnostics recorded before it

    def collect(out: dict) -> bool:
        found.setdefault(Binding(tuple((k, out[k]) for k in names if k in out)),
                         len(ctx.diagnostics))
        return len(found) == cfg.max_bindings

    solve(ctx, f, env, collect)
    shown = 0
    for b, recorded in found.items():
        diagnostics.extend(ctx.diagnostics[shown:recorded])
        shown = recorded
        yield b
    diagnostics.extend(ctx.diagnostics[shown:])
