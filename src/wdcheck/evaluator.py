"""Formula evaluation over a knowledge base.

``evaluate`` yields the bindings of a formula's free variables that satisfy
it.  It answers only safe-range formulas (``check_safe_range``), and answers
them by index lookups, never by enumerating the domain.  ``_binds`` is the
one binding analysis: the gate, the plans and the rule engine read it.
``_candidates`` is the one place that picks the statements an atom reads,
the semi-naive delta of a closure round included.

A formula node is compiled into a plan once for each set of variables that
are bound when it runs, and the plan is cached on the node (``_plan``).  The
plan fixes which conjuncts are ready and their cost classes, the index each
statement atom reads, the projection of each quantifier and the ``exists
v . !g`` of each ``forall``; at run time it reads only the candidate counts
of statement atoms.  A construct that cannot bind what it leaves open raises
``EvalError``.  The gate's verdicts are cached on the node as well, so a
template variant whose ?p and ?CQ are parameters (``evaluate``'s ``params``)
is gated and planned once, however many declarations run it.  The
brute-force oracle is in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    free_variables,
    negate,
    print_formula,
)
from .model import (
    AttrSet,
    DatatypeError,
    EMPTY_ATTRS,
    EntityId,
    KnowledgeBase,
    Pseudo,
    StringVal,
    datatype_function,
    datatype_relation,
    is_property,
)


class EvalError(Exception):
    pass


class UnsafeFormulaError(EvalError):
    pass


@dataclass(frozen=True)
class Binding:
    """An assignment of free variables to values / qualifier sets."""

    data: tuple  # sorted tuple of (name, Value-or-AttrSet)

    @staticmethod
    def of(env: dict) -> "Binding":
        return Binding(tuple(sorted(env.items(), key=lambda kv: kv[0])))

    def as_dict(self) -> dict:
        return dict(self.data)

    def __getitem__(self, name: str):
        return dict(self.data)[name]

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self.data)


@dataclass
class EvalConfig:
    max_bindings: Optional[int] = None
    include_deprecated: bool = False
    oracle_domain_limit: int = 12

    def __post_init__(self) -> None:
        if self.max_bindings is not None and self.max_bindings < 1:
            raise ValueError("max_bindings must be at least 1 when bounded")


class _Ctx:
    """One evaluation: the KB, the config, the diagnostics and the delta.

    ``delta`` is None, or ``(atom, {property: statements})`` in a semi-naive
    closure round: that atom reads only the given statements.
    """

    def __init__(self, kb: KnowledgeBase, cfg: EvalConfig,
                 diagnostics: Optional[list] = None, delta: Optional[tuple] = None) -> None:
        self.kb = kb
        self.cfg = cfg
        self.diagnostics = diagnostics if diagnostics is not None else []
        self.delta = delta


# ---------------------------------------------------------------------------
# Term resolution and unification
# ---------------------------------------------------------------------------


def _resolve_term(t, env: dict):
    """Ground value of a term under env, or None if a variable is unbound."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (ObjVar, SetVar)):
        return env.get(t.name)
    if isinstance(t, FuncApp):
        args = []
        for a in t.args:
            v = _resolve_term(a, env)
            if v is None:
                return None
            args.append(v)
        return datatype_function(t.name, *args)
    if isinstance(t, SetLiteral):
        return _resolve_literal(t, env)
    raise TypeError(t)


def _resolve_literal(lit: SetLiteral, env: dict) -> Optional[AttrSet]:
    if lit.ground is not None:
        return lit.ground
    pairs = []
    for a, v in lit.pairs:
        av = _resolve_term(a, env)
        vv = _resolve_term(v, env)
        if av is None or vv is None:
            return None
        pairs.append((av, vv))
    return AttrSet.of(pairs)


def _unify_term(t, value, env: dict) -> Optional[dict]:
    if isinstance(t, (ObjVar, SetVar)):
        bound = env.get(t.name)
        if bound is None:
            out = dict(env)
            out[t.name] = value
            return out
        return env if bound == value else None
    ground = _resolve_term(t, env)
    return env if ground == value else None


def _match_literal(lit: SetLiteral, target: AttrSet, env: dict) -> Iterator[dict]:
    """Unify a set literal against a concrete qualifier set (bijectively).

    Pseudo-attribute pairs (mirrored rank/references) are ignored on the
    target side unless the literal mentions pseudo-attributes itself.
    """
    if not any(isinstance(a, Const) and isinstance(a.value, Pseudo) for a, _v in lit.pairs):
        target = target.without_pseudo()
    ground = lit.ground
    if ground is not None and len(ground) == len(lit.pairs):
        if ground == target:
            yield env
        return
    pairs = list(lit.pairs)
    targets = target.sorted_pairs()
    if len(pairs) != len(targets):
        return

    def backtrack(i: int, used: set, env: dict) -> Iterator[dict]:
        if i == len(pairs):
            yield env
            return
        a_term, v_term = pairs[i]
        for j, (a_val, v_val) in enumerate(targets):
            if j in used:
                continue
            env2 = _unify_term(a_term, a_val, env)
            if env2 is None:
                continue
            env3 = _unify_term(v_term, v_val, env2)
            if env3 is None:
                continue
            yield from backtrack(i + 1, used | {j}, env3)

    yield from backtrack(0, set(), env)


def _unify_attrs(attrs, qualifiers: AttrSet, env: dict) -> Iterator[dict]:
    if attrs is None:
        yield env
    elif isinstance(attrs, SetVar):
        env2 = _unify_term(attrs, qualifiers, env)
        if env2 is not None:
            yield env2
    else:
        yield from _match_literal(attrs, qualifiers, env)


# ---------------------------------------------------------------------------
# Atom matching
# ---------------------------------------------------------------------------


def _candidates(ctx: _Ctx, pred_val: Optional[EntityId], rel: Rel, env: dict, key=None):
    """The statements rel reads; pred_val is its resolved predicate.

    This is the one place that picks them.  The delta atom reads its delta
    statements (all of them when its predicate is open).  Any other atom with
    an open predicate reads the statements with a ``key`` qualifier (see
    ``_qualifier_key``) when it has a key, or else every statement; an atom
    with a bound predicate reads the subject, value or property index.
    """
    if ctx.delta is not None and ctx.delta[0] is rel:
        delta = ctx.delta[1]
        if pred_val is None:
            return [st for sts in delta.values() for st in sts]
        return delta.get(pred_val, ())
    if pred_val is None:
        if key is not None:
            return ctx.kb.by_qualifier_attr.get(_resolve_term(key, env), ())
        return ctx.kb.statements.values()
    subj = _try_resolve(rel.args[0], env)
    if isinstance(subj, EntityId):
        return ctx.kb.by_prop_subject.get((pred_val, subj), [])
    val = _try_resolve(rel.args[1], env)
    if val is not None:
        return ctx.kb.by_prop_value.get((pred_val, val), [])
    return ctx.kb.by_property.get(pred_val, [])


def match_rel(ctx: _Ctx, rel: Rel, env: dict, key=None) -> Iterator[dict]:
    """Extend env over the statements (or builtin fact table rows) matching the atom.

    ``key`` is the qualifier key of an atom with an open predicate (see
    ``_candidates``).
    """
    if isinstance(rel.pred, str):  # a builtin fact table
        if rel.pred == "no_value":
            rows = [(fact.property, fact.subject, fact.qualifiers)
                    for fact in ctx.kb.no_value_facts]
        else:
            page = _try_resolve(rel.args[0], env)
            if page is None:
                pages = sorted(ctx.kb.commons_ns.items())
            else:  # a bound page is read by lookup
                ns = ctx.kb.commons_ns.get(page.text) if isinstance(page, StringVal) else None
                pages = [] if ns is None else [(page.text, ns)]
            rows = [(StringVal(p), StringVal(ns), EMPTY_ATTRS) for p, ns in pages]
        for first, second, qualifiers in rows:
            env1 = _unify_term(rel.args[0], first, env)
            env2 = None if env1 is None else _unify_term(rel.args[1], second, env1)
            if env2 is not None:
                yield from _unify_attrs(rel.attrs, qualifiers, env2)
        return

    pred_val = _resolve_term(rel.pred, env)
    if pred_val is not None and not is_property(pred_val):
        return
    for st in _candidates(ctx, pred_val, rel, env, key):
        if st.rank == "deprecated" and not ctx.cfg.include_deprecated:
            continue
        env1 = _unify_term(rel.pred, st.property, env)
        if env1 is None:
            continue
        env2 = _unify_term(rel.args[0], st.subject, env1)
        if env2 is None:
            continue
        env3 = _unify_term(rel.args[1], st.value, env2)
        if env3 is None:
            continue
        yield from _unify_attrs(rel.attrs, st.qualifiers, env3)


def _try_resolve(t, env: dict):
    try:
        return _resolve_term(t, env)
    except DatatypeError:
        return None


def _match_member(atom: SetMember, env: dict) -> Iterator[dict]:
    target = _resolve_term(atom.set, env)
    if target is None:
        raise EvalError("set atom evaluated before its set term was bound")
    for a_val, v_val in target.sorted_pairs():
        env1 = _unify_term(atom.attr, a_val, env)
        if env1 is None:
            continue
        env2 = _unify_term(atom.value, v_val, env1)
        if env2 is not None:
            yield env2


def _match_eq(atom: Eq, env: dict) -> Iterator[dict]:
    lv = _try_resolve(atom.left, env)
    rv = _try_resolve(atom.right, env)
    if lv is not None and rv is not None:
        if lv == rv:
            yield env
    elif lv is not None and isinstance(atom.right, (ObjVar, SetVar)):
        out = dict(env)
        out[atom.right.name] = lv
        yield out
    elif rv is not None and isinstance(atom.left, (ObjVar, SetVar)):
        out = dict(env)
        out[atom.left.name] = rv
        yield out
    else:
        raise EvalError("equality with both sides unbound")


def _eval_dtrel(ctx: _Ctx, atom: DtRel, env: dict) -> bool:
    args = []
    try:
        for t in atom.args:
            v = _resolve_term(t, env)
            if v is None:
                raise EvalError(f"datatype relation {atom.name} evaluated with unbound argument")
            args.append(v)
        return datatype_relation(atom.name, *args)
    except DatatypeError as exc:
        ctx.diagnostics.append(str(exc))
        return False


# ---------------------------------------------------------------------------
# Plans: each formula node compiled once per set of bound variables
# ---------------------------------------------------------------------------


def solve(ctx: _Ctx, f: Formula, env: dict) -> Iterator[dict]:
    """All extensions of env over f's free variables under which f holds."""
    return _plan(f, frozenset(env))(ctx, env)


def _plan(f: Formula, bound: frozenset):
    """f's plan for environments that bind exactly the variables in bound, compiled once.

    A plan maps (ctx, env) to the extensions of env under which f holds.
    """
    run = f._memo.get(bound)
    if run is None:
        run = f._memo[bound] = _compile(f, bound)
    return run


def _compile(f: Formula, bound: frozenset):
    if isinstance(f, Atom):
        return _atom_plan(f, bound, ())
    if isinstance(f, And):
        return _and_plan(f.items, bound)
    if isinstance(f, Or):
        branches = [_plan(g, bound) for g in f.items]
        return lambda ctx, env: (e for branch in branches for e in branch(ctx, env))
    if isinstance(f, Exists):
        return _exists_plan(f, bound)
    if free_variables(f) - bound:  # !, -> and forall test their variables, never bind them
        raise _unbound(f, free_variables(f) - bound)
    if isinstance(f, Not):
        body = _plan(f.body, bound)
        return lambda ctx, env: () if _any(body(ctx, env)) else (env,)
    if isinstance(f, Implies):
        body, head = _plan(f.body, bound), _plan(f.head, bound)
        return lambda ctx, env: () if _any(body(ctx, env)) and not _any(head(ctx, env)) else (env,)
    if isinstance(f, Forall):
        # forall v.g  ==  !exists v.!g; the existential search can use indexes
        witness = _plan(Exists(f.var, negate(f.body)), bound)
        return lambda ctx, env: () if _any(witness(ctx, env)) else (env,)
    raise TypeError(f)


def _unbound(f: Formula, loose) -> EvalError:
    return EvalError(f"cannot evaluate {print_formula(f)}: nothing binds "
                     + ", ".join("?" + v for v in sorted(loose)))


def _any(solutions) -> bool:
    return next(iter(solutions), None) is not None


def _atom_plan(atom, bound: frozenset, siblings: tuple):
    if isinstance(atom, Rel):
        key = _qualifier_key(atom, bound, siblings)
        return lambda ctx, env: match_rel(ctx, atom, env, key)
    if isinstance(atom, SetMember):
        return lambda ctx, env: _match_member(atom, env)
    if isinstance(atom, Eq):
        return lambda ctx, env: _match_eq(atom, env)
    return lambda ctx, env: (env,) if _eval_dtrel(ctx, atom, env) else ()


def _qualifier_key(rel: Rel, bound: frozenset, siblings: tuple):
    """The bound attribute a of a sibling (a : ?v) in ?SQ when rel is ?q(...)@?SQ with ?q open.

    Such an atom would scan every statement, yet only the statements with an
    a qualifier can satisfy the sibling.
    """
    if isinstance(rel.pred, str) or free_variables(rel.pred) <= bound \
            or not isinstance(rel.attrs, SetVar):
        return None
    return next((g.attr for g in siblings if isinstance(g, SetMember)
                 and g.set == rel.attrs and isinstance(g.attr, (Const, ObjVar))
                 and free_variables(g.attr) <= bound), None)


def _and_plan(items: tuple, bound: frozenset):
    """Run the cheapest ready conjunct, then the plan of the rest.

    A conjunct is ready when matching it binds what it leaves open.  Its cost
    class: a test 0, ``=`` 1, ``in`` 2, a statement atom 3 plus its candidate
    count, anything else 10,000; the first of the cheapest goes first.  A
    count is read only when a statement atom could win.  A conjunct's plan,
    and the plan of the rest after it, are compiled when it first goes first.
    """
    if not items:
        return lambda ctx, env: (env,)
    costs = {}  # ready conjunct -> its cost class; None for a statement atom
    for i, g in enumerate(items):
        unbound = free_variables(g) - bound
        if unbound and not unbound <= _binds(g, bound):
            continue
        costs[i] = 0 if not unbound else None if isinstance(g, Rel) \
            else _COST_CLASS.get(type(g), 10_000)
    if not costs:
        raise _unbound(And(items), free_variables(And(items)) - bound)
    fixed = [(c, i) for i, c in costs.items() if c is not None]
    counted = [i for i, c in costs.items() if c is None]
    pick = None
    if not counted or min(fixed, default=(3,))[0] < 3:
        pick = min(fixed)[1]  # a statement atom costs 3 or more
    elif len(counted) == 1 and not fixed:
        pick = counted[0]
    steps: dict = {}
    rests: dict = {}

    def run(ctx: _Ctx, env: dict) -> Iterator[dict]:
        i = pick
        if i is None:
            i = min([(3 + _rel_cost(ctx, items[j], env), j) for j in counted] + fixed)[1]
        step = steps.get(i)
        if step is None:
            g = items[i]
            step = steps[i] = (_atom_plan(g, bound, items[:i] + items[i + 1:])
                               if isinstance(g, Atom) else _plan(g, bound))
        rest = rests.get(i)
        for env2 in step(ctx, env):
            if rest is None:
                rest = rests[i] = _and_plan(items[:i] + items[i + 1:],
                                            bound | free_variables(items[i]))
            yield from rest(ctx, env2)

    return run


_COST_CLASS = {Eq: 1, SetMember: 2}


def _rel_cost(ctx: _Ctx, rel: Rel, env: dict) -> int:
    if isinstance(rel.pred, str):
        return len(ctx.kb.no_value_facts) if rel.pred == "no_value" else len(ctx.kb.commons_ns)
    pred_val = _try_resolve(rel.pred, env)
    if pred_val is not None and not is_property(pred_val):
        return 0
    return len(_candidates(ctx, pred_val, rel, env))


def _exists_plan(f, bound: frozenset):
    """The body's solutions projected onto the other variables; each outer
    binding holds once it has one (``exists[k]``: k) distinct witnesses."""
    loose = free_variables(f.body) - bound
    if f.var in bound or not loose <= _binds(f.body, bound):
        raise _unbound(f, loose)
    body, var = _plan(f.body, bound), f.var
    kept = tuple(sorted(bound | free_variables(f)))
    need = f.count or 1

    def run(ctx: _Ctx, env: dict) -> Iterator[dict]:
        witnesses: dict = {}
        for env2 in body(ctx, env):
            key = tuple(env2[k] for k in kept)
            seen = witnesses.setdefault(key, set())
            if len(seen) < need:
                seen.add(env2.get(var))
                if len(seen) == need:
                    yield dict(zip(kept, key))

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
        return free_variables(f)
    if isinstance(f, SetMember):
        return free_variables(f) if free_variables(f.set) <= pre else _NOTHING
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
    if isinstance(f, Exists):
        return _binds(f.body, pre) - {f.var}
    return _NOTHING  # DtRel, Not, Implies and Forall only test


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
        _check(f.body, pre, problems)
        if isinstance(f, Exists) and f.count is not None and f.var not in _binds(f.body, pre):
            problems.append(f"counting variable not range-restricted: {f.var}")


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
    template's ?p and ?CQ); the bindings leave them out.
    """
    cfg = cfg or EvalConfig()
    env = dict(params or {})
    problem = check_safe_range(f, env.keys())
    if problem:
        raise UnsafeFormulaError(problem)
    ctx = _Ctx(kb, cfg, diagnostics)
    names = sorted(free_variables(f) - env.keys())
    seen = set()
    count = 0
    for out in solve(ctx, f, env):
        b = Binding(tuple((k, out[k]) for k in names if k in out))
        if b in seen:
            continue
        seen.add(b)
        yield b
        count += 1
        if cfg.max_bindings is not None and count >= cfg.max_bindings:
            return
