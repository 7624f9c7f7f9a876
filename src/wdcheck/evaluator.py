"""Formula evaluation over a knowledge base.

``evaluate`` yields the bindings of a formula's free variables that satisfy
it, with object quantifiers ranging over the active domain (KB constants plus
the formula's own constants) and set quantifiers over the qualifier sets
realized in the KB plus the formula's ground set literals.

The main evaluator orders conjuncts greedily so that index lookups drive the
search.  ``_binds`` is the one binding analysis: the safe-range gate
(``check_safe_range``) and the conjunct order (``_cost``) both read it.
``brute_force_evaluate`` enumerates every total binding and filters with
``holds``.  The two share atom matching (``match_rel``), so the oracle
checks the search order and the domain fallback, not statement matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

from .formula import (
    And,
    AtomF,
    Const,
    CountExists,
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
    all_constants,
    free_variables,
    ground_set_literals,
    is_set_name,
    negate,
)
from .model import (
    AttrSet,
    DatatypeError,
    EMPTY_ATTRS,
    KnowledgeBase,
    PropRef,
    Pseudo,
    StringVal,
    _value_sort_key,
    as_entity,
    datatype_function,
    datatype_relation,
    entity_value,
)


class EvalError(Exception):
    pass


class UnsafeFormulaError(EvalError):
    pass


class DomainTooLarge(EvalError):
    """Brute-force evaluation refused: the active domain exceeds the bound."""


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
    """One evaluation: the KB, the config, the diagnostics and the variable pools.

    The pools are built on first use.  Safe-range queries are answered by
    index lookups and never read them; only the domain fallback and the
    brute-force oracle do.
    """

    def __init__(self, kb: KnowledgeBase, cfg: EvalConfig, formula: Optional[Formula] = None,
                 diagnostics: Optional[list] = None) -> None:
        self.kb = kb
        self.cfg = cfg
        self.formula = formula
        self.diagnostics = diagnostics if diagnostics is not None else []

    @cached_property
    def domain(self) -> list:
        """Object-variable pool: the KB's and the formula's constants, sorted."""
        dom = set(self.kb.active_domain())
        if self.formula is not None:
            dom |= all_constants(self.formula)
        return sorted(dom, key=_value_sort_key)

    @cached_property
    def set_domain(self) -> list:
        """Set-variable pool: the KB's qualifier sets and the formula's ground literals."""
        sets = self.kb.attr_sets()
        if self.formula is not None:
            sets |= ground_set_literals(self.formula)
        return sorted(sets, key=str)

    def pool(self, var: str) -> list:
        return self.set_domain if is_set_name(var) else self.domain


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


def _literal_has_pseudo(lit: SetLiteral) -> bool:
    for a, _v in lit.pairs:
        if isinstance(a, Const) and isinstance(a.value, Pseudo):
            return True
    return False


def _match_literal(lit: SetLiteral, target: AttrSet, env: dict) -> Iterator[dict]:
    """Unify a set literal against a concrete qualifier set (bijectively).

    Pseudo-attribute pairs (mirrored rank/references) are ignored on the
    target side unless the literal mentions pseudo-attributes itself.
    """
    if not _literal_has_pseudo(lit):
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


def _candidates(ctx: _Ctx, pred_val: Optional[PropRef], rel: Rel, env: dict):
    """Statements the best index offers for rel; pred_val is its resolved predicate."""
    if pred_val is None:
        return ctx.kb.statements.values()
    prop = pred_val.entity
    subj = _try_resolve(rel.args[0], env)
    if subj is not None and (ent := as_entity(subj)) is not None:
        return ctx.kb.by_prop_subject.get((prop, ent), [])
    val = _try_resolve(rel.args[1], env)
    if val is not None:
        return ctx.kb.by_prop_value.get((prop, val), [])
    return ctx.kb.by_property.get(prop, [])


def match_rel(ctx: _Ctx, rel: Rel, env: dict, statements=None) -> Iterator[dict]:
    """Extend env over statements (or builtin fact tables) matching the atom.

    ``statements`` restricts matching to the given statements (used by the
    rule engine's delta-driven evaluation).
    """
    if rel.pred == "no_value":
        for fact in ctx.kb.no_value_facts:
            env1 = _unify_term(rel.args[0], PropRef(fact.property), env)
            if env1 is None:
                continue
            env2 = _unify_term(rel.args[1], entity_value(fact.subject), env1)
            if env2 is None:
                continue
            yield from _unify_attrs(rel.attrs, fact.qualifiers, env2)
        return
    if rel.pred == "Commons_namespace":
        for page, ns in sorted(ctx.kb.commons_ns.items()):
            env1 = _unify_term(rel.args[0], StringVal(page), env)
            if env1 is None:
                continue
            env2 = _unify_term(rel.args[1], StringVal(ns), env1)
            if env2 is None:
                continue
            yield from _unify_attrs(rel.attrs, EMPTY_ATTRS, env2)
        return

    pred_val = _resolve_term(rel.pred, env)
    if pred_val is not None and not isinstance(pred_val, PropRef):
        return
    if statements is None:
        statements = _candidates(ctx, pred_val, rel, env)
    for st in statements:
        if st.rank == "deprecated" and not ctx.cfg.include_deprecated:
            continue
        env1 = _unify_term(rel.pred, PropRef(st.property), env)
        if env1 is None:
            continue
        env2 = _unify_term(rel.args[0], entity_value(st.subject), env1)
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
# Satisfaction search
# ---------------------------------------------------------------------------


def _rel_cost(ctx: _Ctx, rel: Rel, env: dict) -> int:
    if isinstance(rel.pred, str):
        return len(ctx.kb.no_value_facts) if rel.pred == "no_value" else len(ctx.kb.commons_ns)
    pred_val = _try_resolve(rel.pred, env)
    if pred_val is not None and not isinstance(pred_val, PropRef):
        return 0
    return len(_candidates(ctx, pred_val, rel, env))


def _cost(ctx: _Ctx, f: Formula, env: dict) -> Optional[int]:
    """Work to match f under env; None when matching cannot bind its unbound variables."""
    unbound = free_variables(f) - env.keys()
    if not unbound:
        return 0  # pure test, run first
    if not unbound <= _binds(f, env.keys()):
        return None
    if isinstance(f, AtomF):
        atom = f.atom
        if isinstance(atom, Eq):
            return 1
        if isinstance(atom, SetMember):
            return 2
        return 3 + _rel_cost(ctx, atom, env)
    return 10_000


def _satisfy_and(ctx: _Ctx, items: tuple, env: dict) -> Iterator[dict]:
    if not items:
        yield env
        return
    ready = [(c, i) for i, g in enumerate(items) if (c := _cost(ctx, g, env)) is not None]
    if not ready:
        # no conjunct can bind: enumerate a variable of the first one
        yield from _enumerate_then(ctx, And(items), env, free_variables(items[0]) - env.keys())
        return
    _, i = min(ready)
    rest = items[:i] + items[i + 1:]
    for env2 in satisfy(ctx, items[i], env):
        yield from _satisfy_and(ctx, rest, env2)


def satisfy(ctx: _Ctx, f: Formula, env: dict) -> Iterator[dict]:
    """All extensions of env over f's free variables under which f holds."""
    if isinstance(f, (Not, Implies, Forall)):
        unbound = free_variables(f) - env.keys()
        if unbound:
            # these test their variables but cannot bind them (the
            # safe-range gate rejects such queries at the API boundary)
            yield from _enumerate_then(ctx, f, env, unbound)
            return
    if isinstance(f, AtomF):
        atom = f.atom
        if isinstance(atom, Rel):
            yield from match_rel(ctx, atom, env)
        elif isinstance(atom, SetMember):
            yield from _match_member(atom, env)
        elif isinstance(atom, Eq):
            yield from _match_eq(atom, env)
        else:
            if _eval_dtrel(ctx, atom, env):
                yield env
    elif isinstance(f, Not):
        if not _any_satisfy(ctx, f.body, env):
            yield env
    elif isinstance(f, And):
        yield from _satisfy_and(ctx, f.items, env)
    elif isinstance(f, Or):
        for g in f.items:
            yield from satisfy(ctx, g, env)
    elif isinstance(f, Implies):
        # closed propositional test: !body | head
        if not _any_satisfy(ctx, f.body, env) or _any_satisfy(ctx, f.head, env):
            yield env
    elif isinstance(f, (Exists, CountExists)):
        if free_variables(f.body) - env.keys() <= _binds(f.body, env.keys()):
            solutions = satisfy(ctx, f.body, env)
        else:
            solutions = _enumerate_then(ctx, f.body, env, {f.var})
        # project f.var away; each outer binding holds once it has `need`
        # distinct witnesses
        need = f.min if isinstance(f, CountExists) else 1
        witnesses: dict = {}
        for env2 in solutions:
            out = {k: v for k, v in env2.items() if k != f.var}
            seen = witnesses.setdefault(frozenset(out.items()), set())
            if len(seen) < need:
                seen.add(env2.get(f.var))
                if len(seen) == need:
                    yield out
    elif isinstance(f, Forall):
        # forall v.g  ==  !exists v.!g; the existential search can use indexes
        if not _any_satisfy(ctx, Exists(f.var, negate(f.body)), env):
            yield env
    else:
        raise TypeError(f)


def _enumerate_then(ctx: _Ctx, f: Formula, env: dict, unbound) -> Iterator[dict]:
    """satisfy(f) once per value of the least unbound variable in its pool."""
    var = min(unbound)
    for value in ctx.pool(var):
        yield from satisfy(ctx, f, {**env, var: value})


def _any_satisfy(ctx: _Ctx, f: Formula, env: dict) -> bool:
    for _ in satisfy(ctx, f, env):
        return True
    return False


# ---------------------------------------------------------------------------
# Binding analysis and the safe-range gate
# ---------------------------------------------------------------------------

_NOTHING: frozenset = frozenset()


def _binds(f: Formula, pre) -> frozenset:
    """The free variables of f that matching f binds once the variables in pre are bound.

    This is the one place that knows which constructs bind: the safe-range
    gate, the conjunct planner and the rule gate all read it.
    """
    if isinstance(f, AtomF):
        atom = f.atom
        if isinstance(atom, Rel):
            return free_variables(f)
        if isinstance(atom, SetMember):
            return free_variables(f) if free_variables(atom.set) <= pre else _NOTHING
        if isinstance(atom, Eq):
            if free_variables(atom.left) <= pre or free_variables(atom.right) <= pre:
                return free_variables(f)
        return _NOTHING  # a datatype relation, or an equality open on both sides
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
    if isinstance(f, (Exists, CountExists)):
        return _binds(f.body, pre) - {f.var}
    return _NOTHING  # Not, Implies and Forall only test


def check_safe_range(f: Formula) -> Optional[str]:
    """None if every variable is range-restricted; else a diagnostic."""
    problems: list = []
    _check(f, _NOTHING, problems)
    _report(problems, "free variable(s)", free_variables(f) - _binds(f, _NOTHING))
    return "; ".join(problems) if problems else None


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
    elif isinstance(f, (Exists, Forall, CountExists)):
        _check(f.body, pre, problems)
        if isinstance(f, CountExists) and f.var not in _binds(f.body, pre):
            problems.append(f"counting variable not range-restricted: {f.var}")


def _require_supported(g: Formula, bound: frozenset, problems: list) -> None:
    if isinstance(g, AtomF) and isinstance(g.atom, (DtRel, Eq)):
        kind = "datatype relation" if isinstance(g.atom, DtRel) else "equality"
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
) -> Iterator[Binding]:
    """Bindings of f's free variables satisfied by the KB (deduplicated)."""
    cfg = cfg or EvalConfig()
    problem = check_safe_range(f)
    if problem:
        raise UnsafeFormulaError(problem)
    ctx = _Ctx(kb, cfg, f, diagnostics)
    fv = free_variables(f)
    seen = set()
    count = 0
    for env in satisfy(ctx, f, {}):
        proj = {k: v for k, v in env.items() if k in fv}
        b = Binding.of(proj)
        if b in seen:
            continue
        seen.add(b)
        yield b
        count += 1
        if cfg.max_bindings is not None and count >= cfg.max_bindings:
            return


def holds(
    kb: KnowledgeBase,
    f: Formula,
    binding: Union[Binding, dict],
    cfg: Optional[EvalConfig] = None,
    diagnostics: Optional[list] = None,
) -> bool:
    """Truth of f under a total binding of its free variables."""
    cfg = cfg or EvalConfig()
    env = binding.as_dict() if isinstance(binding, Binding) else dict(binding)
    missing = free_variables(f) - env.keys()
    if missing:
        raise EvalError(f"binding missing variable(s): {', '.join(sorted(missing))}")
    return _holds(_Ctx(kb, cfg, f, diagnostics), f, env)


def _holds(ctx: _Ctx, f: Formula, env: dict) -> bool:
    if isinstance(f, AtomF):
        atom = f.atom
        if isinstance(atom, Rel):
            for _ in match_rel(ctx, atom, env):
                return True
            return False
        if isinstance(atom, SetMember):
            for _ in _match_member(atom, env):
                return True
            return False
        if isinstance(atom, Eq):
            lv = _try_resolve(atom.left, env)
            rv = _try_resolve(atom.right, env)
            return lv is not None and lv == rv
        return _eval_dtrel(ctx, atom, env)
    if isinstance(f, Not):
        return not _holds(ctx, f.body, env)
    if isinstance(f, And):
        return all(_holds(ctx, g, env) for g in f.items)
    if isinstance(f, Or):
        return any(_holds(ctx, g, env) for g in f.items)
    if isinstance(f, Implies):
        return not _holds(ctx, f.body, env) or _holds(ctx, f.head, env)
    if isinstance(f, (Exists, Forall, CountExists)):
        pool = ctx.pool(f.var)
        if isinstance(f, Forall):
            return all(_holds(ctx, f.body, {**env, f.var: v}) for v in pool)
        if isinstance(f, Exists):
            return any(_holds(ctx, f.body, {**env, f.var: v}) for v in pool)
        count = 0
        for v in pool:
            if _holds(ctx, f.body, {**env, f.var: v}):
                count += 1
                if count >= f.min:
                    return True
        return False
    raise TypeError(f)


def brute_force_evaluate(
    kb: KnowledgeBase,
    f: Formula,
    cfg: Optional[EvalConfig] = None,
    diagnostics: Optional[list] = None,
) -> Iterator[Binding]:
    """Enumerate every total binding and filter by holds (testing oracle)."""
    cfg = cfg or EvalConfig()
    ctx = _Ctx(kb, cfg, f, diagnostics)
    if len(ctx.domain) > cfg.oracle_domain_limit:
        raise DomainTooLarge(
            f"active domain has {len(ctx.domain)} constants, oracle limit is {cfg.oracle_domain_limit}")
    fv = sorted(free_variables(f))
    pools = [ctx.pool(v) for v in fv]
    count = 0
    for combo in itertools.product(*pools):
        env = dict(zip(fv, combo))
        if _holds(ctx, f, env):
            yield Binding.of(env)
            count += 1
            if cfg.max_bindings is not None and count >= cfg.max_bindings:
                return
