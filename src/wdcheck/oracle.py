"""Brute-force evaluation, the testing oracle of the evaluator.

``brute_force_evaluate`` enumerates every total binding of a formula's free
variables over the variable pools and keeps those under which ``holds``: an
object variable ranges over the active domain (the KB's constants plus the
formula's own), a set variable over the KB's qualifier sets plus the
formula's ground set literals.  Quantifiers range over the same pools, which
a parameter's values join (``params``, as ``evaluate`` takes them).
Under a total binding an atom only needs a yes or no, so the oracle
decides atoms with its own ground matcher and shares no matching code with
the evaluator: it checks the evaluator's access paths as well as its plans.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Optional, Union

from .evaluator import Binding, EvalConfig, EvalError
from .formula import (
    And,
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
    all_constants,
    free_variables,
    ground_set_literals,
    is_set_name,
)
from .model import (
    AttrSet,
    DatatypeError,
    KnowledgeBase,
    Pseudo,
    _value_sort_key,
    datatype_function,
    datatype_relation,
    witness_count,
)


class DomainTooLarge(EvalError):
    """Brute-force evaluation refused: the active domain exceeds the bound."""


class _PoolCtx:
    """One oracle run: the KB, the config, the diagnostics and the variable pools."""

    def __init__(self, kb: KnowledgeBase, cfg: EvalConfig, formula: Formula,
                 diagnostics: Optional[list] = None, params: Optional[dict] = None) -> None:
        self.kb = kb
        self.cfg = cfg
        self.diagnostics = diagnostics if diagnostics is not None else []
        self.formula = formula
        self.params = params or {}

    @cached_property
    def domain(self) -> list:
        """Object-variable pool: the KB's, the formula's and the parameters' constants, sorted."""
        dom = set(self.kb.active_domain()) | all_constants(self.formula)
        for v in self.params.values():  # a set parameter's attributes and values
            dom.update(itertools.chain.from_iterable(v) if isinstance(v, AttrSet) else (v,))
        return sorted(dom, key=_value_sort_key)

    @cached_property
    def set_domain(self) -> list:
        """Set-variable pool: the KB's qualifier sets, the formula's ground literals and params."""
        sets = {v for v in self.params.values() if isinstance(v, AttrSet)}
        return sorted(self.kb.attr_sets() | ground_set_literals(self.formula) | sets, key=str)

    def pool(self, var: str) -> list:
        return self.set_domain if is_set_name(var) else self.domain

    @cached_property
    def facts(self) -> dict:
        """(property, subject, value) -> the qualifier sets of the statements and rows the
        atoms see; a row's property is its table's name, as a builtin atom's predicate is."""
        out: dict = {}
        for st in self.kb.facts():
            if st.rank != "deprecated" or self.cfg.include_deprecated:
                out.setdefault((st.property, st.subject, st.value), []).append(st.qualifiers)
        return out


def _value(t, env: dict):
    """A term's value under a total binding; DatatypeError where a function is undefined."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (ObjVar, SetVar)):
        return env[t.name]
    if isinstance(t, FuncApp):
        return datatype_function(t.name, *[_value(a, env) for a in t.args])
    return AttrSet.of((_value(a, env), _value(v, env)) for a, v in t.pairs)


def _defined(t, env: dict):
    """A term's value, or None where a function is undefined: nothing equals it."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (ObjVar, SetVar)):
        return env[t.name]
    try:
        return _value(t, env)
    except DatatypeError:
        return None


def _literal_matches(attrs: SetLiteral, quals: AttrSet, env: dict) -> bool:
    """Does a set literal match a statement's qualifier set under a total binding?

    It does when its pairs are distinct and are exactly the set's pairs; the
    set's pseudo pairs count only if the literal names a pseudo attribute.
    """
    pairs = [(_defined(a, env), _defined(v, env)) for a, v in attrs.pairs]
    if not any(isinstance(a, Const) and isinstance(a.value, Pseudo) for a, _v in attrs.pairs):
        quals = quals.without_pseudo()
    distinct = set(pairs)
    return len(distinct) == len(pairs) and distinct == quals.pairs


def _rel_holds(ctx: _PoolCtx, rel: Rel, env: dict) -> bool:
    pred = rel.pred if isinstance(rel.pred, str) else _defined(rel.pred, env)
    found = ctx.facts.get((pred, _defined(rel.args[0], env), _defined(rel.args[1], env)), ())
    if rel.attrs is None or not found:
        return bool(found)
    if isinstance(rel.attrs, SetVar):
        return env[rel.attrs.name] in found
    return any(_literal_matches(rel.attrs, quals, env) for quals in found)


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
    return _holds(_PoolCtx(kb, cfg, f, diagnostics), f, env)


def _holds(ctx: _PoolCtx, f: Formula, env: dict) -> bool:
    if isinstance(f, And):
        for g in f.items:
            if not _holds(ctx, g, env):
                return False
        return True
    if isinstance(f, Rel):
        return _rel_holds(ctx, f, env)
    if isinstance(f, SetMember):
        target = _defined(f.set, env)
        return target is not None and (_defined(f.attr, env), _defined(f.value, env)) in target
    if isinstance(f, Eq):
        lv = _defined(f.left, env)
        return lv is not None and lv == _defined(f.right, env)
    if isinstance(f, DtRel):
        try:
            return datatype_relation(f.name, *[_value(t, env) for t in f.args])
        except DatatypeError as exc:
            ctx.diagnostics.append(str(exc))
            return False
    if isinstance(f, Not):
        return not _holds(ctx, f.body, env)
    if isinstance(f, Or):
        return any(_holds(ctx, g, env) for g in f.items)
    if isinstance(f, Implies):
        return not _holds(ctx, f.body, env) or _holds(ctx, f.head, env)
    if isinstance(f, Forall):
        return all(_holds(ctx, f.body, {**env, f.var: v}) for v in ctx.pool(f.var))
    if isinstance(f, Exists):
        need, found = f.count or 1, 0
        if not isinstance(need, int):  # exists[?k]; 0 when ?k is no count: false
            need = witness_count(_value(f.count, env), ctx.diagnostics)
        for v in ctx.pool(f.var) if need else ():
            if _holds(ctx, f.body, {**env, f.var: v}):
                found += 1
                if found == need:
                    return True
        return False
    raise TypeError(f)


def brute_force_evaluate(
    kb: KnowledgeBase,
    f: Formula,
    cfg: Optional[EvalConfig] = None,
    diagnostics: Optional[list] = None,
    params: Optional[dict] = None,
) -> Iterator[Binding]:
    """Enumerate every total binding and filter by holds (testing oracle); the
    bindings leave out the variables that ``params`` binds."""
    cfg = cfg or EvalConfig()
    params = dict(params or {})
    ctx = _PoolCtx(kb, cfg, f, diagnostics, params)
    if len(ctx.domain) > cfg.oracle_domain_limit:
        raise DomainTooLarge(
            f"active domain has {len(ctx.domain)} constants, oracle limit is {cfg.oracle_domain_limit}")
    fv = sorted(free_variables(f) - params.keys())
    pools = [ctx.pool(v) for v in fv]
    count = 0
    for combo in itertools.product(*pools):
        env = dict(zip(fv, combo))
        if _holds(ctx, f, {**params, **env}):
            yield Binding.of(env)
            count += 1
            if cfg.max_bindings is not None and count >= cfg.max_bindings:
                return
