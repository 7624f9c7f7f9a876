"""Brute-force evaluation, the testing oracle of the evaluator.

``brute_force_evaluate`` enumerates every total binding of a formula's free
variables over the variable pools and keeps those under which ``holds``: an
object variable ranges over the active domain (the KB's constants plus the
formula's own), a set variable over the KB's qualifier sets plus the
formula's ground set literals.  Quantifiers range over the same pools.  The
oracle shares atom matching (``match_rel``) with the evaluator, so it checks
the evaluator's plans, not statement matching.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Optional, Union

from .evaluator import (
    Binding,
    EvalConfig,
    EvalError,
    _Ctx,
    _eval_dtrel,
    _match_member,
    _try_resolve,
    match_rel,
)
from .formula import (
    And,
    AtomF,
    CountExists,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    SetMember,
    all_constants,
    free_variables,
    ground_set_literals,
    is_set_name,
)
from .model import KnowledgeBase, _value_sort_key


class DomainTooLarge(EvalError):
    """Brute-force evaluation refused: the active domain exceeds the bound."""


class _PoolCtx(_Ctx):
    """An evaluation context with the variable pools, built on first use."""

    def __init__(self, kb: KnowledgeBase, cfg: EvalConfig, formula: Formula,
                 diagnostics: Optional[list] = None) -> None:
        super().__init__(kb, cfg, diagnostics)
        self.formula = formula

    @cached_property
    def domain(self) -> list:
        """Object-variable pool: the KB's and the formula's constants, sorted."""
        dom = set(self.kb.active_domain()) | all_constants(self.formula)
        return sorted(dom, key=_value_sort_key)

    @cached_property
    def set_domain(self) -> list:
        """Set-variable pool: the KB's qualifier sets and the formula's ground literals."""
        return sorted(self.kb.attr_sets() | ground_set_literals(self.formula), key=str)

    def pool(self, var: str) -> list:
        return self.set_domain if is_set_name(var) else self.domain


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
    ctx = _PoolCtx(kb, cfg, f, diagnostics)
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
