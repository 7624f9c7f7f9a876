"""Formula evaluation: index-driven search against the brute-force oracle."""

import copy
import pathlib
import pickle
import re
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import kb_from
from wdcheck.evaluator import (
    Binding,
    EvalConfig,
    EvalError,
    UnsafeFormulaError,
    _Ctx,
    check_safe_range,
    evaluate,
    solve,
)
from wdcheck.formula import (
    And,
    Const,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    ObjVar,
    Or,
    Rel,
    SetMember,
    SetVar,
    all_constants,
    free_variables,
    parse,
)
from wdcheck.ingest import load_wikidata_json
from wdcheck.model import AttrSet, KnowledgeBase, P, Q, StringVal
from wdcheck.oracle import DomainTooLarge, brute_force_evaluate, holds
from wdcheck.rules import closure


def rows(kb, text, cfg=None):
    """Evaluate and project bindings to printable dicts, order-insensitive."""
    out = []
    for b in evaluate(kb, parse(text), cfg):
        out.append({k: str(v) for k, v in b.as_dict().items()})
    return sorted(out, key=lambda d: sorted(d.items()))


def _agrees(kb, text, domain_limit):
    """evaluate and the brute-force oracle give the same bindings."""
    f = parse(text)
    cfg = EvalConfig(oracle_domain_limit=domain_limit)
    return set(evaluate(kb, f, cfg)) == set(brute_force_evaluate(kb, f, cfg))


class TestAtoms:
    def test_relational_atom_binds_all_positions(self, family_kb):
        got = rows(family_kb, "P26(?x, ?y)")
        assert {"x": "Q1", "y": "Q2"} in got
        assert {"x": "Q3", "y": "Q4"} in got

    def test_variable_predicate(self, family_kb):
        got = rows(family_kb, "?p(Q3, ?o)")
        assert {"p": "P26", "o": "Q4"} in got

    @pytest.mark.parametrize("text", [
        "P31(?p, Q5) & ?p(?x, ?y)",
        "P31(?p, Q5) & ?p(?x, ?y) & P26(?x, ?z)",  # the open atoms are costed
    ])
    def test_predicate_variable_bound_to_an_item(self, text):
        # ?p is Q1 or P26; only the property matches statements
        kb = kb_from("P31(Q1, Q5)\nP31(P26, Q5)\nP26(Q1, Q2)\nP26(Q2, Q3)\nP26(Q3, Q1)\n")
        assert {d["p"] for d in rows(kb, text)} == {"P26"}
        assert _agrees(kb, text, 12)

    def test_attr_set_variable(self, family_kb):
        got = list(evaluate(family_kb, parse("P26(Q1, Q2)@?SQ")))
        assert len(got) == 1
        quals = got[0]["SQ"]
        assert str(Q(1)) not in str(quals)  # binding holds the attribute set
        assert "P580" in str(quals)

    def test_set_literal_ignores_mirrored_pseudo(self, family_kb):
        # literal without pseudo pairs matches modulo rank/reference mirroring
        assert rows(family_kb, "P26(Q1, Q2)@{P580: 1988-06-12}") == [{}]
        # mentioning rank switches to exact matching
        assert rows(family_kb,
                    'P26(Q2, Q1)@{P580: 1988-06-12, rank: "normal"}') == [{}]
        assert rows(family_kb,
                    'P26(Q2, Q1)@{P580: 1988-06-12, rank: "preferred"}') == []

    def test_set_membership(self, family_kb):
        got = rows(family_kb, "P1082(Q7, ?o)@?SQ & (P585 : ?v) in ?SQ")
        assert got == [{"o": "39000", "v": "2020-01-01T00:00:00/11", "SQ": got[0]["SQ"]}]

    def test_no_value_builtin(self, family_kb):
        assert rows(family_kb, "no_value(?p, ?s)") == [{"p": "P40", "s": "Q3"}]

    def test_commons_builtin(self, family_kb):
        got = rows(family_kb, "Commons_namespace(?page, ?ns)")
        assert got == [{"page": '"Douglas Adams"', "ns": '"Category"'}]

    def test_deprecated_excluded_by_default(self, family_kb):
        assert len(rows(family_kb, "P1082(Q7, ?o)")) == 1
        assert len(rows(family_kb, "P1082(Q7, ?o)",
                        EvalConfig(include_deprecated=True))) == 2

    def test_equality_binds(self, family_kb):
        assert rows(family_kb, "P26(Q1, ?y) & ?z = ?y") == [{"y": "Q2", "z": "Q2"}]

    def test_set_literal_matches_pairs_bijectively(self):
        kb = kb_from("P26(Q1, Q2) @ {P580: 1988-06-12}\n"
                     "P26(Q3, Q4) @ {P580: 1990-01-01, P582: 2000-01-01}")
        assert rows(kb, "P26(?x, ?y)@{P580: ?d}") == [
            {"x": "Q1", "y": "Q2", "d": "1988-06-12T00:00:00/11"}]
        # (?a : ?e) is tried against P580 first, then backtracks to P582
        f = "P26(?x, ?y)@{P580: ?d, ?a: ?e}"
        assert rows(kb, f) == [{"x": "Q3", "y": "Q4", "d": "1990-01-01T00:00:00/11",
                                "a": "P582", "e": "2000-01-01T00:00:00/11"}]
        assert _agrees(kb, f, 13)

    def test_set_literal_resolved_under_bound_variables(self):
        kb = kb_from("P26(Q1, Q2) @ {P580: 1988-06-12}\n"
                     "P26(Q3, Q4) @ {P580: 1990-01-01, P582: 2000-01-01}")
        # every qualifier set carries the rank pair; only Q1's has nothing else
        f = 'P26(?x, ?y)@?S & (P580 : ?d) in ?S & ?S != {P580: ?d, rank: "normal"}'
        got = rows(kb, f)
        assert [(r["x"], r["y"], r["d"]) for r in got] == [
            ("Q3", "Q4", "1990-01-01T00:00:00/11")]
        assert _agrees(kb, f, 13)

    def test_function_term_on_dates(self):
        kb = kb_from("P569(Q1, 1900-01-01)\nP570(Q1, 1950-01-01)\n"
                     "P569(Q2, 1800-01-01)\nP570(Q2, 1950-01-01)\n")
        # lived longer than 1900-01-01 .. 2000-01-01, i.e. 36,524 days
        f = ("P570(?s, ?d) & P569(?s, ?b)"
             " & !leq(difference(?d, ?b), difference(2000-01-01, 1900-01-01))")
        assert [r["s"] for r in rows(kb, f)] == ["Q2"]
        assert _agrees(kb, f, 12)

    @pytest.mark.parametrize("a, b, expected", [
        ("2020-02-10/10", "2020-02-29", True),  # February 2020 has 29 days
        ("2020-02-10/10", "2020-03-01", False),
        ("2020-02-10T13:25:40/12", "2020-02-10T13:59:59/14", True),
        ("2020-02-10T13:25:40/12", "2020-02-10T14:00:00/14", False),
        ("2020-02-10T13:25:40/13", "2020-02-10T13:25:00/14", True),
        ("2020-02-10T13:25:40/13", "2020-02-10T13:26:00/14", False),
        ("2020-02-10T13:25:40/14", "2020-02-10T13:25:40/14", True),
        ("2020-02-10T13:25:40/14", "2020-02-10T13:25:41/14", False),
    ])
    def test_overlaps_at_fine_precisions(self, a, b, expected):
        kb = kb_from(f"P585(Q1, {a})")
        f = f"P585(Q1, ?t) & overlaps(?t, {b})"
        assert len(rows(kb, f)) == int(expected)
        assert rows(kb, f"P585(Q1, ?t) & overlaps({b}, ?t)") == rows(kb, f)
        assert _agrees(kb, f, 12)

    def test_datatype_relation_mismatch_is_false_with_diagnostic(self, family_kb):
        diags = []
        got = list(evaluate(family_kb, parse("P26(Q1, ?o) & integer(?o)"),
                            EvalConfig(), diags))
        assert got == []
        assert diags and "integer" in str(diags[0])

    def test_diagnostics_come_with_the_binding_found_after_them(self):
        # the bindings are collected first; each is yielded with the
        # diagnostics the search had recorded when it found that binding
        kb = kb_from("P1(Q1, 5)\nP1(Q2, Q9)\nP1(Q3, 7)\n")
        diags: list = []
        got = [(b["x"], len(diags)) for b in evaluate(
            kb, parse("P1(?x, ?v) & integer(?v)"), EvalConfig(), diags)]
        assert got == [(Q(1), 0), (Q(3), 1)]


class TestConnectives:
    def test_negation(self, family_kb):
        got = rows(family_kb, "P26(?x, ?y) & !P26(?y, ?x)")
        assert got == [{"x": "Q3", "y": "Q4"}]

    def test_disjunction_dedup(self, family_kb):
        got = rows(family_kb, "P31(?x, Q5) | P31(?x, Q5)")
        assert got == [{"x": "Q1"}, {"x": "Q2"}, {"x": "Q3"}]

    def test_exists_projects(self, family_kb):
        got = rows(family_kb, "P31(?x, Q5) & exists ?y . P26(?x, ?y)")
        assert got == [{"x": "Q1"}, {"x": "Q2"}, {"x": "Q3"}]

    def test_implication_inside_conjunction(self):
        kb = kb_from("P26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)\nP31(Q1, Q5)")
        # (Q2, Q1) has its inverse but Q2 is not a Q5; (Q3, Q4) has no inverse
        f = "P26(?x, ?y) & (P26(?y, ?x) -> P31(?x, Q5))"
        assert rows(kb, f) == [{"x": "Q1", "y": "Q2"}, {"x": "Q3", "y": "Q4"}]
        assert _agrees(kb, f, 12)

    def test_forall(self, family_kb):
        got = rows(family_kb, "P31(?x, Q5) & (forall ?y . (P26(?x, ?y) -> P26(?y, ?x)))")
        assert got == [{"x": "Q1"}, {"x": "Q2"}]

    def test_counting_quantifier(self):
        kb = kb_from("P26(Q1, Q2)\nP26(Q1, Q3)\nP26(Q4, Q5)")
        got = rows(kb, "P26(?x, ?o) & exists[2] ?y . P26(?x, ?y)")
        assert got == [{"x": "Q1", "o": "Q2"}, {"x": "Q1", "o": "Q3"}]
        # the count groups by the outer variables the body binds
        assert rows(kb, "exists[2] ?y . P26(?x, ?y)") == [{"x": "Q1"}]
        # an equality binds the counted variable too
        assert len(rows(kb, "P26(?x, ?o) & exists[1] ?y . ?y = ?o")) == 3
        assert rows(kb, "P26(?x, ?o) & exists[2] ?y . ?y = ?o") == []

    def test_counting_quantifier_with_a_variable_count(self):
        kb = kb_from("P26(Q1, Q2)\nP26(Q1, Q3)\nP26(Q4, Q5)\nP1(Q1, 2)\nP1(Q4, 2)\nP1(Q4, 1)")
        f = "P1(?x, ?k) & exists[?k] ?y . P26(?x, ?y)"
        assert rows(kb, f) == [{"x": "Q4", "k": "1"}, {"x": "Q1", "k": "2"}]
        negated = "P1(?x, ?k) & P26(?x, ?o) & !(exists[?k] ?y . P26(?x, ?y))"
        assert rows(kb, negated) == [{"x": "Q4", "k": "2", "o": "Q5"}]
        assert _agrees(kb, f, 12) and _agrees(kb, negated, 12)
        # the count must be bound outside the quantifier, not by its own body
        for text in ("exists[?k] ?y . P26(?x, ?y)", "exists[?k] ?y . P26(?x, ?y) & P1(?x, ?k)"):
            assert check_safe_range(parse(text)) == "free variable(s) not range-restricted: k"

    @pytest.mark.parametrize("count", ["2.5", "0", "-1", '"2"', "2 unit=Q11573", "Q2"])
    def test_a_count_that_is_no_positive_integer_is_false_with_diagnostic(self, count):
        kb = kb_from(f"P26(Q1, Q2)\nP26(Q1, Q3)\nP1(Q1, {count})")
        f = parse("P1(?x, ?k) & exists[?k] ?y . P26(?x, ?y)")
        diagnostics: list = []
        assert list(evaluate(kb, f, None, diagnostics)) == []
        assert diagnostics and "a count must be a positive integer" in diagnostics[0]
        negated = parse("P1(?x, ?k) & !(exists[?k] ?y . P26(?x, ?y))")
        assert set(evaluate(kb, negated)) == set(brute_force_evaluate(kb, negated)) != set()

    def test_index_driven_queries_never_build_the_domain(self, family_kb, monkeypatch):
        def refuse():
            raise AssertionError("variable pool built")

        monkeypatch.setattr(family_kb, "active_domain", refuse)
        monkeypatch.setattr(family_kb, "attr_sets", refuse)
        assert rows(family_kb, "P26(?x, ?y) & !P26(?y, ?x)") == [{"x": "Q3", "y": "Q4"}]
        got = rows(family_kb, "P31(?x, Q5) & !(forall ?y . (P26(?x, ?y) -> P26(?y, ?x)))")
        assert got == [{"x": "Q3"}]
        got = rows(family_kb, "exists[1] ?y . P26(?x, ?y)")
        assert got == [{"x": "Q1"}, {"x": "Q2"}, {"x": "Q3"}]

    def test_max_bindings(self, family_kb):
        got = list(evaluate(family_kb, parse("P31(?x, Q5)"), EvalConfig(max_bindings=2)))
        assert len(got) == 2


@pytest.mark.parametrize("text", [
    "P26(?x, ?y) & forall ?z . (P26(?y, ?z) -> ?z = ?x)",
    "P26(?x, ?y) & !(forall ?z . (P26(?y, ?z) -> ?z = ?x))",
])
def test_forall_witness_is_built_once(family_kb, text):
    # the gate checks, and the plans search for, the same exists ?z . !(...)
    f = parse(text)
    forall = next(g for g in f.items[1:] + (f.items[1].body,) if isinstance(g, Forall))
    assert check_safe_range(f) is None
    witness = forall._memo["witness"]
    assert isinstance(witness, Exists) and witness.var == "z"
    list(evaluate(family_kb, f))
    assert forall._memo["witness"] is witness
    assert any(isinstance(key, frozenset) for key in witness._memo)  # planned


class TestSafeRange:
    @pytest.mark.parametrize("text", [
        "P26(?x, ?y) & !P26(?y, ?x)",
        "P26(?x, ?y) & ?z = ?y",
        "exists ?SQ . P26(?x, ?y)@?SQ",
        "no_value(?p, ?s) & !(exists ?o . ?p(?s, ?o))",
        "P26(?x, ?y) & exists[2] ?o . P26(?x, ?o)",
    ])
    def test_safe(self, text):
        assert check_safe_range(parse(text)) is None

    @pytest.mark.parametrize("text", [
        "!P26(?x, ?y)",
        "?x = ?y",
        "integer(?o)",
        "P26(?x, ?y) | P31(?x, ?z)",
        "P26(?x, ?y) & !P31(?x, ?z)",
        # a variable inside a set literal is bound only by some other atom
        "(?a : ?b) in {P580: ?x}",
        "P26(?y, ?z) & (P580 : ?z) in {P580: ?x}",
    ])
    def test_unsafe(self, text):
        assert check_safe_range(parse(text)) is not None

    def test_counting_variable_must_be_bound(self):
        assert check_safe_range(parse("P26(?x, ?y) & exists[2] ?o . !P26(?x, ?o)")) == \
            "counting variable not range-restricted: o"

    @pytest.mark.parametrize("text,var", [
        ("exists ?z . !P31(?z, Q1)", "z"),
        ("forall ?z . P31(?z, Q1)", "z"),  # its witness, exists ?z . !P31(?z, Q1), binds nothing
        ("P26(?x, ?y) & exists ?z . !P31(?z, ?y)", "z"),
        # the outer ?x is not the inner one, which nothing in the body binds
        ("P26(?x, ?y) & exists ?x . (P31(?y, Q1) & !P31(?x, Q1))", "x"),
        ("P26(?x, ?y) & forall ?x . (P31(?y, Q1) & P31(?x, Q1))", "x"),
    ])
    def test_quantified_variable_must_be_bound(self, text, var):
        assert check_safe_range(parse(text)) == f"quantified variable not range-restricted: {var}"

    @pytest.mark.parametrize("text", [
        "forall ?z . !P31(?z, Q1)",
        "forall ?z . (P31(?z, Q1) -> P26(?z, Q2))",
        "P26(?x, ?y) & exists ?x . P31(?x, ?y)",
        "P26(?x, ?y) & forall ?x . !P31(?x, ?y)",
    ])
    def test_quantified_variable_bound_by_its_witness(self, text):
        assert check_safe_range(parse(text)) is None

    def test_evaluate_rejects_unsafe(self, family_kb):
        with pytest.raises(UnsafeFormulaError):
            list(evaluate(family_kb, parse("!P26(?x, ?y)")))


class TestShadowing:
    """An inner binder that reuses a name binds a variable of its own."""

    def test_shadowed_bound_variable_is_local(self):
        kb = kb_from("P31(Q3, Q1)\nP31(Q4, Q2)\n")  # no ?x is an instance of both
        assert rows(kb, "exists ?x . (P31(?x, Q1) & exists ?x . P31(?x, Q2))") == [{}]
        assert _agrees(kb, "exists ?x . (P31(?x, Q1) & exists ?x . P31(?x, Q2))", 12)

    def test_inner_binder_does_not_capture(self):
        text = "P26(?x, ?x) & exists ?x . exists ?x_2 . P26(?x, ?x_2)"
        kb = kb_from("P26(Q1, Q1)\nP26(Q2, Q3)\n")
        assert rows(kb, text) == [{"x": "Q1"}]
        assert _agrees(kb, text, 12)

    def test_outer_value_is_hidden_from_the_body(self):
        # the body's ?x = Q1 binds the inner ?x; it does not test the outer one
        text = "P26(?x, ?y) & exists ?x . (P31(?x, ?y) & ?x = Q1)"
        kb = kb_from("P26(Q2, Q3)\nP31(Q1, Q3)\n")
        assert rows(kb, text) == [{"x": "Q2", "y": "Q3"}]
        assert _agrees(kb, text, 12)

    def test_outer_value_does_not_make_a_conjunct_ready(self, family_kb):
        # ?z = ?x binds ?z only under the inner ?x, which nothing binds
        with pytest.raises(EvalError) as exc:
            list(solve(_Ctx(family_kb, EvalConfig()), parse("P26(?x, ?y) & exists ?x . ?z = ?x"), {}))
        assert str(exc.value) == "cannot evaluate (exists ?x . ?z = ?x): nothing binds ?z"

    def test_shadowed_planner_names_the_variable_written(self, family_kb):
        f = And((Rel(Const(P(26)), (ObjVar("x"), ObjVar("y"))),
                 Exists("x", Not(Rel(Const(P(31)), (ObjVar("x"), ObjVar("y")))))))
        with pytest.raises(EvalError, match=re.escape("exists ?x . !P31(?x, ?y): nothing binds ?x")):
            list(solve(_Ctx(family_kb, EvalConfig()), f, {}))


class TestPlans:
    @pytest.mark.parametrize("text,named", [
        ("!P26(?x, ?y)", "!P26(?x, ?y)"),
        ("forall ?y . P26(?x, ?y)", "forall ?y . P26(?x, ?y)"),
        ("P31(?x, ?c) -> P26(?x, ?y)", "P31(?x, ?c) -> P26(?x, ?y)"),
        ("P26(?x, ?y) & integer(?z)", "integer(?z)"),
        ("exists ?y . integer(?y)", "exists ?y . integer(?y)"),
    ])
    def test_no_domain_fallback(self, family_kb, text, named):
        # past the safe-range gate, a construct that cannot bind what it
        # leaves open is an error, not an enumeration of the domain
        with pytest.raises(EvalError, match=f"cannot evaluate {re.escape(named)}:"):
            list(solve(_Ctx(family_kb, EvalConfig()), parse(text), {}))

    def test_plan_cached_per_bound_variables(self, family_kb):
        f = parse("P26(?x, ?y) & !P26(?y, ?x)")
        list(evaluate(family_kb, f))
        plan = f._memo[frozenset()]
        list(evaluate(family_kb, f))
        assert f._memo[frozenset()] is plan

    def test_params_bound_before_the_search(self, family_kb):
        f = parse("?p(?x, ?y) & !?p(?y, ?x)")
        got = [b.as_dict() for b in evaluate(family_kb, f, params={"p": P(26)})]
        assert got == [{"x": Q(3), "y": Q(4)}]


class TestHolds:
    def test_ground_truth(self, family_kb):
        assert holds(family_kb, parse("P26(Q1, Q2)"), {})
        assert not holds(family_kb, parse("P26(Q4, Q3)"), {})

    def test_requires_total_binding(self, family_kb):
        with pytest.raises(Exception):
            holds(family_kb, parse("P26(?x, ?y)"), {"x": Q(1)})

    def test_binding_values(self, family_kb):
        env = {"x": Q(3), "y": Q(4)}
        assert holds(family_kb, parse("P26(?x, ?y) & !P26(?y, ?x)"), env)


class TestOracle:
    def test_oracle_refuses_large_domain(self):
        lines = "\n".join(f"P26(Q{i}, Q{i + 100})" for i in range(1, 10))
        with pytest.raises(DomainTooLarge):
            list(brute_force_evaluate(kb_from(lines), parse("P26(?x, ?y)")))

    def test_params_are_bound_and_join_the_pools(self):
        # what evaluate's params bind, the oracle binds too, and leaves out of the bindings
        kb = kb_from("P26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)")
        q = parse("?p(?x, ?y) & !?p(?y, ?x) & (P580 : ?v) in ?CQ")
        params = {"p": P(26), "CQ": AttrSet.of([(P(580), Q(9))])}
        got = set(brute_force_evaluate(kb, q, params=params))
        assert got == set(evaluate(kb, q, params=params))
        assert [b.as_dict() for b in got] == [{"x": Q(3), "y": Q(4), "v": Q(9)}]
        # a parameter's values widen the domain, as they would written in as constants
        with pytest.raises(DomainTooLarge):
            list(brute_force_evaluate(kb, q, EvalConfig(oracle_domain_limit=6), params=params))

    def test_agreement_on_fixture(self):
        kb = kb_from("P26(Q1, Q2)\nP26(Q2, Q1)\nP26(Q3, Q4)")
        q = parse("P26(?x, ?y) & !P26(?y, ?x)")
        assert set(evaluate(kb, q)) == set(brute_force_evaluate(kb, q))


# ---------------------------------------------------------------------------
# Property: evaluate agrees with the brute-force oracle on random KBs
# ---------------------------------------------------------------------------

_QUERIES = [
    "P26(?x, ?y) & !P26(?y, ?x)",
    "P26(?x, ?y)@?SQ & (P585 : ?v) in ?SQ",
    "P31(?x, ?c) & exists ?y . (P26(?x, ?y) & P31(?y, ?c))",
    "P26(?x, ?o1) & exists[2] ?o . P26(?x, ?o)",
    "P26(?x, ?y) & (forall ?z . (P26(?y, ?z) -> P26(?z, ?y)))",
    "P31(?x, ?c) & !(exists ?y . P26(?x, ?y))",
    "no_value(?p, ?s) & !(exists ?o . ?p(?s, ?o))",
    'P26(?x, ?y)@?SQ & !((rank : "preferred") in ?SQ)',
]

_statement_lines = st.lists(
    st.tuples(
        st.sampled_from(["P26", "P31"]),
        st.sampled_from(["Q1", "Q2", "Q3"]),
        st.sampled_from(["Q1", "Q2", "Q3"]),
        st.sampled_from(["", " @ {P585: 2020-01-01}"]),
        st.sampled_from(["", " rank=preferred", " rank=deprecated"]),
    ),
    min_size=0, max_size=5,
)


@settings(max_examples=120, deadline=None)
@given(_statement_lines, st.booleans(), st.sampled_from(_QUERIES))
def test_random_kb_oracle_agreement(stmts, with_no_value, query):
    lines = [f"{p}({s}, {o}){quals}{trailer}" for p, s, o, quals, trailer in stmts]
    if with_no_value:
        lines.append("no_value(P26, Q3)")
    kb = kb_from("\n".join(lines))
    f = parse(query)
    cfg = EvalConfig()
    assert set(evaluate(kb, f, cfg)) == set(brute_force_evaluate(kb, f, cfg))


# ---------------------------------------------------------------------------
# Property: a quantifier's variable is local to its body
# ---------------------------------------------------------------------------

# Binders draw from the names the atoms use, so an inner quantifier often
# reuses the name of an outer one or of a free variable.  A quantifier
# mostly guards its body with an atom that binds its variable, as a
# safe-range formula must.
_PREDS = st.sampled_from([P(26), P(31)])
_SCOPE_TERMS = st.sampled_from([ObjVar("x"), ObjVar("y"), Const(Q(1)), Const(Q(2))])
_SCOPE_ATOMS = st.one_of(
    st.builds(lambda p, a, b, s: Rel(Const(p), (a, b), s), _PREDS,
              _SCOPE_TERMS, _SCOPE_TERMS, st.sampled_from([None, SetVar("S")])),
    st.builds(lambda v: SetMember(Const(P(585)), v, SetVar("S")), _SCOPE_TERMS),
    st.builds(Eq, _SCOPE_TERMS, _SCOPE_TERMS),
)


def _guard(v: str):
    """A statement atom that binds ?v."""
    if v == "S":
        return st.builds(lambda p, a, b: Rel(Const(p), (a, b), SetVar("S")),
                         _PREDS, _SCOPE_TERMS, _SCOPE_TERMS)
    return st.builds(lambda p, t, first: Rel(Const(p), (ObjVar(v), t) if first else (t, ObjVar(v))),
                     _PREDS, _SCOPE_TERMS, st.booleans())


def _quantified(v: str, sub):
    kinds = [
        st.builds(lambda g, b: Exists(v, And((g, b))), _guard(v), sub),
        st.builds(lambda g, b: Forall(v, Implies(g, b)), _guard(v), sub),
        st.builds(lambda b: Exists(v, b), sub),
    ]
    if v != "S":
        kinds.append(st.builds(lambda g, b: Exists(v, And((g, b)), 2), _guard(v), sub))
    return st.one_of(kinds)


_SCOPE_FORMULAS = st.recursive(_SCOPE_ATOMS, lambda sub: st.one_of(
    st.builds(Not, sub),
    st.builds(lambda a, b: And((a, b)), sub, sub),
    st.builds(lambda a, b: Or((a, b)), sub, sub),
    st.sampled_from(["x", "y", "S"]).flatmap(lambda v: _quantified(v, sub)),
), max_leaves=4)
_SPOUSES = Rel(Const(P(26)), (ObjVar("x"), ObjVar("y")), SetVar("S"))
# a binder of ?v where ?v is free outside it, or inside a binder of ?v
_SHADOWING = st.sampled_from(["x", "y", "S"]).flatmap(lambda v: st.one_of(
    _quantified(v, _SCOPE_FORMULAS).map(lambda q: And((_SPOUSES, q))),
    _quantified(v, _quantified(v, _SCOPE_FORMULAS)),
))


@settings(max_examples=200, deadline=None)
@given(_statement_lines, _SHADOWING)
def test_shadowing_binders_agree_with_the_oracle(stmts, f):
    assume(check_safe_range(f) is None)
    kb = kb_from("\n".join(f"{p}({s}, {o}){quals}{trailer}" for p, s, o, quals, trailer in stmts))
    cfg = EvalConfig(oracle_domain_limit=20)
    assert set(evaluate(kb, f, cfg)) == set(brute_force_evaluate(kb, f, cfg))


# ---------------------------------------------------------------------------
# Property: each access path agrees with the oracle's own ground matcher
# ---------------------------------------------------------------------------

# Object variables come from a pool of three, so a position holds a fresh
# variable, a repeat of one in the same atom, or one that the other atom or a
# parameter binds; ?S is the one set variable.  Each atom starts from a KB
# statement, so that many atoms match something.
_VARS = ["?a", "?b", "?c"]
_QUALIFIER_TERMS = ["", "@?S", "@{}", "@{P3: Q1}", '@{rank: "normal"}']
_STATEMENTS = st.tuples(
    st.sampled_from(["P1", "P2"]),
    st.sampled_from(["Q1", "Q2", "P1"]),
    st.sampled_from(["Q1", "Q2", "1", "2"]),
    st.sampled_from(["", "P3: Q1", "P3: Q2", "P3: Q1, P3: Q2"]),
    st.sampled_from(["normal", "preferred", "deprecated"]),
)


@st.composite
def _rel_atom(draw, stmts):
    """An atom shaped after one of the statements, and the variables that
    occur in it only inside a function term."""
    p, s, o, q, rank = draw(st.sampled_from(stmts))
    pred = draw(st.sampled_from([p, p, "P2", "Q1"] + _VARS))
    subj = draw(st.sampled_from([s, s, "Q2"] + _VARS))
    value = draw(st.sampled_from([o, o, "1"] + _VARS))
    quals = draw(st.sampled_from(_QUALIFIER_TERMS))
    if draw(st.booleans()):  # a literal made from the statement's qualifiers
        pairs = [pair.split(": ") for pair in q.split(", ") if pair]
        if draw(st.booleans()):  # naming the rank pseudo attribute
            pairs.append(["rank", f'"{rank}"'])
        quals = "@{" + ", ".join(": ".join(draw(st.sampled_from([t, t] + _VARS)) for t in pair)
                                 for pair in pairs) + "}"
    arg = None
    if draw(st.integers(0, 3)) == 0:  # a function term in the value or the subject position
        arg = draw(st.sampled_from(_VARS))
        value, subj = (f"difference({arg}, 1)", subj) if draw(st.booleans()) \
            else (value, f"difference(2, {arg})")
    bare = {t for t in (pred, subj, value) if t in _VARS} | {x for x in _VARS if x in quals}
    return f"{pred}({subj}, {value}){quals}", {arg[1:]} - {x[1:] for x in bare} if arg else set()


@settings(max_examples=200, deadline=None)
@given(st.lists(_STATEMENTS, min_size=1, max_size=4), st.booleans(), st.data())
def test_access_paths_agree_with_the_oracle(stmts, include_deprecated, data):
    kb = kb_from("\n".join(f"{p}({s}, {o}) @ {{{q}}} rank={r}" for p, s, o, q, r in stmts))
    atoms = data.draw(st.lists(_rel_atom(stmts), min_size=1, max_size=2))
    f = parse(" & ".join(text for text, _needs in atoms))
    cfg = EvalConfig(include_deprecated=include_deprecated, oracle_domain_limit=14)
    domain = sorted(kb.active_domain() | all_constants(f), key=str)
    names = sorted(free_variables(f))
    # a variable that occurs in an atom only inside a function term is a parameter
    bound = data.draw(st.sets(st.sampled_from(names), max_size=2)) if names else set()
    params = {name: data.draw(st.sampled_from(sorted(kb.attr_sets(), key=str)
                                              if name == "S" else domain))
              for name in sorted(bound.union(*(needs for _text, needs in atoms)))}
    got = set(evaluate(kb, f, cfg, params=params))
    want = {Binding.of({k: v for k, v in b.as_dict().items() if k not in params})
            for b in brute_force_evaluate(kb, f, cfg)
            if all(b[k] == v for k, v in params.items())}
    assert got == want


# Atoms whose known positions are tested with one tuple comparison.  Outside
# a closure round an index covers the predicate and the subject or value, and
# the other known positions (the qualifier set among them) are tested; in a
# round the atom reads the delta, and every known position but the predicate
# is tested.  ?a twice is a repeated position when ?a is not bound.  The
# statements are drawn from fewer values than _STATEMENTS, so that two often
# differ in one tested position only.
_TESTED_ATOMS = ["P1(?a, ?b)@?S", "P1(?a, ?b)", "?c(?a, ?b)@?S", "P2(Q1, ?b)@?S",
                 "P1(?a, ?a)@?S"]
_CLOSE_STATEMENTS = st.tuples(
    st.sampled_from(["P1", "P2"]),
    st.sampled_from(["Q1", "Q2"]),
    st.sampled_from(["Q1", "1"]),
    st.sampled_from(["", "P3: Q1", "P3: Q1, P3: Q2"]),
    st.sampled_from(["normal", "deprecated"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CLOSE_STATEMENTS, min_size=1, max_size=5), st.booleans(),
       st.sampled_from(_TESTED_ATOMS), st.data())
def test_tested_positions_agree_with_the_oracle_in_and_out_of_a_delta(
        stmts, include_deprecated, text, data):
    lines = [f"{p}({s}, {o}) @ {{{q}}} rank={r}" for p, s, o, q, r in stmts]
    kb = kb_from("\n".join(lines))
    f = parse(text)
    cfg = EvalConfig(include_deprecated=include_deprecated, oracle_domain_limit=14)
    domain = sorted(kb.active_domain() | all_constants(f), key=str)
    bound = data.draw(st.sets(st.sampled_from(sorted(free_variables(f)))))
    # a bound variable holds a value of one statement, so that tested positions match, or
    # any value of the domain
    statements = list(kb.statements.values())
    seed = data.draw(st.sampled_from(statements))
    at = {"a": seed.subject, "b": seed.value, "c": seed.property, "S": seed.qualifiers}
    params = {name: data.draw(st.just(at[name]) | st.sampled_from(
                  sorted(kb.attr_sets(), key=str) if name == "S" else domain))
              for name in sorted(bound)}

    def oracle(base):
        return {Binding.of({k: v for k, v in b.as_dict().items() if k not in params})
                for b in brute_force_evaluate(base, f, cfg)
                if all(b[k] == v for k, v in params.items())}

    assert set(evaluate(kb, f, cfg, params=params)) == oracle(kb)
    # the round's delta: some of the statements, which the atom alone reads
    picked = data.draw(st.sets(st.sampled_from(range(len(lines)))))
    delta: dict = {}
    for i in sorted(picked):
        delta.setdefault(statements[i].property, []).append(statements[i])
    got = {Binding.of({k: v for k, v in env.items() if k not in params})
           for env in solve(_Ctx(kb, cfg, delta=(f, delta)), f, dict(params))}
    assert got == oracle(kb_from("\n".join(lines[i] for i in sorted(picked))))


@pytest.mark.parametrize("text", [
    "P1(?y, difference(?y, 1))",
    "P1(?x, ?v) & P2(?x, ?y) & P1(?x, difference(?y, 1))",
    # the function term's pair comes first in the literal; the other pair binds ?y
    "P3(?x, ?o)@{P1: difference(?y, 1), P2: ?y}",
])
def test_function_terms_read_what_bare_variables_bind(text):
    kb = kb_from("P1(Q1, 1)\nP2(Q1, 2)\nP3(Q1, Q2) @ {P1: 1, P2: 2}")
    assert check_safe_range(parse(text)) is None
    assert _agrees(kb, text, domain_limit=12)


@pytest.mark.parametrize("text, v", [
    ("P1(?x, ?y)@?S & (difference(?v, 1) : ?v) in ?S", {"v": "5"}),
    ("P1(?x, ?y)@?S & exists ?v . (difference(?v, 1) : ?v) in ?S", {}),
])
def test_set_atom_function_term_reads_the_variable_its_pair_binds(text, v):
    # ?v stands after the function term that reads it, in the same pair
    kb = kb_from("P1(Q1, Q2) @ {4: 5}")
    assert rows(kb, text) == [{"S": '{rank: "normal", 4: 5}', "x": "Q1", "y": "Q2", **v}]
    assert _agrees(kb, text, domain_limit=12)


# Where difference(?u, 1) stands: a set atom's attribute or value, a statement
# position, or a literal pair, next to a partner term.  ?u is bound by that
# partner (before or after the function term), by another pair or set atom,
# or by an earlier conjunct.  The statements have quantity qualifier
# attributes and values, so the term is often defined and often matches; an
# item ?u leaves it undefined, and then it matches nothing.
_FN_STATEMENTS = st.tuples(
    st.sampled_from(["Q1", "Q2"]),
    st.sampled_from(["1", "2", "3", "Q1"]),
    st.lists(st.tuples(st.sampled_from(["1", "2", "P2"]), st.sampled_from(["1", "2", "3", "Q1"])),
             max_size=2, unique=True),
)


@st.composite
def _function_term_query(draw, stmts):
    s, o, _quals = draw(st.sampled_from(stmts))
    fn = "difference(?u, 1)"
    partner = draw(st.sampled_from(["?u", "?u", "?w", "2", "Q1"]))
    a, b = (fn, partner) if draw(st.booleans()) else (partner, fn)
    binder = draw(st.sampled_from(["conjunct", "pair"] + (["none"] if partner == "?u" else [])))
    c, d = draw(st.sampled_from([("2", "?u"), ("?u", "1"), ("P2", "?u")]))
    first = draw(st.booleans())  # the binding pair or set atom stands before the term's
    where = draw(st.sampled_from(["member", "position", "literal"]))
    if where == "member":
        atoms = [f"({a} : {b}) in ?S"] + ([f"({c} : {d}) in ?S"] if binder == "pair" else [])
        query = " & ".join([f"P1({s}, {o})@?S"] + (atoms[::-1] if first else atoms))
    elif where == "position":
        query = f"P1({a}, {b})" + (f"@{{{c}: {d}}}" if binder == "pair" else "")
    else:
        pairs = [f"{a}: {b}"] + ([f"{c}: {d}"] if binder == "pair" else [])
        query = f"P1({s}, {o})@{{{', '.join(pairs[::-1] if first else pairs)}}}"
    if binder == "conjunct":
        query = f"P1({draw(st.sampled_from(['Q1', 'Q2']))}, ?u) & {query}"
    return query


@settings(max_examples=300, deadline=None)
@given(st.lists(_FN_STATEMENTS, min_size=1, max_size=3), st.data())
def test_function_terms_match_wherever_they_stand(stmts, data):
    kb = kb_from("\n".join(f"P1({s}, {o}) @ {{{', '.join(f'{a}: {v}' for a, v in quals)}}}"
                           for s, o, quals in stmts))
    f = parse(data.draw(_function_term_query(stmts)))
    assert check_safe_range(f) is None
    cfg = EvalConfig(oracle_domain_limit=16)
    assert set(evaluate(kb, f, cfg)) == set(brute_force_evaluate(kb, f, cfg))


@pytest.mark.parametrize("text", [
    "P1(?x, ?a) & ?z = difference(?a, 1)",
    "P1(?x, ?a) & difference(?a, 1) = ?z",
    "P1(?x, ?a) & P1(?x, ?z) & ?z = difference(?a, 1)",  # neither side left to bind
])
def test_undefined_function_term_equals_nothing(text):
    # difference(Q9, 1) is undefined: that match is false, the query goes on;
    # P2 puts 3 in the oracle's active domain
    kb = kb_from("P1(Q1, Q9)\nP1(Q2, 5)\nP1(Q2, 4)\nP2(Q3, 3)")
    assert rows(kb, text) == rows(kb_from("P1(Q2, 5)\nP1(Q2, 4)\nP2(Q3, 3)"), text)
    assert _agrees(kb, text, domain_limit=12)


class _Counted(list):
    """A candidate list that counts the statements read from it."""

    def __init__(self, items, reads: list) -> None:
        super().__init__(items)
        self.reads = reads

    def __iter__(self):
        for st in super().__iter__():
            self.reads.append(st)
            yield st


class _CountedStatements(dict):
    def __init__(self, items, reads: list) -> None:
        super().__init__(items)
        self.reads = reads

    def values(self):
        return _Counted(super().values(), self.reads)


def test_open_predicate_reads_few_candidates():
    # the open atom reads the 24 statements with a P585 qualifier once, not
    # once per bound subject, and each bound atom one statement per row
    text = (pathlib.Path(__file__).parent / "fixtures" / "wikidata_slice.json").read_text()
    kb = closure(load_wikidata_json(text)[0]).kb
    open_reads: list = []  # the indexes an atom with an open predicate reads
    kb._qualifier_index = {a: _Counted(sts, open_reads) for a, sts in kb.by_qualifier_attr.items()}
    kb._subject_index = {s: _Counted(sts, open_reads) for s, sts in kb.by_subject.items()}
    kb.statements = _CountedStatements(kb.statements, open_reads)
    bound_reads: list = []
    for name in ("by_property", "by_prop_subject", "by_prop_value"):
        setattr(kb, name, {k: _Counted(sts, bound_reads) for k, sts in getattr(kb, name).items()})
    f = parse("?p(?s, ?o)@?SQ & (P585 : ?t) in ?SQ & P31(?s, ?c) & P1082(?s, ?n)")
    assert len(list(evaluate(kb, f))) == 24
    assert len(open_reads) <= 2 * 24
    assert len(open_reads) + len(bound_reads) <= 3 * 24


def _counted_kb(text: str, reads: list) -> KnowledgeBase:
    """A KB whose every index hands out candidate lists that count what is read from them."""
    kb = kb_from(text)
    kb._qualifier_index = {a: _Counted(sts, reads) for a, sts in kb.by_qualifier_attr.items()}
    kb._subject_index = {s: _Counted(sts, reads) for s, sts in kb.by_subject.items()}
    kb.statements = _CountedStatements(kb.statements, reads)
    for name in ("by_property", "by_prop_subject", "by_prop_value"):
        setattr(kb, name, {k: _Counted(sts, reads) for k, sts in getattr(kb, name).items()})
    return kb


_WITNESSES = """\
P1(Q1, Q10) @ {P3: Q5}
P1(Q2, Q10) @ {P3: Q5}
P1(Q3, Q11) @ {P3: Q5}
P1(Q4, Q11) @ {P3: Q5}
P2(Q10, Q20)
P2(Q10, Q21)
P2(Q11, Q20)
P2(Q11, Q21)
P4(Q1, 5)
P4(Q2, 6)
"""


# each plan kind, with a statement atom after it: a plan that ignored a stop
# from its continuation would go on to its next candidate, and read it
@pytest.mark.parametrize("text", [
    "P1(?x, ?y)",
    "P1(?x, ?y) & P2(?y, ?z)",
    "?p(?x, ?y)@?S & (P3 : Q5) in ?S",  # open predicate: every statement
    "P1(?x, ?y) | P2(?x, ?y)",
    "P1(?x, ?y) & (P2(?y, Q20) | P2(?y, Q21)) & P2(?y, ?z)",
    "P1(?x, ?y) & ((?x = ?x & !P2(?y, Q99)) | P2(?y, Q99)) & P2(?y, ?z)",
    "P1(?w, ?y) & (exists[2] ?x . P1(?x, ?y)) & P2(?y, ?z)",
    "P1(?x, ?y)@{P3: ?q} & P2(?y, ?z)",
    "P1(?x, ?y)@?S & (P3 : ?q) in ?S & P2(?y, ?z)",
    "P1(?x, ?y)@?S & (P3 : Q5) in ?S & P2(?y, ?z)",
    "P1(?x, ?y) & ?w = ?y & P2(?w, ?z)",
    "P1(?x, ?y) & ?x = ?x & P2(?y, ?z)",
    "P4(?x, ?n) & geq(?n, 1) & P1(?x, ?y)",
    "P1(?x, ?y) & !P2(?y, Q99) & P2(?y, ?z)",
    "P1(?x, ?y) & (P2(?y, Q20) -> P2(?y, Q21)) & P2(?y, ?z)",
    "P1(?x, ?y) & (forall ?v . (P2(?y, ?v) -> P2(?y, ?v))) & P2(?y, ?z)",
    "P1(?x, ?y) & (exists ?v . P2(?y, ?v)) & P2(?y, ?z)",
    "P1(?x, ?y) & (exists ?x . P1(?x, ?y)) & P2(?y, ?z)",
])
def test_a_test_stops_at_its_first_witness(text):
    reads: list = []
    kb = _counted_kb(_WITNESSES, reads)
    f = parse(text)
    first: list = []  # how many candidates the search had read at its first solution

    def note(env):
        first.append(len(reads))
        return False

    solve(_Ctx(kb, EvalConfig()), f, {}, note)
    assert len(reads) > first[0]  # the whole search reads past its first solution
    closed = f
    for var in sorted(free_variables(f)):
        closed = Exists(var, closed)
    reads.clear()
    assert list(evaluate(kb, Not(closed))) == []
    assert len(reads) == first[0]
    reads.clear()
    assert len(list(evaluate(kb, f, EvalConfig(max_bindings=1)))) == 1
    assert len(reads) == first[0]


@pytest.mark.parametrize("literal", [
    "{P3: ?a, P3: ?b}", "{?c: ?a, ?c: ?b}", "{P3: ?a, P3: ?a}", '{P3: ?a, rank: "normal"}',
])
def test_literal_pairs_match_one_to_one(literal):
    # no qualifier pair answers two pairs of the literal
    kb = kb_from("P1(Q1, Q2) @ {P3: Q1, P3: Q2}\nP1(Q1, Q3) @ {P3: Q1}\n")
    assert _agrees(kb, f"P1(Q1, ?o)@{literal}", 14)


# each builtin-table query -> its row count without and with deprecated facts
_BUILTIN_ROWS = {
    'Commons_namespace("Page", ?ns)': (2, 2),
    "P1(?x, ?page) & Commons_namespace(?page, ?ns)": (3, 3),
    'P1(?x, ?page) & !Commons_namespace(?page, "Category")': (1, 1),
    "no_value(?p, ?s)@?Q & P1(?s, ?page)": (1, 2),
    "P1(?s, ?page) & no_value(?p, ?s)": (1, 2),  # the fact table is read with ?s bound
}


@pytest.mark.parametrize("text", list(_BUILTIN_ROWS))
def test_builtin_tables_agree_with_the_oracle(text):
    # a known page is read by one lookup; a page keeps each of its namespaces, and a
    # deprecated no-value row is seen only with the deprecated statements
    kb = kb_from('P1(Q1, "Page")\nP1(Q2, "Gallery")\ncommons_ns("Page", "Category")\n'
                 'commons_ns("Gallery", "Gallery")\ncommons_ns("Page", "Gallery")\n'
                 'no_value(P1, Q1)\nno_value(P2, Q3)\nno_value(P3, Q4)\n'
                 'no_value(P2, Q1) rank=deprecated\n')
    f = parse(text)
    for include_deprecated, count in zip((False, True), _BUILTIN_ROWS[text]):
        cfg = EvalConfig(include_deprecated=include_deprecated, oracle_domain_limit=14)
        got = set(evaluate(kb, f, cfg))
        assert len(got) == count
        assert got == set(brute_force_evaluate(kb, f, cfg))


def test_binding_api():
    b = Binding.of({"x": Q(1), "a": StringVal("s")})
    assert b.as_dict() == {"a": StringVal("s"), "x": Q(1)}
    assert "x" in b and b["x"] == Q(1)
    assert b == Binding.of({"a": StringVal("s"), "x": Q(1)})


def test_binding_is_a_value():
    # hashed as its one field, as the dataclass it replaced was: bindings go into sets
    b = Binding.of({"x": Q(1), "a": StringVal("s")})
    assert b.data == (("a", StringVal("s")), ("x", Q(1)))
    assert hash(b) == hash((b.data,)) and b != b.data and b != Binding.of({"x": Q(1)})
    assert repr(b) == ("Binding(data=(('a', StringVal(text='s')), "
                       "('x', EntityId(kind='item', num=1))))")
    assert pickle.loads(pickle.dumps(b)) == b and copy.deepcopy(b) == b
    with pytest.raises(AttributeError):
        b.data = ()
