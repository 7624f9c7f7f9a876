"""Formula evaluation: index-driven search against the brute-force oracle."""

import re
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
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
from wdcheck.formula import parse
from wdcheck.model import KnowledgeBase, P, Q, StringVal
from wdcheck.oracle import DomainTooLarge, brute_force_evaluate, holds


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

    def test_evaluate_rejects_unsafe(self, family_kb):
        with pytest.raises(UnsafeFormulaError):
            list(evaluate(family_kb, parse("!P26(?x, ?y)")))


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


def test_binding_api():
    b = Binding.of({"x": Q(1), "a": StringVal("s")})
    assert b.as_dict() == {"a": StringVal("s"), "x": Q(1)}
    assert "x" in b and b["x"] == Q(1)
    assert b == Binding.of({"a": StringVal("s"), "x": Q(1)})
