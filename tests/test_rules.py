"""Rule validation and forward-chaining closure."""

import pathlib
import re
import textwrap

import pytest

from conftest import kb_from
from wdcheck.formula import FormulaError, ParseError, parse
from wdcheck.ingest import export_native
from wdcheck.labels import SYMMETRIC_PROPERTY, TRANSITIVE_PROPERTY
from wdcheck.model import AttrSet, P, Q, StringVal
from wdcheck.rules import (
    RuleError,
    _chain,
    builtin_ontology,
    closure,
    parse_rules,
    rule_from_formula,
)


class TestRuleValidation:
    def test_simple_rule(self):
        r = rule_from_formula("sym", parse("P26(?x, ?y) -> P26(?y, ?x)"))
        assert len(r.body) == 1

    def test_rejects_non_implication(self):
        with pytest.raises(RuleError):
            rule_from_formula("bad", parse("P26(?x, ?y)"))

    def test_rejects_non_atomic_body(self):
        with pytest.raises(RuleError):
            rule_from_formula("bad", parse("(exists ?z . P26(?x, ?z)) -> P26(?x, ?x)"))

    def test_rejects_builtin_head(self):
        with pytest.raises(RuleError):
            rule_from_formula("bad", parse("P26(?x, ?y) -> no_value(P26, ?x)"))

    def test_rejects_unbound_head_variable(self):
        with pytest.raises(RuleError):
            rule_from_formula("bad", parse("P26(?x, ?y) -> P26(?x, ?z)"))

    @pytest.mark.parametrize("text", [
        "P1(?x, ?y) & ?z = ?w -> P2(?x, ?z)",
        "P1(?x, ?y) & less_than(?z, ?y) -> P2(?x, ?z)",
    ])
    def test_rejects_body_that_is_not_safe_range(self, text):
        with pytest.raises(RuleError, match="not range-restricted"):
            rule_from_formula("bad", parse(text))

    def test_requires_statement_atom(self):
        with pytest.raises(RuleError):
            rule_from_formula("bad", parse("no_value(?p, ?s) -> P31(?s, Q1)"))

    @pytest.mark.parametrize("head", [
        "P1(?x, difference(?y, 1))",
        "P2(?x, ?y)@{P580: difference(?y, 1)}",
        "P2(?x, ?y)@{difference(?y, 1): Q1}",
    ])
    def test_rejects_function_term_in_head(self, head):
        # each round would compute a new value, so the closure never settles
        with pytest.raises(RuleError, match="rule 'inc' head may not hold a function term"):
            rule_from_formula("inc", parse(f"P1(?x, ?y) -> {head}"))

    def test_parse_rules_file(self):
        text = textwrap.dedent(
            """
            # a comment
            name: sym
            kind: rule
            P26(?x, ?y)@?S -> P26(?y, ?x)@?S
            ---
            rule: sym-again
            P3373(?x, ?y) -> P3373(?y, ?x)
            """
        )
        assert [r.name for r in parse_rules(text)] == ["sym", "sym-again"]

    def test_readme_rule_file_parses(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"## Rule files\n.*?```\n(.*?)```", readme, flags=re.DOTALL)
        assert [r.name for r in parse_rules(text)] == ["spouse-symmetric", "grandparent"]

    @pytest.mark.parametrize("header", ["", "kind: constraint\n"])
    def test_parse_rules_refuses_a_block_that_is_not_a_rule(self, header):
        text = ("name: sym\nkind: rule\nP26(?x, ?y) -> P26(?y, ?x)\n---\n"
                f"name: forgot-kind\n{header}P1(?x, ?y) -> P2(?x, ?y)\n")
        with pytest.raises(RuleError) as exc:
            parse_rules(text)
        assert str(exc.value) == ("block 'forgot-kind' is not a rule: "
                                  "give it a 'kind: rule' or 'rule: NAME' header")


class TestBlocks:
    """A rule file's blocks: header lines, then a formula."""

    def test_parse_blocks(self):
        rules = parse_rules(textwrap.dedent(
            """
            # a comment
            kind: rule

            name: sym
            P26(?x, ?y)@?S -> P26(?y, ?x)@?S
            ---
            ---
            rule: chained
            # a comment inside the formula
            P26(?x, ?y) &
              P26(?y, ?z) -> P1(?x, ?z)
            """
        ))
        assert [(r.name, str(r)) for r in rules] == [
            ("sym", "P26(?x, ?y)@?S -> P26(?y, ?x)@?S"),
            ("chained", "P26(?x, ?y) & P26(?y, ?z) -> P1(?x, ?z)"),
        ]

    def test_block_requires_name(self):
        with pytest.raises(FormulaError) as exc:
            parse_rules("kind: rule\nP26(?x, ?y) -> P26(?y, ?x)")
        assert str(exc.value) == "formula block missing a 'name:' header"

    def test_every_block_parses_before_any_is_validated(self):
        with pytest.raises(ParseError):
            parse_rules("name: check\nP26(?x, ?y) -> P26(?y, ?x)\n---\nrule: bad\nP26(?x,\n")


class TestBuiltinOntology:
    def test_rule_names(self):
        names = {r.name for r in builtin_ontology()}
        assert {"subclass-transitivity", "instance-propagation", "subproperty-lifting",
                "symmetric-property", "transitive-property"} <= names

    def test_chain_shaped_rules(self):
        chains = {r.name for r in builtin_ontology() if _chain(r) is not None}
        assert chains == {"subclass-transitivity", "instance-propagation",
                          "transitive-property"}


class TestClosure:
    def test_subclass_transitivity(self):
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q4)")
        result = closure(kb)
        derived = {(st.subject, st.value) for sid in result.derived_ids
                   for st in [result.kb.statements[sid]]}
        assert (Q(1), Q(3)) in derived
        assert (Q(1), Q(4)) in derived
        assert (Q(2), Q(4)) in derived
        assert len(derived) == 3

    def test_instance_propagation_depth(self):
        kb = kb_from("P31(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q4)")
        closed = closure(kb).kb
        assert closed.has_fact(Q(1), P(31), Q(3), AttrSet())
        assert closed.has_fact(Q(1), P(31), Q(4), AttrSet())

    def test_symmetric_property_copies_qualifiers(self):
        kb = kb_from(
            f"P31(P26, {SYMMETRIC_PROPERTY})\n"
            "P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred"
        )
        closed = closure(kb).kb
        derived = [st for st in closed.by_property[P(26)]
                   if st.subject == Q(2)]
        assert len(derived) == 1
        assert derived[0].qualifiers.values_for(P(580))
        assert derived[0].rank == "preferred"

    def test_symmetric_does_not_duplicate_existing(self):
        kb = kb_from(f"P31(P26, {SYMMETRIC_PROPERTY})\nP26(Q1, Q2)\nP26(Q2, Q1)")
        result = closure(kb)
        assert result.derived_ids == []

    def test_transitive_property(self):
        kb = kb_from(f"P31(P131, {TRANSITIVE_PROPERTY})\n"
                     "P131(Q1, Q2)\nP131(Q2, Q3)\nP131(Q3, Q4)")
        closed = closure(kb).kb
        assert closed.has_fact(Q(1), P(131), Q(4), AttrSet())

    def test_subproperty_lifting(self):
        kb = kb_from("P1647(P40, P1038)\nP40(Q1, Q2) @ {P585: 2020-01-01}")
        closed = closure(kb).kb
        lifted = closed.facts_for(P(1038))
        assert len(lifted) == 1
        assert lifted[0].qualifiers.values_for(P(585))

    def test_provenance_explain(self):
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)")
        result = closure(kb)
        assert len(result.derived_ids) == 1
        text = result.explain(result.derived_ids[0])
        assert "subclass-transitivity" in text

    def test_fixpoint_idempotent(self):
        kb = kb_from("P31(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q4)")
        once = closure(kb).kb
        twice = closure(once).kb
        assert export_native(once) == export_native(twice)

    def test_no_rules_no_change(self):
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)")
        result = closure(kb, rules=[])
        assert result.derived_ids == []

    def test_custom_rule(self):
        rules = parse_rules(textwrap.dedent(
            """
            name: grandparent
            kind: rule
            P40(?x, ?y) & P40(?y, ?z) -> P1038(?x, ?z)
            """
        ))
        assert _chain(rules[0]) is None  # the head is not P40: the generic join
        kb = kb_from("P40(Q1, Q2)\nP40(Q2, Q3)")
        closed = closure(kb, rules=rules).kb
        assert closed.has_fact(Q(1), P(1038), Q(3), AttrSet())

    def test_derived_rank_defaults_to_normal(self):
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)")
        result = closure(kb)
        st = result.kb.statements[result.derived_ids[0]]
        assert st.rank == "normal"
        assert (st.qualifiers.values_for(StringVal("x")) == [])


def _derived_keys(result) -> set:
    return {result.kb.statements[sid].content_key() for sid in result.derived_ids}


class TestReachability:
    """Chain-shaped rules close by one search per subject."""

    def test_deep_chain(self):
        kb = kb_from("\n".join(f"P279(Q{i}, Q{i + 1})" for i in range(1, 201)))
        result = closure(kb)
        assert len(result.derived_ids) == 19_900
        assert _derived_keys(result) == {
            (Q(i), P(279), Q(j), AttrSet())
            for i in range(1, 202) for j in range(i + 2, 202)}
        assert {d.rule for d in result.provenance.values()} == {"subclass-transitivity"}
        assert set(result.provenance) == set(result.derived_ids)

    def test_cycle_reaches_every_member_from_itself(self):
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q1)")
        closed = closure(kb).kb
        for n in (1, 2, 3):
            assert closed.has_fact(Q(n), P(279), Q(n), AttrSet())

    def test_deprecated_edge_not_followed(self):
        kb = kb_from("P31(Q9, Q1)\nP279(Q1, Q2)\nP279(Q2, Q3) rank=deprecated\n"
                     "P279(Q3, Q4)")
        result = closure(kb)
        assert _derived_keys(result) == {(Q(9), P(31), Q(2), AttrSet())}

    def test_deprecated_fact_blocks_only_its_own_split(self):
        # the deprecated Q1 -> Q3 stops the search from Q1 at Q3, but Q1 -> Q4
        # still follows from Q1 -> Q2 and the derived Q2 -> Q4
        kb = kb_from("P279(Q1, Q2)\nP279(Q2, Q3)\nP279(Q3, Q4)\n"
                     "P279(Q1, Q3) rank=deprecated")
        result = closure(kb)
        assert _derived_keys(result) == {(Q(2), P(279), Q(4), AttrSet()),
                                         (Q(1), P(279), Q(4), AttrSet())}
        first, second = (result.provenance[sid] for sid in result.derived_ids)
        assert second.binding["y"] == Q(2)

    def test_qualified_edge_followed_without_its_qualifiers(self):
        kb = kb_from("P279(Q1, Q2) @ {P580: 2020-01-01}\nP279(Q2, Q3)")
        result = closure(kb)
        (sid,) = result.derived_ids
        st = result.kb.statements[sid]
        assert (st.subject, st.value) == (Q(1), Q(3))
        assert st.qualifiers.without_pseudo() == AttrSet()

    def test_rules_file_rule_of_the_same_shape(self):
        (rule,) = parse_rules(textwrap.dedent(
            f"""
            name: my-transitive
            kind: rule
            P31(?p, {TRANSITIVE_PROPERTY}) & ?p(?a, ?b) & ?p(?b, ?c) -> ?p(?a, ?c)
            """
        ))
        assert _chain(rule) is not None
        kb = kb_from(f"P31(P131, {TRANSITIVE_PROPERTY})\nP131(Q1, Q2)\nP131(Q2, Q3)\n"
                     "P131(Q3, Q1)\nP131(Q3, Q4) @ {P580: 2020-01-01}\n"
                     "P131(Q4, Q5) rank=deprecated")
        builtin = [r for r in builtin_ontology() if r.name == "transitive-property"]
        mine = closure(kb, rules=[rule])
        assert _derived_keys(mine) == _derived_keys(closure(kb, rules=builtin))
        assert len(mine.derived_ids) == 9
        assert {d.rule for d in mine.provenance.values()} == {"my-transitive"}
