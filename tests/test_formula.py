"""Formula parsing, printing, negation and variable accounting."""

import pathlib
import re
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcheck.formula import (
    And,
    Const,
    DtRel,
    Eq,
    Exists,
    Forall,
    FormulaError,
    FuncApp,
    Implies,
    Not,
    ObjVar,
    Or,
    ParseError,
    Rel,
    SetLiteral,
    SetMember,
    SetVar,
    _children,
    _map,
    _nodes,
    _print_term,
    all_constants,
    free_variables,
    ground_set_literals,
    is_set_name,
    negate,
    negate_to_violation_query,
    parse,
    print_formula,
    substitute,
)
from wdcheck.model import (
    AttrSet,
    P,
    Q,
    QuantityVal,
    StringVal,
    TimeVal,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestParsing:
    def test_relational_atom(self):
        f = parse("P26(?x, ?y)@?SQ")
        assert f == Rel(Const(P(26)), (ObjVar("x"), ObjVar("y")), SetVar("SQ"))

    def test_atom_without_attrs(self):
        f = parse("P26(Q1, Q2)")
        assert f == Rel(Const(P(26)),
                        (Const(Q(1)), Const(Q(2))), None)

    def test_label_resolution(self):
        assert parse("spouse(?x, ?y)") == parse("P26(?x, ?y)")
        assert parse("`spouse`(?x, ?y)") == parse("P26(?x, ?y)")

    def test_set_atom(self):
        f = parse("(P585 : ?v) in ?SQ")
        assert f == SetMember(Const(P(585)), ObjVar("v"), SetVar("SQ"))

    def test_set_literal(self):
        f = parse("?p(?s, ?o)@{P580: 1988-06-12}")
        assert isinstance(f.attrs, SetLiteral)
        assert f.attrs.pairs == (
            (Const(P(580)), Const(TimeVal(datetime(1988, 6, 12)))),)

    def test_precedence(self):
        f = parse("P31(?x, Q1) & P31(?x, Q2) | P31(?x, Q3) -> P31(?x, Q4)")
        assert isinstance(f, Implies)
        assert isinstance(f.body, Or)
        assert isinstance(f.body.items[0], And)

    def test_implies_right_associative(self):
        f = parse("P31(?x, Q1) -> P31(?x, Q2) -> P31(?x, Q3)")
        assert isinstance(f, Implies)
        assert isinstance(f.head, Implies)

    def test_quantifiers(self):
        f = parse("exists ?x . forall ?y . P26(?x, ?y)")
        assert isinstance(f, Exists)
        assert isinstance(f.body, Forall)

    def test_multi_variable_quantifier(self):
        f = parse("exists ?x, ?y . P26(?x, ?y)")
        assert isinstance(f, Exists) and isinstance(f.body, Exists)

    def test_counting_quantifier(self):
        f = parse("exists[3] ?o . P26(?s, ?o)")
        assert isinstance(f, Exists)
        assert f.count == 3

    def test_counting_rejects_set_variable(self):
        with pytest.raises(ParseError):
            parse("exists[2] ?SQ . P26(?s, ?o)@?SQ")

    def test_counting_quantifier_with_a_variable_count(self):
        f = parse("exists[?k] ?o . P26(?s, ?o)")
        assert isinstance(f, Exists) and f.count == ObjVar("k")
        assert free_variables(f) == {"s", "k"}  # the count is bound outside

    @pytest.mark.parametrize("text,message", [
        ("exists[?K] ?o . P26(?s, ?o)", "set variable not allowed in term position"),
        ("exists[?o] ?o . P26(?s, ?o)", "a counting quantifier cannot bind its own count"),
        ("exists[?o] ?s, ?o . P26(?s, ?o)", "a counting quantifier cannot bind its own count"),
    ])
    def test_counting_variable_refused(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text)

    def test_not_equal_sugar(self):
        assert parse("?x != ?y") == Not(Eq(ObjVar("x"), ObjVar("y")))

    def test_datatype_relation_and_function(self):
        f = parse("geq(difference(?a, ?b), 10)")
        assert f == DtRel("geq", (FuncApp("difference", (ObjVar("a"), ObjVar("b"))),
                                  Const(QuantityVal(Decimal(10)))))

    def test_quantity_with_bounds_and_unit(self):
        f = parse("?x = 5[4,6] unit=Q11573")
        assert f.right == Const(QuantityVal(Decimal(5), Q(11573), Decimal(4), Decimal(6)))

    def test_time_with_precision(self):
        f = parse("?x = 1950-06-15/9")
        assert f.right == Const(TimeVal(datetime(1950, 6, 15), 9))

    def test_string_escapes(self):
        f = parse(r'?x = "a \"b\" \\c"')
        assert f.right == Const(StringVal('a "b" \\c'))

    def test_variable_case_convention(self):
        f = parse("?p(?s, ?o)@?SQ")
        assert isinstance(f.args[0], ObjVar)
        assert isinstance(f.attrs, SetVar)

    def test_set_variable_not_a_predicate(self):
        with pytest.raises(ParseError):
            parse("?SQ(?x, ?y)")

    def test_unknown_label(self):
        with pytest.raises(ParseError):
            parse("totally_unknown_label(?x, ?y)")

    def test_reserved_variable_names(self):
        with pytest.raises(ParseError):
            parse("exists ?_x . P26(?_x, ?y)")

    def test_inner_binder_keeps_its_name(self):
        f = parse("exists ?x . (P31(?x, Q1) & exists ?x . P31(?x, Q2))")
        assert f.body.items[1] == Exists("x", Rel(Const(P(31)), (ObjVar("x"), Const(Q(2)))))


def _bad_formulas() -> list:
    text = (FIXTURES / "bad_formulas.txt").read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


class TestBadFormulaCorpus:
    """Each error path of parse, pinned byte for byte."""

    EXPECTED = (FIXTURES / "bad_formulas.expected").read_text(encoding="utf-8").splitlines()

    def test_one_message_per_formula(self):
        assert len(self.EXPECTED) == len(_bad_formulas())

    @pytest.mark.parametrize("i", range(len(_bad_formulas())))
    def test_message(self, i):
        with pytest.raises(ParseError) as exc:
            parse(_bad_formulas()[i])
        assert str(exc.value) == self.EXPECTED[i]

    @pytest.mark.parametrize("i", range(len(_bad_formulas())))
    def test_message_on_a_later_line(self, i):
        # after a comment line and two spaces: line 2, two columns on
        line, col, message = re.fullmatch(r"(\d+):(\d+): (.*)", self.EXPECTED[i]).groups()
        with pytest.raises(ParseError) as exc:
            parse("# a comment\n  " + _bad_formulas()[i])
        assert str(exc.value) == f"{int(line) + 1}:{int(col) + 2}: {message}"


class TestVariableAccounting:
    def test_free_variables(self):
        f = parse("?p(?s, ?o)@?SQ & exists ?v . (?q : ?v) in ?SQ")
        assert free_variables(f) == {"p", "s", "o", "SQ", "q"}

    def test_all_constants(self):
        f = parse("P26(?x, Q5)@{P580: 1988-06-12}")
        consts = all_constants(f)
        assert {P(26), Q(5), P(580),
                TimeVal(datetime(1988, 6, 12))} <= consts

    def test_ground_set_literals(self):
        f = parse("?p(?s, ?o)@{P580: 1988-06-12} & (?a : ?b) in {P1: Q1}"
                  " & P26(?s, ?o)@{P580: difference(2020-01-01, 2019-01-01)}")
        sets = ground_set_literals(f)
        assert AttrSet.of([(P(1), Q(1))]) in sets
        assert len(sets) == 2

    def test_substitute_object_and_set(self):
        f = parse("?p(?s, ?o)@?CQ")
        g = substitute(f, {"p": P(26)},
                       {"CQ": AttrSet.of([(P(1), Q(1))])})
        assert free_variables(g) == {"s", "o"}
        assert g.pred == Const(P(26))
        assert isinstance(g.attrs, SetLiteral)

    def test_substitute_respects_binders(self):
        f = parse("exists ?x . P26(?x, ?y)")
        g = substitute(f, {"x": Q(9), "y": Q(8)})
        assert g.body.args[0] == ObjVar("x")
        assert g.body.args[1] == Const(Q(8))


class TestNegation:
    def test_negate_pushes_through_connectives(self):
        f = parse("P31(?x, Q1) & !P31(?x, Q2)")
        g = negate(f)
        assert isinstance(g, Or)
        assert g.items[1] == parse("P31(?x, Q2)")

    def test_violation_query_shape(self):
        f = parse("P26(?x, ?y) -> P26(?y, ?x)")
        q = negate_to_violation_query(f)
        assert q == And((parse("P26(?x, ?y)"), Not(parse("P26(?y, ?x)"))))

    def test_violation_query_flattens_body(self):
        f = parse("P31(?x, Q1) & P26(?x, ?y) -> P26(?y, ?x)")
        q = negate_to_violation_query(f)
        assert len(q.items) == 3

    def test_violation_query_requires_implication(self):
        with pytest.raises(FormulaError):
            negate_to_violation_query(parse("P26(?x, ?y)"))

    def test_double_negation_collapses(self):
        f = parse("!P26(?x, ?y)")
        assert negate(f) == parse("P26(?x, ?y)")


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "P26(?x, ?y)@?SQ & !P26(?y, ?x)",
        "(P585 : ?v) in ?SQ",
        "exists[2] ?o . ?p(?s, ?o)",
        "(P1082 : ?k) in ?CQ & !(exists[?k] ?o . ?p(?s, ?o))",
        "forall ?b . !(P569(?s, ?b) | P571(?s, ?b))",
        "?p(?s, ?o)@{P580: 1988-06-12, P582: 1990-01-01}",
        'matches_regex(?o, "97[89]-\\\\d+")',
        "?x != ?y",
        "geq(difference(?o1, ?o2), 10)",
        "P31(?x, Q1) -> P31(?x, Q2) -> P31(?x, Q3)",
        "(P31(?x, Q1) -> P31(?x, Q2)) -> P31(?x, Q3)",
    ])
    def test_print_parse_identity(self, text):
        f = parse(text)
        printed = print_formula(f)
        assert parse(printed) == f
        assert print_formula(parse(printed)) == printed

    def test_printer_minimizes_parens(self):
        f = parse("(P31(?x, Q1) & P31(?x, Q2)) | P31(?x, Q3)")
        assert print_formula(f) == "P31(?x, Q1) & P31(?x, Q2) | P31(?x, Q3)"


# ---------------------------------------------------------------------------
# Property-based round trip
# ---------------------------------------------------------------------------

_obj_terms = st.sampled_from([
    ObjVar("x"), ObjVar("y"), ObjVar("v"),
    Const(Q(1)), Const(Q(2)), Const(P(585)),
    Const(StringVal("ab")), Const(QuantityVal(Decimal(3))),
    Const(TimeVal(datetime(1988, 6, 12))),
])

_set_vars = st.sampled_from([SetVar("SQ"), SetVar("CQ")])


def _sorted_literal(pairs):
    ordered = sorted(pairs, key=lambda p: (_print_term(p[0]), _print_term(p[1])))
    return SetLiteral(tuple(ordered))


_set_literals = st.lists(
    st.tuples(st.sampled_from([Const(P(580)), Const(P(585)), ObjVar("q")]),
              _obj_terms),
    max_size=2, unique_by=lambda p: (_print_term(p[0]), _print_term(p[1])),
).map(_sorted_literal)

_set_terms = st.one_of(_set_vars, _set_literals)

_preds = st.sampled_from([Const(P(26)), Const(P(31)), ObjVar("p")])

_atoms = st.one_of(
    st.builds(lambda p, a, b, s: Rel(p, (a, b), s),
              _preds, _obj_terms, _obj_terms, st.one_of(st.none(), _set_terms)),
    st.builds(lambda a, v, s: SetMember(a, v, s),
              st.sampled_from([Const(P(585)), ObjVar("q")]), _obj_terms, _set_terms),
    st.builds(lambda a, b: Eq(a, b), _obj_terms, _obj_terms),
    st.builds(lambda a, b: DtRel("leq", (a, b)), _obj_terms, _obj_terms),
)


def _formulas(depth: int):
    if depth == 0:
        return _atoms
    sub = _formulas(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(lambda v, b: Exists(v, b), st.sampled_from(["x", "y", "SQ"]), sub),
        st.builds(lambda v, b: Forall(v, b), st.sampled_from(["x", "y"]), sub),
        st.builds(lambda n, v, b: Exists(v, b, n),
                  st.integers(min_value=1, max_value=3), st.sampled_from(["x", "y"]), sub),
    )


@settings(max_examples=200, deadline=None)
@given(_formulas(3))
def test_print_parse_round_trip(f):
    printed = print_formula(f)
    assert parse(printed) == f


# ---------------------------------------------------------------------------
# Property-based binder handling
# ---------------------------------------------------------------------------

_values = st.sampled_from([Q(7), StringVal("z"), P(26)])


@st.composite
def _formula_and_object_map(draw):
    """A formula and a map from some of its free object variables to values."""
    f = draw(_formulas(3))
    names = sorted(n for n in free_variables(f) if not is_set_name(n))
    keys = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    return f, {k: draw(_values) for k in keys}


@settings(max_examples=200, deadline=None)
@given(_formula_and_object_map())
def test_substitute_removes_exactly_the_mapped_free_variables(case):
    f, objmap = case
    assert free_variables(substitute(f, objmap)) == free_variables(f) - objmap.keys()


@settings(max_examples=200, deadline=None)
@given(_formula_and_object_map())
def test_substitute_places_every_mapped_value(case):
    f, objmap = case
    assert all_constants(substitute(f, objmap)) >= set(objmap.values())


# ---------------------------------------------------------------------------
# Node behaviour: one _fields declaration drives equality, hashing and traversal
# ---------------------------------------------------------------------------

_x, _y, _S = ObjVar("x"), ObjVar("y"), SetVar("S")
_p26, _p580, _q1 = Const(P(26)), Const(P(580)), Const(Q(1))
_rel = Rel(_p26, (_x, _y), _S)
_eq = Eq(_x, _q1)


class TestNodes:
    @settings(max_examples=200, deadline=None)
    @given(_formulas(3))
    def test_nodes_are_values_over_their_fields(self, f):
        for node in _nodes(f):
            same = _map(node, lambda c: c)
            assert same == node and hash(same) == hash(node)
            if not _children(node):
                assert same is node
            with pytest.raises(AttributeError):
                setattr(node, node._fields[0], None)
            fields = tuple(node)  # a node is the tuple of its fields, but never equals one
            assert node != fields and fields != node and hash(node) == hash(fields)
            assert vars(node).keys().isdisjoint(node._fields)  # the dictionary holds caches only
        assert Exists("x", f) != Forall("x", f)
        assert And((f,)) != Or((f,))

    @pytest.mark.parametrize("node, children", [
        (_q1, ()),
        (_x, ()),
        (_S, ()),
        (FuncApp("difference", (_x, _q1)), (_x, _q1)),
        (SetLiteral(((_p26, _x), (_p580, _y))), (_p26, _x, _p580, _y)),
        (_rel, (_p26, _x, _y, _S)),
        (Rel(_p26, (_x, _y)), (_p26, _x, _y)),
        (Rel("no_value", (_p26, _x)), (_p26, _x)),
        (SetMember(_p580, _y, _S), (_p580, _y, _S)),
        (_eq, (_x, _q1)),
        (DtRel("leq", (_x, _y)), (_x, _y)),
        (Not(_eq), (_eq,)),
        (And((_eq, _rel)), (_eq, _rel)),
        (Or((_rel, _eq)), (_rel, _eq)),
        (Implies(_rel, _eq), (_rel, _eq)),
        (Exists("y", _rel, 2), (_rel,)),
        (Forall("x", _eq), (_eq,)),
    ], ids=lambda v: str(len(v)) if type(v) is tuple else type(v).__name__)
    def test_children_in_field_order(self, node, children):
        assert _children(node) == children
        assert _map(node, lambda c: c) == node

    def test_trailing_fields_default_to_none(self):
        assert Rel(_p26, (_x, _y)).attrs is None
        assert Exists("x", _eq).count is None
        assert repr(Exists("x", _eq)) == ("Exists(var='x', body=Eq(left=ObjVar(name='x'), "
                                          "right=Const(value=EntityId(kind='item', num=1))), "
                                          "count=None)")
        with pytest.raises(TypeError):
            Rel(_p26, (_x, _y), _S, None)
