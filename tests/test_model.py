"""Statements, attribute sets, indexes and datatype relations."""

import calendar
import copy
import os
import pickle
import subprocess
import sys
from datetime import datetime
from decimal import Decimal

import pytest

from wdcheck.ingest import export_native
from wdcheck.model import (
    NOVALUE,
    AnonConst,
    AttrSet,
    DatatypeError,
    EntityId,
    KnowledgeBase,
    ModelError,
    P,
    PRECISION_DAY,
    PRECISION_YEAR,
    Pseudo,
    Q,
    QuantityVal,
    RANK_ATTR,
    StringVal,
    TimeVal,
    UnsupportedPattern,
    compile_pattern,
    datatype_function,
    datatype_relation,
    days_in_month,
    make_no_value,
    make_statement,
    time_interval,
    _value_sort_key,
)


class TestEntityId:
    def test_parse_and_str(self):
        assert EntityId.parse("Q42") == Q(42)
        assert EntityId.parse("P31") == P(31)
        assert str(Q(42)) == "Q42"
        assert str(P(31)) == "P31"

    @pytest.mark.parametrize("bad", ["Q0", "Q-1", "X5", "Q", "Q01", "42"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ModelError):
            EntityId.parse(bad)


class TestEntityIdContract:
    """An EntityId is the tuple (kind, num): it hashes, compares and orders as
    that tuple, which is what the dataclass it replaced did, so set and dict
    iteration orders do not change."""

    IDS = [Q(10), P(5), Q(2), P(31), Q(1)]

    def test_hash_is_the_tuple_hash(self):
        for e in self.IDS:
            assert hash(e) == hash((e.kind, e.num))

    def test_order_is_kind_then_num(self):
        assert sorted(self.IDS) == [Q(1), Q(2), Q(10), P(5), P(31)]
        assert sorted(self.IDS) == sorted(self.IDS, key=lambda e: (e.kind, e.num))

    def test_repr(self):
        assert repr(Q(5)) == "EntityId(kind='item', num=5)"
        assert repr(P(31)) == "EntityId(kind='property', num=31)"

    def test_fields_are_read_only(self):
        e = Q(5)
        with pytest.raises(AttributeError):
            e.kind = "property"
        with pytest.raises(AttributeError):
            e.num = 6
        assert e == Q(5)

    @pytest.mark.parametrize("kind, num", [("lexeme", 1), ("Q", 1), ("item", 0), ("property", -3)])
    def test_bad_kind_or_num(self, kind, num):
        with pytest.raises(ModelError):
            EntityId(kind, num)

    def test_pickle_and_deepcopy(self):
        for e in self.IDS:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(e, protocol))
                assert type(back) is EntityId and back == e and back.num == e.num
            assert type(copy.deepcopy(e)) is EntityId and copy.deepcopy(e) == e
        assert copy.deepcopy({Q(1): [P(2)]}) == {Q(1): [P(2)]}

    @pytest.mark.parametrize("other", [
        StringVal("item"), StringVal("Q5"), QuantityVal(Decimal(5)),
        TimeVal(datetime(2020, 1, 1)), AnonConst(5), Pseudo("item"), Pseudo("Q5")])
    def test_never_equals_another_value(self, other):
        assert Q(5) != other and other != Q(5)
        assert not Q(5) == other
        assert len({Q(5), other}) == 2


# (a value, its field values, its repr): the repr is the one the dataclass each
# class replaced printed
_RECORDS = [
    (StringVal("rank"), ("rank",), "StringVal(text='rank')"),
    (QuantityVal(Decimal("2.5"), Q(11573), Decimal(2), Decimal(3)),
     (Decimal("2.5"), Q(11573), Decimal(2), Decimal(3)),
     "QuantityVal(amount=Decimal('2.5'), unit=EntityId(kind='item', num=11573), "
     "lower=Decimal('2'), upper=Decimal('3'))"),
    (QuantityVal(Decimal(1)), (Decimal(1), None, None, None),
     "QuantityVal(amount=Decimal('1'), unit=None, lower=None, upper=None)"),
    (TimeVal(datetime(2020, 2, 29)), (datetime(2020, 2, 29), PRECISION_DAY),
     "TimeVal(timestamp=datetime.datetime(2020, 2, 29, 0, 0), precision=11)"),
    (AnonConst(3), (3,), "AnonConst(uid=3)"),
    (Pseudo("rank"), ("rank",), "Pseudo(name='rank')"),
    (AttrSet.of([(P(580), StringVal("x"))]), (frozenset({(P(580), StringVal("x"))}),),
     "AttrSet(pairs=frozenset({(EntityId(kind='property', num=580), StringVal(text='x'))}))"),
    (make_statement("s1", Q(1), P(26), Q(2)),
     ("s1", Q(1), P(26), Q(2), AttrSet.of([(RANK_ATTR, StringVal("normal"))]), "normal", ()),
     "Statement(id='s1', subject=EntityId(kind='item', num=1), "
     "property=EntityId(kind='property', num=26), value=EntityId(kind='item', num=2), "
     "qualifiers=AttrSet(pairs=frozenset({(Pseudo(name='rank'), StringVal(text='normal'))})), "
     "rank='normal', references=())"),
    (make_no_value(P(26), Q(1)),
     ("", P(26), "no_value", Q(1), AttrSet.of([(RANK_ATTR, StringVal("normal"))]), "normal", ()),
     "Statement(id='', subject=EntityId(kind='property', num=26), property='no_value', "
     "value=EntityId(kind='item', num=1), "
     "qualifiers=AttrSet(pairs=frozenset({(Pseudo(name='rank'), StringVal(text='normal'))})), "
     "rank='normal', references=())"),
]
_RECORD_IDS = [repr(value)[:24] for value, _f, _r in _RECORDS]


class TestRecordContract:
    """The model values, AttrSet and Statement (a no-value row too) behave as the frozen
    dataclasses they replaced: equal only within their class, hashing as their
    field tuple (so set and dict orders do not move), immutable, picklable,
    and printed the same."""

    @pytest.mark.parametrize("value, fields, text", _RECORDS, ids=_RECORD_IDS)
    def test_equal_only_within_the_class(self, value, fields, text):
        again = copy.copy(value)
        assert value == again and not value != again
        for other, _f, _t in _RECORDS:
            if type(other) is not type(value):
                assert value != other and other != value and not value == other
        assert value != fields and fields != value and value != text

    def test_values_of_one_shape_differ_by_class(self):
        # StringVal, Pseudo and AnonConst are all 1-tuples; a set keeps both of a pair
        assert StringVal("rank") != Pseudo("rank") and len({StringVal("rank"), Pseudo("rank")}) == 2
        assert AnonConst(1) != Pseudo(1) and not AnonConst(1) == Pseudo(1)

    @pytest.mark.parametrize("value, fields, text", _RECORDS, ids=_RECORD_IDS)
    def test_hash_is_the_field_tuple_hash(self, value, fields, text):
        if isinstance(value, QuantityVal):  # a None field hashes as 0: see test_quantity_hash_*
            fields = tuple(0 if f is None else f for f in fields)
        assert hash(value) == hash(fields)

    @pytest.mark.parametrize("value, fields, text", _RECORDS, ids=_RECORD_IDS)
    def test_fields_refuse_assignment(self, value, fields, text):
        name = repr(value).split("(")[1].split("=")[0]
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            setattr(value, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[0]
        assert not hasattr(value, "__dict__")  # slotted: no dictionary per instance

    @pytest.mark.parametrize("value, fields, text", _RECORDS, ids=_RECORD_IDS)
    def test_pickle_and_deepcopy(self, value, fields, text):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value and hash(back) == hash(value)
        back = copy.deepcopy(value)
        assert type(back) is type(value) and back == value and repr(back) == text

    @pytest.mark.parametrize("value, fields, text", _RECORDS, ids=_RECORD_IDS)
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    def test_values_do_not_order(self):
        with pytest.raises(TypeError):
            StringVal("a") < StringVal("b")  # noqa: B015
        with pytest.raises(TypeError):
            sorted([TimeVal(datetime(2000, 1, 1)), TimeVal(datetime(1999, 1, 1))])

    def test_cached_content_key_survives_a_round_trip(self):
        st = make_statement("s1", Q(1), P(26), Q(2), [(P(580), StringVal("x"))], references=["r"])
        back = pickle.loads(pickle.dumps(st))
        assert back.content_key() == st.content_key()
        assert back.qualifiers.without_pseudo() == st.qualifiers.without_pseudo()


_QUANTITY_HASH = ("from decimal import Decimal; from wdcheck.model import Q, QuantityVal; "
                  "print(hash(QuantityVal(Decimal(1))), hash(QuantityVal(Decimal(2), Q(5))), "
                  "hash(QuantityVal(Decimal(2), None, Decimal(1), Decimal(3))))")


def test_quantity_hash_is_the_same_in_every_process():
    # before Python 3.12 hash(None) follows None's address, which differs per process
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    runs = [subprocess.run([sys.executable, "-c", _QUANTITY_HASH], env=env, check=True,
                           capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and runs[0].strip()


def test_days_in_month_is_the_gregorian_month_length():
    for year in range(1, 10000):
        for month in range(1, 13):
            assert days_in_month(year, month) == calendar.monthrange(year, month)[1], (year, month)


class TestAttrSet:
    def test_extensional_equality(self):
        a = AttrSet.of([(P(1), Q(1)), (P(2), Q(2))])
        b = AttrSet.of([(P(2), Q(2)), (P(1), Q(1))])
        assert a == b
        assert hash(a) == hash(b)

    def test_multi_valued_attribute(self):
        s = AttrSet.of([(P(1), Q(1)), (P(1), Q(2))])
        assert sorted(str(v) for v in s.values_for(P(1))) == ["Q1", "Q2"]

    def test_without_pseudo(self):
        s = AttrSet.of([(RANK_ATTR, StringVal("normal")), (P(1), Q(1))])
        assert s.without_pseudo() == AttrSet.of([(P(1), Q(1))])


class TestValueOrder:
    """One total order over values: by kind (anonymous, item, property,
    pseudo, quantity, string), then by printed form.  It fixes the printed
    qualifier sets, exported lines, JSON params and set-atom iteration."""

    VALUES = [StringVal("s"), QuantityVal(Decimal(2)), P(5), Q(10), NOVALUE, Q(2), AnonConst(3)]

    def test_sort_key(self):
        ordered = sorted(self.VALUES, key=_value_sort_key)
        assert [str(v) for v in ordered] == ['_:3', 'Q10', 'Q2', 'P5', 'novalue', '2', '"s"']

    def test_attr_set_str(self):
        s = AttrSet.of((P(1), v) for v in self.VALUES)
        assert str(s) == '{P1: _:3, P1: Q10, P1: Q2, P1: P5, P1: novalue, P1: 2, P1: "s"}'

    def test_export_native_line(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(26), Q(2),
                                        [(P(1), v) for v in self.VALUES]))
        assert export_native(kb) == (
            'P26(Q1, Q2) @ {P1: somevalue, P1: Q10, P1: Q2, P1: P5, P1: novalue, P1: 2, P1: "s"}\n')


class TestStatement:
    def test_rank_and_references_mirrored(self):
        st = make_statement("s1", Q(1), P(26), Q(2),
                            rank="preferred", references=["s1:r1"])
        assert (RANK_ATTR, StringVal("preferred")) in st.qualifiers
        assert (Pseudo("reference"), StringVal("s1:r1")) in st.qualifiers

    def test_direct_pseudo_rejected(self):
        with pytest.raises(ModelError):
            make_statement("s1", Q(1), P(26), Q(2),
                           qualifiers=[(RANK_ATTR, StringVal("normal"))])

    def test_bad_rank_rejected(self):
        with pytest.raises(ModelError):
            make_statement("s1", Q(1), P(26), Q(2), rank="best")

    def test_content_key_ignores_rank_and_refs(self):
        a = make_statement("s1", Q(1), P(26), Q(2), rank="preferred")
        b = make_statement("s2", Q(1), P(26), Q(2), references=["s2:r1"])
        assert a.content_key() == b.content_key()


class TestKnowledgeBase:
    def test_indexes(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(26), Q(2)))
        kb.add_statement(make_statement("s2", Q(1), P(26), Q(3)))
        kb.add_statement(make_statement("s3", Q(9), P(31), Q(5)))
        assert len(kb.by_property[P(26)]) == 2
        assert len(kb.by_prop_subject[(P(26), Q(1))]) == 2
        assert len(kb.by_prop_value[(P(26), Q(3))]) == 1

    def test_duplicate_id_rejected(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(26), Q(2)))
        with pytest.raises(ModelError):
            kb.add_statement(make_statement("s1", Q(1), P(26), Q(3)))

    def test_deprecated_filtered_by_default(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(26), Q(2), rank="deprecated"))
        assert kb.facts_for(P(26)) == []
        assert len(kb.by_property[P(26)]) == 1

    def test_active_domain(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement(
            "s1", Q(1), P(26), Q(2),
            qualifiers=[(P(580), TimeVal(datetime(1988, 6, 12)))]))
        dom = kb.active_domain()
        assert Q(1) in dom
        assert P(26) in dom
        assert Q(2) in dom
        assert P(580) in dom
        assert TimeVal(datetime(1988, 6, 12)) in dom
        # the mirrored rank pair counts as well
        assert StringVal("normal") in dom

    def test_has_fact_ignores_rank(self):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(26), Q(2), rank="preferred"))
        assert kb.has_fact(Q(1), P(26), Q(2), AttrSet())
        assert not kb.has_fact(Q(2), P(26), Q(1), AttrSet())

    def test_attr_sets_contains_empty(self):
        kb = KnowledgeBase()
        assert AttrSet() in kb.attr_sets()

    def test_copy_is_independent(self):
        facts = [make_statement("s1", Q(1), P(26), Q(2)), make_no_value(P(40), Q(1)),
                 make_statement("", StringVal("Page"), "Commons_namespace", StringVal("Category"))]
        kb = KnowledgeBase()
        for st in facts:
            kb.add_statement(st)
        clone = kb.copy()
        more = [make_statement("s2", Q(3), P(26), Q(4)), make_no_value(P(40), Q(3))]
        for st in more:
            clone.add_statement(st)
        assert list(kb.facts()) == facts and len(kb.statements) == 1
        assert list(clone.facts()) == [facts[0], more[0], facts[1], more[1], facts[2]]

    def test_no_value_duplicates_dropped_in_order(self):
        kb = KnowledgeBase()
        rows = [make_no_value(P(40), Q(1)), make_no_value(P(40), Q(2)), make_no_value(P(40), Q(1)),
                make_no_value(P(41), Q(1)), make_no_value(P(40), Q(2)),
                make_no_value(P(40), Q(1), rank="deprecated")]  # another rank: another row
        for row in rows:
            kb.add_statement(row)
        assert kb.by_property["no_value"] == [rows[0], rows[1], rows[3], rows[5]]
        assert kb.statements == {}  # a row is indexed, not kept with the statements
        clone = kb.copy()
        clone.add_statement(make_no_value(P(41), Q(1)))
        clone.add_statement(make_no_value(P(42), Q(1)))
        assert clone.by_property["no_value"] == [rows[0], rows[1], rows[3], rows[5],
                                                 make_no_value(P(42), Q(1))]
        assert len(kb.by_property["no_value"]) == 4

    def test_rows_are_facts_but_their_table_is_no_constant(self):
        kb = KnowledgeBase()
        page = make_statement("", StringVal("Page"), "Commons_namespace", StringVal("Category"))
        other = make_statement("", StringVal("Page"), "Commons_namespace", StringVal("Gallery"))
        for st in (page, other, page, make_no_value(P(40), Q(1), [(P(585), Q(9))])):
            kb.add_statement(st)
        assert kb.by_prop_subject[("Commons_namespace", StringVal("Page"))] == [page, other]
        assert kb.active_domain() == {StringVal("Page"), StringVal("Category"),
                                      StringVal("Gallery"), P(40), Q(1), P(585), Q(9),
                                      RANK_ATTR, StringVal("normal")}
        assert AttrSet.of([(P(585), Q(9)), (RANK_ATTR, StringVal("normal"))]) in kb.attr_sets()


class TestCopyContract:
    """KnowledgeBase.copy copies the indexes add_statement built, in their key
    and list order, and shares no list or set with the base."""

    @staticmethod
    def base() -> KnowledgeBase:
        kb = KnowledgeBase()
        facts = [(Q(3), P(26), Q(1)), (Q(1), P(26), Q(2)), (Q(1), P(31), Q(5)),
                 (Q(2), P(26), Q(1)), (Q(3), P(31), Q(5)), (Q(1), P(26), Q(3))]
        for i, (s, p, v) in enumerate(facts, start=1):
            kb.add_statement(make_statement(f"s{i}", s, p, v, [(P(580), StringVal(str(i)))] * (i % 2)))
        return kb

    @staticmethod
    def indexes(kb: KnowledgeBase) -> list:
        return [list(kb.statements.items())] + [
            [(k, list(v)) for k, v in index.items()]
            for index in (kb.by_property, kb.by_prop_subject, kb.by_prop_value)]

    def test_copy_is_what_add_statement_builds(self):
        base = self.base()
        rebuilt = KnowledgeBase()
        for st in base.statements.values():
            rebuilt.add_statement(st)
        clone = base.copy()
        assert self.indexes(clone) == self.indexes(rebuilt)
        assert clone._content_keys == rebuilt._content_keys

    def test_adding_to_the_copy_leaves_the_base(self):
        base = self.base()
        before = self.indexes(base), set(base._content_keys)
        clone = base.copy()
        # the same property, subject and value as s2: it lands in s2's list of every index
        clone.add_statement(make_statement("s7", Q(1), P(26), Q(2), [(P(582), Q(9))]))
        assert (self.indexes(base), base._content_keys) == before
        assert len(clone.statements) == len(clone._content_keys) == 7

    def test_lazy_indexes_are_built_fresh(self):
        base = self.base()
        assert base.by_subject and base.by_qualifier_attr
        clone = base.copy()
        assert clone._subject_index is None and clone._qualifier_index is None
        clone.add_statement(make_statement("s7", Q(9), P(31), Q(5), [(P(582), Q(9))]))
        assert [st.id for st in clone.by_subject[Q(9)]] == ["s7"]
        assert [st.id for st in clone.by_qualifier_attr[P(582)]] == ["s7"]
        assert Q(9) not in base.by_subject and P(582) not in base.by_qualifier_attr


class TestTimeInterval:
    def test_day_precision(self):
        lo, hi = time_interval(TimeVal(datetime(2020, 2, 29), PRECISION_DAY))
        assert lo == datetime(2020, 2, 29)
        assert hi == datetime(2020, 2, 29, 23, 59, 59)

    def test_year_precision(self):
        lo, hi = time_interval(TimeVal(datetime(1950, 6, 15), PRECISION_YEAR))
        assert lo == datetime(1950, 1, 1)
        assert hi == datetime(1950, 12, 31, 23, 59, 59)

    def test_decade_precision(self):
        lo, hi = time_interval(TimeVal(datetime(1987, 1, 1), 8))
        assert lo == datetime(1980, 1, 1)
        assert hi.year == 1989


class TestDatatypeRelations:
    def test_less_than_times(self):
        a = TimeVal(datetime(1900, 1, 1))
        b = TimeVal(datetime(1950, 1, 1))
        assert datatype_relation("less_than", a, b)
        assert not datatype_relation("less_than", b, a)

    def test_less_than_quantities(self):
        assert datatype_relation("less_than", QuantityVal(Decimal(1)), QuantityVal(Decimal(2)))

    def test_less_than_unit_mismatch(self):
        with pytest.raises(DatatypeError):
            datatype_relation("less_than", QuantityVal(Decimal(1), Q(1)),
                              QuantityVal(Decimal(2), Q(2)))

    def test_less_than_mixed_kinds(self):
        with pytest.raises(DatatypeError):
            datatype_relation("less_than", QuantityVal(Decimal(1)), TimeVal(datetime(1950, 1, 1)))

    def test_overlaps_respects_precision(self):
        year = TimeVal(datetime(1950, 6, 15), PRECISION_YEAR)
        day = TimeVal(datetime(1950, 1, 2), PRECISION_DAY)
        other = TimeVal(datetime(1951, 1, 2), PRECISION_DAY)
        assert datatype_relation("overlaps", year, day)
        assert not datatype_relation("overlaps", year, other)

    def test_matches_regex(self):
        assert datatype_relation("matches_regex", StringVal("978-3"), StringVal(r"97[89]-\d"))
        assert not datatype_relation("matches_regex", StringVal("abc"), StringVal("ab"))

    def test_integer_and_precise(self):
        assert datatype_relation("integer", QuantityVal(Decimal("3")))
        assert not datatype_relation("integer", QuantityVal(Decimal("3.5")))
        assert datatype_relation("precise", QuantityVal(Decimal(3)))
        assert not datatype_relation(
            "precise", QuantityVal(Decimal(3), None, Decimal(2), Decimal(4)))

    def test_geq_leq(self):
        assert datatype_relation("geq", QuantityVal(Decimal(3)), QuantityVal(Decimal(3)))
        assert datatype_relation("leq", TimeVal(datetime(1900, 1, 1)),
                                 TimeVal(datetime(1950, 1, 1)))

    def test_has_unit(self):
        metre = QuantityVal(Decimal(5), Q(11573))
        plain = QuantityVal(Decimal(5))
        assert datatype_relation("has_unit", metre, Q(11573))
        assert not datatype_relation("has_unit", plain, Q(11573))
        assert datatype_relation("has_unit", plain, Pseudo("no_unit"))
        assert not datatype_relation("has_unit", StringVal("x"), Pseudo("no_unit"))

    def test_difference(self):
        d = datatype_function("difference", TimeVal(datetime(1950, 1, 11)),
                              TimeVal(datetime(1950, 1, 1)))
        assert d.amount == Decimal(10)
        assert d.unit == "@days"
        q = datatype_function("difference", QuantityVal(Decimal(5)), QuantityVal(Decimal(2)))
        assert q == QuantityVal(Decimal(3))

    @pytest.mark.parametrize("unit, bound, inside", [
        (None, "50", True), (None, "49", False), (Q(577), "50", True), (Q(577), "49", False),
        (Q(573), "18262", True), (Q(573), "18261", False)])
    def test_time_difference_against_year_or_day_bound(self, unit, bound, inside):
        # 1900-01-01 to 1950-01-01 is 18,262 days, 49.999 years of 365.25 days
        days = datatype_function("difference", TimeVal(datetime(1950, 1, 1)),
                                 TimeVal(datetime(1900, 1, 1)))
        limit = QuantityVal(Decimal(bound), unit)
        assert datatype_relation("leq", days, limit) is inside
        assert datatype_relation("geq", limit, days) is inside

    def test_time_difference_against_other_unit_mismatches(self):
        days = datatype_function("difference", TimeVal(datetime(1950, 1, 1)),
                                 TimeVal(datetime(1900, 1, 1)))
        with pytest.raises(DatatypeError, match="unit mismatch"):
            datatype_relation("leq", days, QuantityVal(Decimal(5), Q(11573)))
        with pytest.raises(DatatypeError, match="unit mismatch"):
            datatype_relation("geq", QuantityVal(Decimal(5)), QuantityVal(Decimal(5), Q(577)))


class TestPatterns:
    def test_plain_pattern_compiles(self):
        assert compile_pattern(r"\d{3}-\d").fullmatch("123-4")

    @pytest.mark.parametrize("bad", [r"\p{L}+", r"(?R)", "(unclosed"])
    def test_unsupported_patterns(self, bad):
        with pytest.raises(UnsupportedPattern):
            compile_pattern(bad)


class TestQuantityBounds:
    def test_bounds_validated(self):
        with pytest.raises(ModelError):
            QuantityVal(Decimal(1), None, Decimal(2), None)
        with pytest.raises(ModelError):
            QuantityVal(Decimal(5), None, None, Decimal(4))

    @pytest.mark.parametrize("lower, upper", [(Decimal(4), None), (None, Decimal(6))])
    def test_one_bound_rejected(self, lower, upper):
        with pytest.raises(ModelError, match="has only one bound"):
            QuantityVal(Decimal(5), None, lower, upper)

    def test_str_round_shape(self):
        q = QuantityVal(Decimal("2.5"), Q(11573), Decimal(2), Decimal(3))
        assert str(q) == "2.5[2,3] unit=Q11573"
