"""Native text format and Wikibase JSON ingestion."""

import copy
import json
import pathlib
import re
import time
from collections import Counter
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kb_from
from wdcheck.catalog import check
from wdcheck.cli import main
from wdcheck import ingest
from wdcheck.ingest import (
    IngestError,
    IngestStats,
    _LineParser,
    export_native,
    load_native,
    load_wikidata_json,
)
from wdcheck.formula import Implies, ParseError, negate_to_violation_query, parse, tokenize
from wdcheck.labels import DEFAULT_LABELS
from wdcheck.model import (
    RANK_ATTR,
    RANKS,
    AnonConst,
    AttrSet,
    KnowledgeBase,
    ModelError,
    NOVALUE,
    P,
    Q,
    QuantityVal,
    StringVal,
    TimeVal,
    make_no_value,
    make_statement,
)
from wdcheck.templates import builtin_templates

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestNativeFormat:
    def test_statement_with_everything(self):
        kb, stats = load_native(
            'P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred refs=2')
        assert stats.statements == 1
        (st,) = kb.statements.values()
        assert st.subject == Q(1)
        assert st.value == Q(2)
        assert st.rank == "preferred"
        assert len(st.references) == 2
        assert st.qualifiers.values_for(P(580)) == [TimeVal(datetime(1988, 6, 12))]

    def test_labels_in_facts(self):
        kb, _ = load_native("spouse(Q1, Q2)")
        assert P(26) in kb.by_property

    def test_value_kinds(self):
        kb, _ = load_native(
            "\n".join([
                'P1(Q1, "text")',
                "P2(Q1, 42)",
                "P3(Q1, 2.5[2,3] unit=Q11573)",
                "P4(Q1, 1988-06-12T10:30:00/14)",
                "P5(Q1, somevalue)",
                "P6(Q1, P31)",
            ]))
        values = {st.property: st.value for st in kb.statements.values()}
        assert values[P(1)] == StringVal("text")
        assert values[P(2)] == QuantityVal(Decimal(42))
        assert values[P(3)] == QuantityVal(Decimal("2.5"), Q(11573), Decimal(2), Decimal(3))
        assert values[P(4)] == TimeVal(datetime(1988, 6, 12, 10, 30), 14)
        assert isinstance(values[P(5)], AnonConst)
        assert values[P(6)] == P(31)

    def test_no_value_and_commons(self):
        # each line twice: the KB keeps one row of each, the counts are of rows kept,
        # and each repeat is skipped as a duplicate
        kb, stats = load_native(2 * (
            'no_value(P40, Q3) @ {P585: 2020-01-01} rank=preferred\n'
            'commons_ns("Douglas Adams", "Category")\n'))
        assert stats.no_values == 1
        assert stats.commons_pages == 1
        assert stats.skipped == [("duplicate", "Q3 P40"),
                                 ("duplicate", '"Douglas Adams" Commons_namespace')]
        (row,) = kb.by_property["no_value"]
        assert (row.subject, row.value, row.rank) == (P(40), Q(3), "preferred")
        (page,) = kb.by_property["Commons_namespace"]
        assert (page.subject, page.value) == (StringVal("Douglas Adams"), StringVal("Category"))
        assert kb.statements == {}

    def test_comments_and_blank_lines(self):
        kb, stats = load_native("# header\n\nP26(Q1, Q2)  # trailing\n")
        assert stats.statements == 1

    def test_hash_inside_string_is_not_a_comment(self):
        kb, stats = load_native('P1(Q1, "C#")  # note\n')
        assert stats.statements == 1
        (st,) = kb.statements.values()
        assert st.value == StringVal("C#")

    def test_error_reports_line_number(self):
        with pytest.raises(IngestError, match="line 2"):
            load_native("P26(Q1, Q2)\nP26(Q1,\n")

    def test_rejects_item_predicate(self):
        with pytest.raises(IngestError):
            load_native("Q5(Q1, Q2)")

    def test_export_round_trip_bytes(self, family_kb):
        text = export_native(family_kb)
        kb2, _ = load_native(text)
        assert export_native(kb2) == text

    def test_export_hides_mirrored_pseudo(self):
        kb, _ = load_native("P26(Q1, Q2) rank=preferred refs=1")
        text = export_native(kb)
        assert "rank=preferred" in text and "refs=1" in text
        assert "{" not in text  # pseudo pairs are not rendered as qualifiers

    @given(st.text())
    def test_any_string_round_trips(self, text):
        kb = KnowledgeBase()
        kb.add_statement(make_statement("s1", Q(1), P(1), StringVal(text)))
        kb2, _ = load_native(export_native(kb))
        assert [stmt.value for stmt in kb2.statements.values()] == [StringVal(text)]

    def test_json_string_with_line_break_round_trips(self):
        doc = entity_doc("Q1", {"P1": [claim("P1", value_snak("string", "a\nb"))]})
        kb, _ = load_wikidata_json([doc])
        text = export_native(kb)
        assert text.count("\n") == 1
        kb2, _ = load_native(text)
        assert [stmt.value for stmt in kb2.statements.values()] == [StringVal("a\nb")]

    def test_unknown_escape_kept_as_written(self):
        kb, _ = load_native(r'P1793(Q1, "97[89]-[\d-]+")')
        assert [stmt.value for stmt in kb.statements.values()] == [StringVal(r"97[89]-[\d-]+")]

    @pytest.mark.parametrize("fact,message", [
        ("P569(Q1, 2020-02-30)",
         "line 2: 1:10: invalid date '2020-02-30': day is out of range for month"),
        ("P569(Q1, 0000-01-01)",
         "line 2: 1:10: invalid date '0000-01-01': year 0 is out of range"),
        ("P26(Q1, Q2) @ {P580: 1990-01-01T24:00:00/14}",
         "line 2: 1:22: invalid date '1990-01-01T24:00:00/14': hour must be in 0..23"),
    ])
    def test_invalid_date_is_a_line_diagnostic(self, fact, message):
        with pytest.raises(IngestError) as exc:
            load_native(f"P31(Q1, Q5)\n  {fact}\n")
        assert str(exc.value) == message

    def test_early_year_survives_export(self):
        doc = entity_doc("Q1", {"P569": [claim("P569", value_snak(
            "time", {"time": "+0999-03-01T00:00:00Z", "precision": 11}))]})
        kb, _ = load_wikidata_json([doc])
        text = export_native(kb)
        assert text == "P569(Q1, 0999-03-01T00:00:00/11)\n"
        kb2, _ = load_native(text)
        assert [stmt.value for stmt in kb2.statements.values()] == [
            TimeVal(datetime(999, 3, 1))]


def _bad_lines() -> list:
    text = (FIXTURES / "bad_native_lines.txt").read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def _in_context(i: int, sep: str) -> str:
    """Corpus line i as line i + 4 of a file, after good lines, a blank and a
    comment, and before a good line with a string and the next corpus line."""
    lines = _bad_lines()
    before = [f"P31(Q{j + 1}, Q5)" for j in range(i)] + ["", "# a comment", 'P214(Q1, "x")']
    after = ['P214(Q2, "tail")', lines[(i + 1) % len(lines)]]
    return sep.join(before + [lines[i]] + after) + sep


class TestBadLineCorpus:
    """Each error path of load_native, pinned byte for byte."""

    EXPECTED = (FIXTURES / "bad_native_lines.expected").read_text(encoding="utf-8").splitlines()

    def test_one_message_per_line(self):
        assert len(self.EXPECTED) == len(_bad_lines())

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\u2028"])
    @pytest.mark.parametrize("i", range(len(_bad_lines())))
    def test_message(self, i, sep):
        with pytest.raises(IngestError) as exc:
            load_native(_in_context(i, sep))
        assert str(exc.value) == self.EXPECTED[i]

    def test_first_bad_line_wins(self):
        text = (FIXTURES / "bad_native_lines.txt").read_text(encoding="utf-8")
        first = next(n for n, ln in enumerate(text.splitlines(), start=1)
                     if ln.strip() and not ln.startswith("#"))
        with pytest.raises(IngestError) as exc:
            load_native(text)
        assert str(exc.value) == re.sub(r"^line \d+", f"line {first}", self.EXPECTED[0])


# Fact lines in and near the canonical shape that load_native reads with one
# match: entity ids, strings with escapes and dates (valid or not) as values,
# then a perturbation that may take the line out of that shape.
_line_ids = st.builds("{}{}".format, st.sampled_from("QP"), st.integers(1, 10**6))
_line_values = st.one_of(
    _line_ids,
    st.text().map(lambda t: str(StringVal(t))),
    st.text(alphabet='ab\\"u0e9,: {}').map(lambda t: f'"{t}"'),
    st.builds("{:04d}-{:02d}-{:02d}".format,
              st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)),
    st.sampled_from(["somevalue", "spouse", "`spouse`", "1990-01-01T10:00:00",
                     "1990-01-01/9", "\u0661\u0669\u0669\u0660-01-01", "42", "?x"]))


@st.composite
def _near_canonical_lines(draw):
    prop = draw(st.builds("{}{}".format, st.sampled_from("PPPPQ"), st.integers(0, 10**6)))
    line = f"{prop}({draw(_line_ids)}, {draw(_line_values)})"
    pairs = draw(st.lists(st.tuples(_line_ids, _line_values), max_size=3))
    if pairs:
        line += " @ {" + ", ".join(f"{a}: {v}" for a, v in pairs) + "}"
    edit = draw(st.sampled_from(["none"] * 4 + ["insert", "delete", "comment", "trailer"]))
    at = draw(st.integers(0, len(line) - 1))
    if edit == "insert":  # other spacing
        line = line[:at] + draw(st.sampled_from([" ", "  ", "\t"])) + line[at:]
    elif edit == "delete":  # a missing bracket, comma or space
        line = line[:at] + line[at + 1:]
    elif edit == "comment":
        line += "  # note"
    elif edit == "trailer":
        line += draw(st.sampled_from([" rank=preferred", " refs=2", " rank=normal"]))
    return line.strip()


def _outcome(load) -> tuple:
    """What load() built from one line, or the message it raised."""
    try:
        kb, stats = load()
    except IngestError as exc:
        return ("error", str(exc))
    return ([(st.id, st.subject, st.property, st.value, st.qualifiers, st.rank, st.references)
             for st in kb.facts()],
            kb._anon_counter, stats)


@settings(max_examples=1000, deadline=None)
@given(_near_canonical_lines())
def test_canonical_lines_read_as_the_parser_reads_them(line):
    def parsed():
        kb, stats = KnowledgeBase(), IngestStats()
        try:
            _LineParser(DEFAULT_LABELS, kb, stats).fact(tokenize(line))
        except (ParseError, ModelError) as exc:
            raise IngestError(f"line 1: {exc}") from exc
        return kb, stats

    assert _outcome(lambda: load_native(line)) == _outcome(parsed)


def test_family_fixture_tokenizes_only_comments_and_blanks(monkeypatch):
    text = (FIXTURES / "family_s1.native").read_text(encoding="utf-8")
    tokenized = []
    monkeypatch.setattr(ingest, "tokenize", lambda line: tokenized.append(line) or tokenize(line))
    _, stats = load_native(text)
    assert tokenized == [ln.strip() for ln in text.splitlines()
                         if not ln.strip() or ln.lstrip().startswith("#")]
    assert stats.statements == len(text.splitlines()) - len(tokenized) > 700


# Every value the native format represents, for the export/load round trip.
# None stands for somevalue, a fresh anonymous constant.
_items = st.integers(1, 10**9).map(Q)
_props = st.integers(1, 10**5).map(P)
_decimals = st.builds(lambda n, places: Decimal(n).scaleb(-places),
                      st.integers(-10**15, 10**15), st.integers(0, 6))
_units = st.none() | _items
_quantities = (st.builds(QuantityVal, _decimals, _units)
               | st.builds(lambda bounds, unit: QuantityVal(bounds[1], unit, bounds[0], bounds[2]),
                           st.lists(_decimals, min_size=3, max_size=3).map(sorted), _units))
_times = st.builds(TimeVal,
                   st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
                   .map(lambda d: d.replace(microsecond=0)),
                   st.integers(0, 14))
_values = st.one_of(_items, _props, st.text().map(StringVal),
                    _quantities, _times, st.none())
_qualifiers = st.lists(st.tuples(_props, _values), max_size=3)


@st.composite
def _native_kbs(draw):
    kb = KnowledgeBase()

    def fresh(v):
        return kb.fresh_anon() if v is None else v

    for subj, prop, value, quals, rank, refs in draw(st.lists(st.tuples(
            _items | _props, _props, _values, _qualifiers, st.sampled_from(RANKS),
            st.integers(0, 3)), max_size=5)):
        kb.add_statement(make_statement(
            kb.fresh_statement_id(), subj, prop, fresh(value),
            [(a, fresh(v)) for a, v in quals], rank, [f"r{i}" for i in range(refs)]))
    for prop, subj, quals, rank in draw(st.lists(st.tuples(
            _props, _items, _qualifiers, st.sampled_from(RANKS)), max_size=2)):
        kb.add_statement(make_no_value(prop, subj, [(a, fresh(v)) for a, v in quals], rank))
    for page, ns in draw(st.lists(st.tuples(st.text(), st.text()), max_size=2)):
        kb.add_statement(make_statement("", StringVal(page), "Commons_namespace", StringVal(ns)))
    return kb


def _content_keys(kb: KnowledgeBase) -> tuple:
    """The statements' content keys and the rows, every anonymous constant made the same."""
    def plain(v):
        return None if isinstance(v, AnonConst) else v

    def pairs(quals):
        return frozenset((a, plain(x)) for a, x in quals)

    return (Counter((s, p, plain(v), pairs(quals))
                    for s, p, v, quals in (st.content_key() for st in kb.statements.values())),
            Counter((r.subject, r.property, r.value, pairs(r.qualifiers))
                    for r in kb.facts() if not r.id))


@settings(max_examples=300, deadline=None)
@given(_native_kbs())
def test_export_load_round_trip(kb):
    text = export_native(kb)
    kb2, _ = load_native(text)
    assert _content_keys(kb2) == _content_keys(kb)
    assert export_native(kb2) == text


def test_readme_examples_run():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    facts, formula = re.findall(r"```text\n(.*?)```", readme, flags=re.DOTALL)
    kb, stats = load_native(facts)
    assert (stats.statements, stats.no_values, stats.commons_pages) == (5, 1, 1)
    assert not stats.skipped
    f = parse(formula)
    assert isinstance(f, Implies)
    negate_to_violation_query(f)


class TestMerge:
    def test_merge_refreshes_ids_and_anons(self):
        merged, _ = load_native("P26(Q1, somevalue)")
        load_native("P26(Q2, somevalue)\nno_value(P40, Q3)", kb=merged)
        assert len(merged.statements) == 2
        anons = {st.value for st in merged.statements.values()}
        assert len(anons) == 2  # distinct anonymous constants survive the merge
        assert len(merged.by_property["no_value"]) == 1


def entity_doc(eid, claims=None, label=None):
    doc = {"id": eid, "claims": claims or {}}
    if label:
        doc["labels"] = {"en": {"value": label}}
    return doc


def claim(pid, snak, qualifiers=None, rank="normal", refs=0, cid=None):
    c = {"mainsnak": dict(snak, property=pid), "rank": rank, "type": "statement"}
    if cid:
        c["id"] = cid
    if qualifiers:
        c["qualifiers"] = qualifiers
    if refs:
        c["references"] = [{"snaks": {}} for _ in range(refs)]
    return c


def value_snak(dtype, value):
    return {"snaktype": "value", "datavalue": {"type": dtype, "value": value}}


class TestWikidataJson:
    def test_basic_entity(self):
        doc = entity_doc("Q42", {
            "P26": [claim("P26", value_snak("wikibase-entityid", {"id": "Q43"}),
                          qualifiers={"P580": [value_snak(
                              "time", {"time": "+1991-11-25T00:00:00Z", "precision": 11})]},
                          rank="preferred", refs=2)],
        }, label="Douglas Adams")
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 1
        (st,) = kb.statements.values()
        assert st.subject == Q(42)
        assert st.value == Q(43)
        assert st.rank == "preferred"
        assert len(st.references) == 2
        assert st.qualifiers.values_for(P(580)) == [
            TimeVal(datetime(1991, 11, 25), 11)]
        assert kb.labels[Q(42)] == "Douglas Adams"

    def test_entities_map_document(self):
        doc = {"entities": {"Q1": entity_doc("Q1", {
            "P31": [claim("P31", value_snak("wikibase-entityid", {"id": "Q5"}))]})}}
        kb, stats = load_wikidata_json(json.dumps(doc))
        assert stats.statements == 1

    def test_quantity_and_string(self):
        doc = entity_doc("Q1", {
            "P1082": [claim("P1082", value_snak("quantity", {
                "amount": "+39000", "unit": "1",
                "lowerBound": "+38000", "upperBound": "+40000"}))],
            "P212": [claim("P212", value_snak("string", "978-3"))],
        })
        kb, _ = load_wikidata_json([doc])
        values = {st.property: st.value for st in kb.statements.values()}
        assert values[P(1082)] == QuantityVal(
            Decimal(39000), None, Decimal(38000), Decimal(40000))
        assert values[P(212)] == StringVal("978-3")

    @pytest.mark.parametrize("amount, loaded", [
        (5, True), ("+5", True), (True, False), (5.0, False), ("Infinity", False),
        ("+1.5", True), ("1e1000000", False)])
    def test_quantity_number_types(self, amount, loaded):
        doc = entity_doc("Q1", {"P1082": [claim("P1082", value_snak("quantity", {
            "amount": amount, "unit": "1"}))]})
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == int(loaded)
        assert [reason for reason, _ in stats.skipped] == ([] if loaded else ["mainsnak"])

    def test_quantity_unit_uri(self):
        doc = entity_doc("Q1", {"P2048": [claim("P2048", value_snak("quantity", {
            "amount": "+5", "unit": "http://www.wikidata.org/entity/Q11573"}))]})
        kb, _ = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.value == QuantityVal(Decimal(5), Q(11573))

    def test_somevalue_and_novalue(self):
        doc = entity_doc("Q1", {
            "P569": [claim("P569", {"snaktype": "somevalue"})],
            "P40": [claim("P40", {"snaktype": "novalue"}), claim("P40", {"snaktype": "novalue"})],
        })
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 1
        assert stats.no_values == len(kb.by_property["no_value"]) == 1  # the repeat is not kept
        assert stats.skipped == [("duplicate", "Q1 P40")]
        (st,) = kb.statements.values()
        assert isinstance(st.value, AnonConst)
        assert kb.by_property["no_value"][0].subject == P(40)

    def test_unsupported_datatype_skipped(self):
        doc = entity_doc("Q1", {
            "P625": [claim("P625", value_snak("globecoordinate",
                                              {"latitude": 1, "longitude": 2}))],
            "P1476": [claim("P1476", value_snak("monolingualtext",
                                                {"text": "t", "language": "en"}))],
        })
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 0
        assert {reason for reason, _ in stats.skipped} == {"mainsnak"}
        assert len(stats.skipped) == 2

    def test_non_string_string_value_skipped(self):
        doc = entity_doc("Q1", {
            "P212": [claim("P212", value_snak("string", 5))],
            "P31": [claim("P31", value_snak("wikibase-entityid", {"id": "Q5"}),
                          qualifiers={"P1545": [value_snak("string", ["1"])]})],
        })
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 0
        assert [reason for reason, _ in stats.skipped] == ["mainsnak", "qualifier"]
        assert "bad string value 5" in stats.skipped[0][1]

    def test_bce_date_skipped(self):
        doc = entity_doc("Q1", {"P569": [claim("P569", value_snak(
            "time", {"time": "-0347-00-00T00:00:00Z", "precision": 9}))]})
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 0
        assert stats.skipped

    def test_invalid_calendar_date_skipped(self):
        doc = entity_doc("Q1", {"P569": [claim("P569", value_snak(
            "time", {"time": "+2020-02-30T00:00:00Z", "precision": 11}))]})
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 0
        assert [reason for reason, _ in stats.skipped] == ["mainsnak"]

    def test_non_ascii_digits_skipped(self):
        doc = entity_doc("Q1", {"P569": [claim("P569", value_snak(
            "time", {"time": "+\u0661\u0669\u0669\u0660-01-01T00:00:00Z", "precision": 11}))]})
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 0
        assert [reason for reason, _ in stats.skipped] == ["mainsnak"]

    @pytest.mark.parametrize("entity_type, expected", [
        ("item", Q(2)), ("property", P(2))])
    def test_legacy_entity_value_without_id(self, entity_type, expected):
        doc = entity_doc("Q1", {"P1889": [claim("P1889", value_snak(
            "wikibase-entityid", {"entity-type": entity_type, "numeric-id": 2}))]})
        kb, stats = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.value == expected

    def test_zero_month_day_clamped(self):
        doc = entity_doc("Q1", {"P569": [claim("P569", value_snak(
            "time", {"time": "+1952-00-00T00:00:00Z", "precision": 9}))]})
        kb, _ = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.value == TimeVal(datetime(1952, 1, 1), 9)

    def test_duplicate_claim_id_freshened(self):
        c = claim("P31", value_snak("wikibase-entityid", {"id": "Q5"}), cid="X$1")
        doc = entity_doc("Q1", {"P31": [c, dict(c)]})
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 2

    def test_novalue_qualifier(self):
        doc = entity_doc("Q1", {"P26": [claim(
            "P26", value_snak("wikibase-entityid", {"id": "Q2"}),
            qualifiers={"P582": [{"snaktype": "novalue"}]})]})
        kb, _ = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.qualifiers.values_for(P(582)) == [NOVALUE]

    def test_single_document(self):
        doc = entity_doc("Q1", {"P31": [claim("P31", value_snak("wikibase-entityid",
                                                                {"id": "Q5"}))]})
        kb, stats = load_wikidata_json(json.dumps(doc))
        assert stats.statements == 1
        (st,) = kb.statements.values()
        assert (st.subject, st.value) == (Q(1), Q(5))

    def test_bad_ids_skipped(self):
        good = claim("P31", value_snak("wikibase-entityid", {"id": "Q5"}))
        docs = [entity_doc("X1", {"P31": [good]}), {"claims": {"P31": [good]}},
                entity_doc("Q1", {"P31": [good], "bogus": [good]})]
        kb, stats = load_wikidata_json(docs)
        assert stats.statements == 1
        assert stats.skipped == [("bad-entity-id", "X1"), ("bad-entity-id", "None"),
                                 ("bad-property-id", "bogus")]

    def test_unknown_rank_is_normal(self):
        doc = entity_doc("Q1", {
            "P31": [claim("P31", value_snak("wikibase-entityid", {"id": "Q5"}), rank="top")],
            "P40": [claim("P40", {"snaktype": "novalue"}, rank="top")]})
        kb, _ = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.rank == "normal"
        (row,) = kb.by_property["no_value"]
        assert row.qualifiers == AttrSet.of([(RANK_ATTR, StringVal("normal"))])

    def test_many_novalue_claims_load_in_linear_time(self):
        docs = [entity_doc(f"Q{i}", {"P40": [claim("P40", {"snaktype": "novalue"})]})
                for i in range(1, 10_001)]
        start = time.perf_counter()
        kb, stats = load_wikidata_json(docs)
        assert time.perf_counter() - start < 5.0
        assert stats.no_values == len(kb.by_property["no_value"]) == 10_000

    def test_bad_document_shape(self):
        with pytest.raises(IngestError):
            load_wikidata_json("42")


def _two_documents() -> dict:
    """Q1 with a P31 claim (id Q1$1, one qualifier) and a P17 claim; Q2 with one claim."""
    def item():
        return value_snak("wikibase-entityid", {"id": "Q5"})

    when = {"P580": [value_snak("time", {"time": "+2000-01-01T00:00:00Z", "precision": 11})]}
    return {"entities": {
        "Q1": entity_doc("Q1", {"P31": [claim("P31", item(), qualifiers=when, cid="Q1$1")],
                                "P17": [claim("P17", item())]}, label="one"),
        "Q2": entity_doc("Q2", {"P31": [claim("P31", item())]}),
    }}


@pytest.mark.parametrize("path, value, skipped, loaded", [
    (("Q1", "claims"), [], ("bad-claims", "Q1: claims is a list"), 1),
    (("Q1", "claims", "P31"), {"id": "Q1$1"}, ("bad-claims", "Q1 P31: claim group is a dict"), 2),
    (("Q1", "claims", "P31", 0), "Q1$1", ("bad-claim", "Q1 P31: claim is a str"), 2),
    (("Q1", "claims", "P31", 0, "mainsnak"), "Q5", ("mainsnak", "Q1$1: snak is a str"), 2),
    (("Q1", "claims", "P31", 0, "qualifiers"), [], ("qualifier", "Q1$1: qualifiers is a list"), 2),
    (("Q1", "claims", "P31", 0, "qualifiers", "P580"), 3,
     ("qualifier", "Q1$1: P580 snaks is a int"), 2),
    (("Q1", "claims", "P31", 0, "mainsnak", "datavalue"), "Q5",
     ("mainsnak", "Q1$1: datavalue is a str"), 2),
    (("Q1", "claims", "P31", 0, "mainsnak", "datavalue", "value"),
     {"entity-type": [], "numeric-id": 5}, ("mainsnak", "Q1$1: not an entity id: '5'"), 2),
    (("Q1", "claims", "P31", 0, "references"), 2, ("bad-claim", "Q1 P31: references is a int"), 2),
    (("Q1", "claims", "P31", 0, "id"), 7, ("bad-claim", "Q1 P31: id is a int"), 2),
    (("Q1", "labels", "en"), "one", ("bad-label", "Q1: labels.en is a str"), 3),
    (("Q1",), "Q1", ("bad-document", "document is a str"), 1),
    (("Q1", "id"), 1, ("bad-entity-id", "1"), 1),
    ((), [], None, 0),  # an entities list is no entity container
    (("Q1", "claims", "P40"), [claim("P40", {"snaktype": "novalue"})] * 2,
     ("duplicate", "Q1 P40"), 3),  # the repeat of a no-value claim
])
def test_json_shape_fault_skips_the_smallest_unit(capsys, tmp_path, path, value, skipped, loaded):
    dump = _two_documents()
    target = dump["entities"]
    for key in path[:-1]:
        target = target[key]
    if path:
        target[path[-1]] = value
    else:
        dump["entities"] = value
    file = tmp_path / "dump.json"
    file.write_text(json.dumps(dump))
    code = main(["check", "--input", str(file)])
    out, err = capsys.readouterr()
    if skipped is None:
        with pytest.raises(IngestError):
            load_wikidata_json(dump)
        assert (code, out, err) == (2, "", f"error: {file}: expected 'entities' to map ids "
                                           "to documents, not a list\n")
        return
    kb, stats = load_wikidata_json(dump)
    assert (stats.skipped, len(kb.statements)) == ([skipped], loaded)
    assert (code, err) == (0, f"note: {file}: skipped 1 claim(s) ({skipped[0]}: 1)\n")
    assert "0 violation(s)" in out


# Wikibase JSON fuzzing: documents drawn from the Wikibase JSON model, then
# random nodes mutated.  Small id pools make claims meet in joins, and the
# constraint type items make some P2302 claims declarations that check runs.
_TYPE_ITEMS = sorted({str(t.type_item) for t in builtin_templates() if t.type_item})
_ITEM_IDS = [f"Q{n}" for n in range(1, 7)]
_PROP_IDS = ["P26", "P31", "P279", "P569", "P580", "P585", "P1082", "P212", "P2302",
             "P2305", "P2306", "P2308", "P2312", "P2313", "P1793", "P2303"]
_URI = "http://www.wikidata.org/entity/"


def _entity_dv(ident: str) -> dict:
    kind = "item" if ident[0] == "Q" else "property"
    return {"type": "wikibase-entityid",
            "value": {"entity-type": kind, "numeric-id": int(ident[1:]), "id": ident}}


_amounts = st.decimals(-10**6, 10**6, places=2).map(lambda d: f"{d:+f}")
_datavalues = {
    "entity": st.sampled_from(_ITEM_IDS + _PROP_IDS).map(_entity_dv),
    "type": st.sampled_from(_TYPE_ITEMS).map(_entity_dv),
    "string": (st.text(max_size=6) | st.sampled_from(["97[89]-.*", "\\p{L}+", "\\d+"]))
    .map(lambda s: {"type": "string", "value": s}),
    "quantity": st.builds(
        lambda amount, bounds, unit: {"type": "quantity", "value": dict(
            {"amount": amount, "unit": unit},
            **({"lowerBound": f"{Decimal(amount) - bounds:+f}",
                "upperBound": f"{Decimal(amount) + bounds:+f}"} if bounds is not None else {}))},
        _amounts, st.none() | st.integers(0, 5),
        st.sampled_from(["1", _URI + "Q11573", _URI + "Q577"])),
    "time": st.builds(
        lambda d, precision: {"type": "time", "value": {
            "time": f"+{d.year:04d}-{d:%m-%dT%H:%M:%S}Z",
            "timezone": 0, "before": 0, "after": 0, "precision": precision,
            "calendarmodel": _URI + "Q1985727"}},
        st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31)), st.integers(9, 14)),
    "globe": st.just({"type": "globecoordinate", "value": {"latitude": 1.5, "longitude": 2}}),
}
# the datavalue kinds each property mostly carries
_PROP_KINDS = {"P2302": "type", "P1793": "string", "P212": "string", "P1082": "quantity",
               "P2312": "quantity", "P2313": "quantity", "P569": "time", "P580": "time",
               "P585": "time"}


@st.composite
def _snaks(draw, pid: str) -> dict:
    kind = draw(st.sampled_from(["value"] * 6 + ["somevalue", "novalue"]))
    snak = {"snaktype": kind, "property": pid, "hash": "0"}
    if kind == "value":
        dv_kind = _PROP_KINDS.get(pid, "entity")
        if draw(st.integers(0, 4)) == 0:
            dv_kind = draw(st.sampled_from(sorted(_datavalues)))
        snak["datavalue"] = draw(_datavalues[dv_kind])
    return snak


@st.composite
def _claims(draw, subject: str, pid: str, n: int) -> dict:
    claim = {"mainsnak": draw(_snaks(pid)), "type": "statement",
             "id": draw(st.sampled_from([f"{subject}${pid}-{n}", "X$dup"])),
             "rank": draw(st.sampled_from(RANKS))}
    qualifiers = draw(st.lists(st.sampled_from(_PROP_IDS), max_size=2, unique=True))
    if qualifiers:
        claim["qualifiers"] = {q: draw(st.lists(_snaks(q), min_size=1, max_size=2))
                               for q in qualifiers}
        claim["qualifiers-order"] = qualifiers
    claim["references"] = [{"hash": "0", "snaks": {}, "snaks-order": []}
                           for _ in range(draw(st.integers(0, 2)))]
    return claim


@st.composite
def _wikibase_dumps(draw):
    docs = []
    for ident in draw(st.lists(st.sampled_from(_ITEM_IDS + _PROP_IDS[:7]), min_size=1,
                               max_size=3, unique=True)):
        pids = draw(st.lists(st.sampled_from(_PROP_IDS), max_size=2, unique=True))
        if ident[0] == "P" and "P2302" not in pids:
            pids.append("P2302")  # a property document declares constraints
        claims = {pid: [draw(_claims(ident, pid, n)) for n in range(draw(st.integers(1, 2)))]
                  for pid in pids}
        docs.append({"type": "item" if ident[0] == "Q" else "property", "id": ident,
                     "labels": {"en": {"language": "en", "value": draw(st.text(max_size=4))}},
                     "claims": claims})
    if draw(st.booleans()):
        return docs
    return {"entities": {doc["id"]: doc for doc in docs}}


def _nodes(node, path=()):
    """Every node path of a JSON tree, the root's () included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=4),
    st.sampled_from(["1e400", "-1e-400", "+99999-01-01T00:00:00Z", "+2020-13-45T25:61:61Z",
                     "Q0", "P-1", "Q99999999999999999999", "-0", 15, -1, 99, 2**63]),
    st.lists(st.integers(), max_size=1),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1))


@st.composite
def _mutated(draw, dump):
    """dump with one to three nodes swapped for junk, dropped, or given an extra key or item."""
    for _ in range(draw(st.integers(1, 3))):
        # leaves first, as hypothesis draws early elements most
        path = draw(st.sampled_from(list(_nodes(dump))[::-1]))
        op = draw(st.sampled_from(["swap", "drop", "extra"]))
        if not path:
            dump = draw(_junk) if op == "swap" else dump
            continue
        parent = dump
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if op == "swap":
            parent[path[-1]] = draw(_junk)
        elif op == "drop":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["id", "amount", "time", "precision", "unit", "value",
                                       "snaktype", "datavalue", "rank", "x"]))] = draw(_junk)
        elif isinstance(node, list):
            node.append(draw(_junk))
    return dump


def _claim_count(dump) -> int:
    docs = dump["entities"].values() if isinstance(dump, dict) else dump
    return sum(len(group) for doc in docs for group in doc["claims"].values())


def _entity_container(dump) -> bool:
    return isinstance(dump, list) or (
        isinstance(dump, dict) and isinstance(dump.get("entities", {}), dict))


@settings(max_examples=1000, deadline=None)
@given(_wikibase_dumps(), st.data())
def test_wikibase_json_fuzz(dump, data):
    kb, stats = load_wikidata_json(dump)
    # every claim is a statement, a no-value row or a skip, a repeated row among them
    assert stats.no_values == len(kb.by_property.get("no_value", ()))
    assert stats.statements + stats.no_values + len(stats.skipped) == _claim_count(dump)
    dump = data.draw(_mutated(copy.deepcopy(dump)))
    try:
        kb, stats = load_wikidata_json(json.dumps(dump))  # text, as the CLI reads it
    except IngestError:
        assert not _entity_container(dump)
        return
    kb2, _ = load_native(export_native(kb))
    assert _content_keys(kb2) == _content_keys(kb)
    check(kb)
