"""Native text format and Wikibase JSON ingestion."""

import json
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import kb_from
from wdcheck.ingest import (
    IngestError,
    export_native,
    load_native,
    load_wikidata_json,
    merge,
)
from wdcheck.model import (
    AnonConst,
    ItemRef,
    KnowledgeBase,
    P,
    PropRef,
    Q,
    QuantityVal,
    StringVal,
    TimeVal,
    make_statement,
)


class TestNativeFormat:
    def test_statement_with_everything(self):
        kb, stats = load_native(
            'P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred refs=2')
        assert stats.statements == 1
        (st,) = kb.statements.values()
        assert st.subject == Q(1)
        assert st.value == ItemRef(Q(2))
        assert st.rank == "preferred"
        assert len(st.references) == 2
        assert st.qualifiers.values_for(PropRef(P(580))) == [TimeVal(datetime(1988, 6, 12))]

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
        assert values[P(6)] == PropRef(P(31))

    def test_no_value_and_commons(self):
        kb, stats = load_native(
            'no_value(P40, Q3) @ {P585: 2020-01-01} rank=preferred\n'
            'commons_ns("Douglas Adams", "Category")')
        assert stats.no_value_facts == 1
        assert stats.commons_pages == 1
        (fact,) = kb.no_value_facts
        assert fact.property == P(40)
        assert kb.commons_ns["Douglas Adams"] == "Category"

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


class TestMerge:
    def test_merge_refreshes_ids_and_anons(self):
        a, _ = load_native("P26(Q1, somevalue)")
        b, _ = load_native("P26(Q2, somevalue)\nno_value(P40, Q3)")
        merged = merge(a, b)
        assert len(merged.statements) == 2
        anons = {st.value for st in merged.statements.values()}
        assert len(anons) == 2  # distinct anonymous constants survive the merge
        assert len(merged.no_value_facts) == 1


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
        assert st.value == ItemRef(Q(43))
        assert st.rank == "preferred"
        assert len(st.references) == 2
        assert st.qualifiers.values_for(PropRef(P(580))) == [
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

    def test_quantity_unit_uri(self):
        doc = entity_doc("Q1", {"P2048": [claim("P2048", value_snak("quantity", {
            "amount": "+5", "unit": "http://www.wikidata.org/entity/Q11573"}))]})
        kb, _ = load_wikidata_json([doc])
        (st,) = kb.statements.values()
        assert st.value == QuantityVal(Decimal(5), Q(11573))

    def test_somevalue_and_novalue(self):
        doc = entity_doc("Q1", {
            "P569": [claim("P569", {"snaktype": "somevalue"})],
            "P40": [claim("P40", {"snaktype": "novalue"})],
        })
        kb, stats = load_wikidata_json([doc])
        assert stats.statements == 1
        assert stats.no_value_facts == 1
        (st,) = kb.statements.values()
        assert isinstance(st.value, AnonConst)
        assert kb.no_value_facts[0].property == P(40)

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

    @pytest.mark.parametrize("entity_type, expected", [
        ("item", ItemRef(Q(2))), ("property", PropRef(P(2)))])
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

    def test_bad_document_shape(self):
        with pytest.raises(IngestError):
            load_wikidata_json("42")
