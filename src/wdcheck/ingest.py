"""Loading knowledge bases from Wikibase JSON dumps and the native text format.

The native format has one fact per line:

    P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred refs=2
    no_value(P40, Q3)
    commons_ns("Douglas Adams", "Category")

Values use the same syntax as constants in formulae.  ``somevalue`` stands
for an unknown value and loads as a fresh anonymous constant.

Wikibase JSON ingestion accepts either a dump-style object with an
``entities`` map or a plain list of entity documents.  Statements whose
datatype the engine does not model (coordinates, monolingual text, BCE
dates) are skipped and counted, with a reason, in the returned stats.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal, InvalidOperation
from typing import Optional, Union

from .formula import Const, ParseError, Parser
from .labels import DEFAULT_LABELS, LabelTable
from .model import (
    AnonConst,
    AttrSet,
    EntityId,
    ItemRef,
    KnowledgeBase,
    ModelError,
    NOVALUE,
    NoValueFact,
    PropRef,
    Pseudo,
    QuantityVal,
    RANKS,
    RANK_ATTR,
    Statement,
    StringVal,
    TimeVal,
    Value,
    make_statement,
)


class IngestError(Exception):
    pass


@dataclass
class IngestStats:
    statements: int = 0
    no_value_facts: int = 0
    commons_pages: int = 0
    labels: int = 0
    skipped: list = field(default_factory=list)  # (reason, detail) pairs

    def skip(self, reason: str, detail: str) -> None:
        self.skipped.append((reason, detail))


# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------


class _LineParser(Parser):
    """Reuses the formula tokenizer/term grammar for ground fact lines."""

    def __init__(self, line: str, labels: LabelTable, kb: KnowledgeBase) -> None:
        super().__init__(line, labels)
        self.kb = kb

    def value(self) -> Value:
        if self.peek().kind == "ident" and self.peek().text == "somevalue":
            self.advance()
            return self.kb.fresh_anon()
        t = self.term()
        if not isinstance(t, Const):
            self.fail("fact values must be constants")
        return t.value

    def entity(self) -> EntityId:
        tok = self.peek()
        if tok.kind == "entity":
            return EntityId.parse(self.advance().text)
        if tok.kind in ("ident", "label"):
            name = tok.text[1:-1] if tok.kind == "label" else tok.text
            ent = self.labels.resolve_entity(name)
            if ent is not None:
                self.advance()
                return ent
        self.fail("expected an entity id")
        raise AssertionError  # unreachable

    def qualifier_pairs(self) -> list:
        pairs = []
        self.expect("{")
        if self.peek().text != "}":
            while True:
                attr = self.value()
                self.expect(":")
                pairs.append((attr, self.value()))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("}")
        return pairs

    def trailer(self) -> tuple:
        rank = "normal"
        refs = 0
        while self.peek().kind == "ident":
            word = self.advance().text
            self.expect("=")
            if word == "rank":
                tok = self.peek()
                if tok.text not in RANKS:
                    self.fail("expected preferred, normal or deprecated")
                rank = self.advance().text
            elif word == "refs":
                tok = self.peek()
                if tok.kind != "number" or "." in tok.text:
                    self.fail("expected a reference count")
                refs = int(self.advance().text)
            else:
                self.fail(f"unknown trailer {word!r}")
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return rank, refs

    def fact_line(self) -> Union[Statement, NoValueFact, tuple]:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "commons_ns":
            self.advance()
            self.expect("(")
            page = self.value()
            self.expect(",")
            ns = self.value()
            self.expect(")")
            if not isinstance(page, StringVal) or not isinstance(ns, StringVal):
                self.fail("commons_ns takes two strings")
            return ("commons", page.text, ns.text)
        if tok.kind == "ident" and tok.text == "no_value":
            self.advance()
            self.expect("(")
            prop = self.entity()
            self.expect(",")
            subj = self.entity()
            self.expect(")")
            pairs = self.qualifier_pairs() if self._eat_at() else []
            rank, _refs = self.trailer()
            pairs.append((RANK_ATTR, StringVal(rank)))
            return NoValueFact(prop, subj, AttrSet.of(pairs))
        prop = self.entity()
        if prop.kind != "property":
            self.fail("facts must start with a property id")
        self.expect("(")
        subj = self.entity()
        self.expect(",")
        value = self.value()
        self.expect(")")
        pairs = self.qualifier_pairs() if self._eat_at() else []
        rank, refs = self.trailer()
        sid = self.kb.fresh_statement_id()
        return make_statement(sid, subj, prop, value, pairs, rank,
                              [f"{sid}:r{i + 1}" for i in range(refs)])

    def _eat_at(self) -> bool:
        if self.peek().text == "@":
            self.advance()
            return True
        return False


def load_native(
    text: str,
    labels: Optional[LabelTable] = None,
    kb: Optional[KnowledgeBase] = None,
) -> tuple:
    """Parse native fact lines into a KB; returns (kb, stats)."""
    labels = labels or DEFAULT_LABELS
    kb = kb or KnowledgeBase()
    stats = IngestStats()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fact = _LineParser(line, labels, kb).fact_line()
        except (ParseError, ModelError) as exc:
            raise IngestError(f"line {lineno}: {exc}") from exc
        if isinstance(fact, Statement):
            kb.add_statement(fact)
            stats.statements += 1
        elif isinstance(fact, NoValueFact):
            kb.add_no_value(fact)
            stats.no_value_facts += 1
        else:
            kb.add_commons_page(fact[1], fact[2])
            stats.commons_pages += 1
    return kb, stats


def export_native(kb: KnowledgeBase) -> str:
    """Render a KB as native fact lines; load_native inverts this."""
    lines = []
    for st in kb.statements.values():
        pairs = st.qualifiers.without_pseudo().sorted_pairs()
        parts = [f"{st.property}({st.subject}, {_render_value(st.value)})"]
        if pairs:
            inner = ", ".join(f"{_render_value(a)}: {_render_value(v)}" for a, v in pairs)
            parts.append("@ {" + inner + "}")
        if st.rank != "normal":
            parts.append(f"rank={st.rank}")
        if st.references:
            parts.append(f"refs={len(st.references)}")
        lines.append(" ".join(parts))
    for fact in kb.no_value_facts:
        pairs = fact.qualifiers.without_pseudo().sorted_pairs()
        rank = next((v.text for a, v in fact.qualifiers
                     if a == RANK_ATTR and isinstance(v, StringVal)), "normal")
        parts = [f"no_value({fact.property}, {fact.subject})"]
        if pairs:
            inner = ", ".join(f"{_render_value(a)}: {_render_value(v)}" for a, v in pairs)
            parts.append("@ {" + inner + "}")
        if rank != "normal":
            parts.append(f"rank={rank}")
        lines.append(" ".join(parts))
    for page, ns in sorted(kb.commons_ns.items()):
        lines.append(f"commons_ns({StringVal(page)}, {StringVal(ns)})")
    return "\n".join(lines) + ("\n" if lines else "")


def _render_value(v: Value) -> str:
    if isinstance(v, AnonConst):
        return "somevalue"
    return str(v)


def merge(*kbs: KnowledgeBase) -> KnowledgeBase:
    """Combine KBs, re-freshening statement ids and anonymous constants."""
    out = KnowledgeBase()
    for kb in kbs:
        anon_map: dict = {}

        def fresh(v: Value) -> Value:
            if isinstance(v, AnonConst):
                if v not in anon_map:
                    anon_map[v] = out.fresh_anon()
                return anon_map[v]
            return v

        for st in kb.statements.values():
            quals = [(fresh(a), fresh(v)) for a, v in st.qualifiers
                     if not isinstance(a, Pseudo)]
            out.add_statement(make_statement(
                out.fresh_statement_id(), st.subject, st.property, fresh(st.value),
                quals, st.rank, st.references))
        for fact in kb.no_value_facts:
            out.add_no_value(NoValueFact(
                fact.property, fact.subject,
                AttrSet.of((fresh(a), fresh(v)) for a, v in fact.qualifiers)))
        for page, ns in kb.commons_ns.items():
            out.add_commons_page(page, ns)
        out.labels.update(kb.labels)
    return out


# ---------------------------------------------------------------------------
# Wikibase JSON
# ---------------------------------------------------------------------------


_TIME_RE = re.compile(r"([+-])(\d{4,16})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z?")
_UNIT_RE = re.compile(r"Q\d+$")


def _decode_time(dv: dict) -> TimeVal:
    m = _TIME_RE.match(dv["time"])
    if not m:
        raise IngestError(f"unparseable time {dv['time']!r}")
    sign, year, month, day, hh, mm, ss = m.groups()
    if sign == "-" or int(year) == 0:
        raise IngestError("dates before year 1 are not supported")
    if int(year) > 9999:
        raise IngestError("dates beyond year 9999 are not supported")
    precision = int(dv.get("precision", 11))
    month_i = max(int(month), 1)
    day_i = max(int(day), 1)
    try:
        ts = datetime(int(year), month_i, day_i, int(hh), int(mm), int(ss))
    except ValueError as exc:
        raise IngestError(f"invalid date {dv['time']!r}: {exc}") from exc
    return TimeVal(ts, precision)


def _decode_quantity(dv: dict) -> QuantityVal:
    try:
        amount = Decimal(dv["amount"])
    except InvalidOperation as exc:
        raise IngestError(f"bad quantity amount {dv.get('amount')!r}") from exc
    unit: Union[EntityId, None] = None
    raw_unit = dv.get("unit", "1")
    if raw_unit not in ("1", 1, None, ""):
        m = _UNIT_RE.search(str(raw_unit))
        if not m:
            raise IngestError(f"bad quantity unit {raw_unit!r}")
        unit = EntityId.parse(m.group(0))
    lower = Decimal(dv["lowerBound"]) if dv.get("lowerBound") is not None else None
    upper = Decimal(dv["upperBound"]) if dv.get("upperBound") is not None else None
    return QuantityVal(amount, unit, lower, upper)


def _decode_entity_id(data) -> EntityId:
    """Entity id of a wikibase-entityid value; legacy values carry only a numeric id."""
    ident = data.get("id") if isinstance(data, dict) else data
    if ident is None and isinstance(data, dict):
        prefix = {"item": "Q", "property": "P"}.get(data.get("entity-type"), "")
        ident = f"{prefix}{data.get('numeric-id')}"
    if not isinstance(ident, str):
        raise IngestError(f"bad entity value {data!r}")
    return EntityId.parse(ident)


def _decode_snak(snak: dict, kb: KnowledgeBase) -> Value:
    """Value of a value-snak; raises IngestError for unsupported datatypes."""
    kind = snak.get("snaktype", "value")
    if kind == "somevalue":
        return kb.fresh_anon()
    if kind == "novalue":
        return NOVALUE
    dv = snak.get("datavalue", {})
    dtype = dv.get("type")
    data = dv.get("value")
    if dtype == "wikibase-entityid":
        ent = _decode_entity_id(data)
        return ItemRef(ent) if ent.kind == "item" else PropRef(ent)
    if dtype == "string":
        if not isinstance(data, str):
            raise IngestError(f"bad string value {data!r}")
        return StringVal(data)
    if dtype == "quantity":
        return _decode_quantity(data)
    if dtype == "time":
        return _decode_time(data)
    if dtype == "monolingualtext":
        raise IngestError("monolingual text is not modelled")
    if dtype == "globecoordinate":
        raise IngestError("globe coordinates are not modelled")
    raise IngestError(f"unsupported datavalue type {dtype!r}")


def load_wikidata_json(
    source: Union[str, dict, list],
    kb: Optional[KnowledgeBase] = None,
) -> tuple:
    """Ingest Wikibase entity JSON; returns (kb, stats)."""
    kb = kb or KnowledgeBase()
    stats = IngestStats()
    if isinstance(source, str):
        source = json.loads(source)
    if isinstance(source, dict) and "entities" in source:
        docs = list(source["entities"].values())
    elif isinstance(source, list):
        docs = source
    elif isinstance(source, dict):
        docs = [source]
    else:
        raise IngestError("expected an entities map or a list of entity documents")

    for doc in docs:
        try:
            subject = EntityId.parse(doc["id"])
        except (KeyError, ModelError):
            stats.skip("bad-entity-id", str(doc.get("id")))
            continue
        label = doc.get("labels", {}).get("en", {}).get("value")
        if label:
            kb.labels[subject] = label
            stats.labels += 1
        for pid, group in doc.get("claims", {}).items():
            try:
                prop = EntityId.parse(pid)
            except ModelError:
                stats.skip("bad-property-id", pid)
                continue
            for claim in group:
                _ingest_claim(kb, stats, subject, prop, claim)
    return kb, stats


def _ingest_claim(kb, stats, subject: EntityId, prop: EntityId, claim: dict) -> None:
    mainsnak = claim.get("mainsnak", {})
    rank = claim.get("rank", "normal")
    if rank not in RANKS:
        rank = "normal"
    sid = claim.get("id") or kb.fresh_statement_id()
    if sid in kb.statements:
        sid = kb.fresh_statement_id()
    pairs = []
    try:
        for qpid, snaks in claim.get("qualifiers", {}).items():
            qprop = PropRef(EntityId.parse(qpid))
            for snak in snaks:
                pairs.append((qprop, _decode_snak(snak, kb)))
    except (IngestError, ModelError) as exc:
        stats.skip("qualifier", f"{sid}: {exc}")
        return
    refs = [f"{sid}:r{i + 1}" for i in range(len(claim.get("references", [])))]
    if mainsnak.get("snaktype") == "novalue":
        pairs.append((RANK_ATTR, StringVal(rank)))
        kb.add_no_value(NoValueFact(prop, subject, AttrSet.of(pairs)))
        stats.no_value_facts += 1
        return
    try:
        value = _decode_snak(mainsnak, kb)
    except (IngestError, ModelError) as exc:
        stats.skip("mainsnak", f"{sid}: {exc}")
        return
    kb.add_statement(make_statement(sid, subject, prop, value, pairs, rank, refs))
    stats.statements += 1
