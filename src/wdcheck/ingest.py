"""Loading knowledge bases from Wikibase JSON dumps and the native text format.

The native format has one fact per line:

    P26(Q1, Q2) @ {P580: 1988-06-12} rank=preferred refs=2
    no_value(P40, Q3)
    commons_ns("Douglas Adams", "Category")

Values use the same syntax as constants in formulae.  ``somevalue`` stands
for an unknown value and loads as a fresh anonymous constant.  A time is
``YYYY-MM-DD[THH:MM:SS][/precision]`` with a four-digit year, zero-padded
below 1000 as ``export_native`` writes it; a date not in the calendar
(``2020-02-30``) is an ``IngestError`` that names its line and column, like
any other malformed line.

Wikibase JSON ingestion accepts either a dump-style object with an
``entities`` map or a plain list of entity documents.  Statements whose
datatype the engine does not model (coordinates, monolingual text, BCE
dates) are skipped and counted, with a reason, in the returned stats.
"""

from __future__ import annotations

import json
import re
from datetime import datetime
from decimal import Decimal
from typing import Optional, Union

from .formula import ParseError, Parser, Token, _parse_time, _unquote, tokenize
from .labels import DEFAULT_LABELS, LabelTable
from .model import (
    AnonConst,
    AttrSet,
    EntityId,
    KnowledgeBase,
    ModelError,
    NOVALUE,
    QuantityVal,
    RANKS,
    Record,
    StringVal,
    TimeVal,
    Value,
    make_no_value,
    make_statement,
)


class IngestError(Exception):
    pass


class IngestStats(Record):
    __slots__ = ("statements", "no_values", "commons_pages", "labels", "skipped")

    def __init__(self, statements: int = 0, no_values: int = 0, commons_pages: int = 0,
                 labels: int = 0, skipped: Optional[list] = None) -> None:
        self.statements, self.no_values = statements, no_values  # rows: a repeat is not kept
        self.commons_pages, self.labels = commons_pages, labels
        self.skipped = [] if skipped is None else skipped  # (reason, detail) pairs

    def skip(self, reason: str, detail: str) -> None:
        self.skipped.append((reason, detail))


def _add_row(kb, stats: IngestStats, row, detail: str) -> bool:
    """Add a no-value or Commons row; one that repeats a row is skipped as a duplicate."""
    if kb.add_statement(row):
        return True
    stats.skip("duplicate", detail)
    return False


# ---------------------------------------------------------------------------
# Native text format
# ---------------------------------------------------------------------------


# A fact line spaced as export_native and the bench generator write it, whose values
# are entity ids, string tokens or plain dates: load_native reads it with one match.
_ID = r"[QP][1-9][0-9]*"
_PLAIN = rf'{_ID}|"(?:\\.|[^"\\])*"|[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}'
_PAIR_RE = re.compile(rf"({_ID}): ({_PLAIN})")
_CANONICAL_RE = re.compile(rf"(P[1-9][0-9]*)\(({_ID}), ({_PLAIN})\)"
                           rf"(?: @ \{{({_ID}: (?:{_PLAIN})(?:, {_ID}: (?:{_PLAIN}))*)\}})?")


class _LineParser(Parser):
    """Reuses the formula constant grammar for ground fact lines; one per load,
    so its entity table interns the ids and entity values of one load."""

    def __init__(self, labels: LabelTable, kb: KnowledgeBase, stats: IngestStats) -> None:
        super().__init__("", labels)
        self.kb = kb
        self.stats = stats

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "somevalue":
            self.advance()
            return self.kb.fresh_anon()
        if tok.kind == "var" or self.at_call():
            self.term()  # read past the variable or function application, then refuse it
            self.fail("fact values must be constants")
        return self.constant()

    def entity(self) -> EntityId:
        tok = self.peek()
        if tok.kind == "entity":
            return self.entity_value(self.advance().text)
        if tok.kind in ("ident", "label"):
            name = tok.text[1:-1] if tok.kind == "label" else tok.text
            ent = self.labels.resolve_entity(name)
            if ent is not None:
                self.advance()
                return ent
        self.fail("expected an entity id")
        raise AssertionError  # unreachable

    def tail(self, no_value: bool = False) -> tuple:
        """(qualifier pairs, rank, reference count): an optional '@ {...}', then the trailers.

        A no-value fact carries no references, so a nonzero count on one is refused."""
        pairs, rank, refs = [], "normal", 0
        if self.peek().text == "@":
            self.advance()
            pairs = self.pairs(self.value)
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
                if refs and no_value:
                    self.fail("no-value facts carry no references", tok)
            else:
                self.fail(f"unknown trailer {word!r}")
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return pairs, rank, refs

    def canonical_fact(self, line: str) -> bool:
        """Add the fact of a line of _CANONICAL_RE's shape; False, with nothing added,
        for a line of another shape or with a date not in the calendar."""
        m = _CANONICAL_RE.fullmatch(line)
        if m is None:
            return False
        prop, subj, value, quals = m.group(1, 2, 3, 4)
        try:
            value = self.plain_value(value)
            pairs = [(self.entity_value(a), self.plain_value(v))
                     for a, v in _PAIR_RE.findall(quals)] if quals else []
        except ParseError:
            return False
        self.kb.add_statement(make_statement(self.kb.fresh_statement_id(), self.entity_value(subj),
                                             self.entity_value(prop), value, pairs))
        self.stats.statements += 1
        return True

    def plain_value(self, text: str) -> Value:
        """The value of a _PLAIN match; ParseError for a date not in the calendar."""
        if text[0] == '"':
            return StringVal(_unquote(text))
        if text[0] in "QP":
            return self.entity_value(text)
        return _parse_time(Token("time", text, 1, 1))

    def fact(self, tokens: list) -> None:
        """Add the fact of one line, given the line's tokens and its eof token."""
        self.tokens, self.pos = tokens, 0
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
            self.stats.commons_pages += _add_row(
                self.kb, self.stats, make_statement("", page, "Commons_namespace", ns),
                f"{page} Commons_namespace")
        elif tok.kind == "ident" and tok.text == "no_value":
            self.advance()
            self.expect("(")
            prop = self.entity()
            self.expect(",")
            subj = self.entity()
            self.expect(")")
            pairs, rank, _refs = self.tail(no_value=True)
            self.stats.no_values += _add_row(
                self.kb, self.stats, make_no_value(prop, subj, pairs, rank), f"{subj} {prop}")
        else:
            prop = self.entity()
            if prop.kind != "property":
                self.fail("facts must start with a property id")
            self.expect("(")
            subj = self.entity()
            self.expect(",")
            value = self.value()
            self.expect(")")
            pairs, rank, refs = self.tail()
            sid = self.kb.fresh_statement_id()
            self.kb.add_statement(make_statement(sid, subj, prop, value, pairs, rank,
                                                 [f"{sid}:r{i + 1}" for i in range(refs)]))
            self.stats.statements += 1


def load_native(
    text: str,
    labels: Optional[LabelTable] = None,
    kb: Optional[KnowledgeBase] = None,
) -> tuple:
    """Parse native fact lines into a KB; returns (kb, stats).

    Each stripped line is read alone, by _CANONICAL_RE or else by tokenizing
    it, so an error's column counts from the start of its stripped line; a
    line with no tokens (blank, or a comment) is skipped.
    """
    labels = labels or DEFAULT_LABELS
    kb = kb or KnowledgeBase()
    stats = IngestStats()
    parser = _LineParser(labels, kb, stats)
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        try:
            if not parser.canonical_fact(line):
                tokens = tokenize(line)
                if len(tokens) > 1:  # not only the eof token
                    parser.fact(tokens)
        except (ParseError, ModelError) as exc:
            raise IngestError(f"line {lineno}: {exc}") from exc
    return kb, stats


def export_native(kb: KnowledgeBase) -> str:
    """Render a KB as native fact lines: the statements, the no-value rows in load order,
    then the Commons pages by page and namespace; load_native inverts this."""
    pages = sorted(kb.by_property.get("Commons_namespace", ()),
                   key=lambda st: (st.subject.text, st.value.text))
    lines = [_fact_line(f"{_LINE_NAMES.get(st.property, st.property)}"
                        f"({st.subject}, {_render_value(st.value)})",
                        st.qualifiers, st.rank, len(st.references))
             for st in [*kb.statements.values(), *kb.by_property.get("no_value", ()), *pages]]
    return "\n".join(lines) + ("\n" if lines else "")


_LINE_NAMES = {"Commons_namespace": "commons_ns"}  # a row's table -> its native line's name


def _fact_line(head: str, qualifiers: AttrSet, rank: str, refs: int = 0) -> str:
    """One native line: head, the plain qualifiers, then the trailers that differ from the default."""
    parts = [head]
    pairs = qualifiers.without_pseudo().sorted_pairs()
    if pairs:
        inner = ", ".join(f"{_render_value(a)}: {_render_value(v)}" for a, v in pairs)
        parts.append("@ {" + inner + "}")
    if rank != "normal":
        parts.append(f"rank={rank}")
    if refs:
        parts.append(f"refs={refs}")
    return " ".join(parts)


def _render_value(v: Value) -> str:
    if isinstance(v, AnonConst):
        return "somevalue"
    return str(v)


# ---------------------------------------------------------------------------
# Wikibase JSON
# ---------------------------------------------------------------------------


_TIME_RE = re.compile(r"([+-])([0-9]{4,16})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z?")
_UNIT_RE = re.compile(r"Q[0-9]+$")
_NUMBER_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")  # a Wikibase amount or bound: no exponent


def _decode_time(dv) -> TimeVal:
    raw = dv.get("time") if isinstance(dv, dict) else None
    if not isinstance(raw, str):
        raise IngestError(f"bad time value {dv!r}")
    m = _TIME_RE.match(raw)
    if not m:
        raise IngestError(f"unparseable time {raw!r}")
    sign, year, month, day, hh, mm, ss = m.groups()
    if sign == "-" or int(year) == 0:
        raise IngestError("dates before year 1 are not supported")
    if int(year) > 9999:
        raise IngestError("dates beyond year 9999 are not supported")
    precision = dv.get("precision", 11)
    if not isinstance(precision, int) or isinstance(precision, bool):
        raise IngestError(f"bad time precision {precision!r}")
    month_i = max(int(month), 1)
    day_i = max(int(day), 1)
    try:
        ts = datetime(int(year), month_i, day_i, int(hh), int(mm), int(ss))
    except ValueError as exc:
        raise IngestError(f"invalid date {raw!r}: {exc}") from exc
    return TimeVal(ts, precision)


def _decode_number(dv: dict, key: str) -> Decimal:
    """The number under key: a string in Wikibase's decimal form, or an int that is
    not a bool.  An exponent, which would print as every one of its digits, is refused."""
    raw = dv.get(key)
    if isinstance(raw, str) and _NUMBER_RE.fullmatch(raw) \
            or isinstance(raw, int) and not isinstance(raw, bool):
        return Decimal(raw)
    raise IngestError(f"bad quantity {key} {raw!r}")


def _decode_quantity(dv) -> QuantityVal:
    if not isinstance(dv, dict):
        raise IngestError(f"bad quantity value {dv!r}")
    amount = _decode_number(dv, "amount")
    unit: Union[EntityId, None] = None
    raw_unit = dv.get("unit", "1")
    if raw_unit not in ("1", 1, None, ""):
        m = _UNIT_RE.search(str(raw_unit))
        if not m:
            raise IngestError(f"bad quantity unit {raw_unit!r}")
        unit = EntityId.parse(m.group(0))
    lower = _decode_number(dv, "lowerBound") if dv.get("lowerBound") is not None else None
    upper = _decode_number(dv, "upperBound") if dv.get("upperBound") is not None else None
    return QuantityVal(amount, unit, lower, upper)


def _decode_entity_id(data) -> EntityId:
    """Entity id of a wikibase-entityid value; legacy values carry only a numeric id."""
    ident = data.get("id") if isinstance(data, dict) else data
    if ident is None and isinstance(data, dict):
        kind = data.get("entity-type")
        prefix = "Q" if kind == "item" else "P" if kind == "property" else ""
        ident = f"{prefix}{data.get('numeric-id')}"
    if not isinstance(ident, str):
        raise IngestError(f"bad entity value {data!r}")
    return EntityId.parse(ident)


def _kind(value) -> str:
    return type(value).__name__


def _decode_snak(snak, kb: KnowledgeBase) -> Value:
    """Value of a value-snak; raises IngestError for a bad shape or an unsupported datatype."""
    if not isinstance(snak, dict):
        raise IngestError(f"snak is a {_kind(snak)}")
    kind = snak.get("snaktype", "value")
    if kind == "somevalue":
        return kb.fresh_anon()
    if kind == "novalue":
        return NOVALUE
    dv = snak.get("datavalue", {})
    if not isinstance(dv, dict):
        raise IngestError(f"datavalue is a {_kind(dv)}")
    dtype = dv.get("type")
    data = dv.get("value")
    if dtype == "wikibase-entityid":
        return _decode_entity_id(data)
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
    """Ingest Wikibase entity JSON; returns (kb, stats).

    The shape is checked at each level.  A document, label, claims map, claim
    group, claim or snak of the wrong shape is skipped, the smallest of them
    that holds the fault, with its reason in ``stats.skipped``; only a top
    level that is not an entity container is an IngestError.
    """
    kb = kb or KnowledgeBase()
    stats = IngestStats()
    if isinstance(source, str):
        source = json.loads(source)
    if isinstance(source, dict) and "entities" in source:
        if not isinstance(source["entities"], dict):
            raise IngestError(f"expected 'entities' to map ids to documents, not a "
                              f"{_kind(source['entities'])}")
        docs = list(source["entities"].values())
    elif isinstance(source, list):
        docs = source
    elif isinstance(source, dict):
        docs = [source]
    else:
        raise IngestError("expected an entities map or a list of entity documents")

    for doc in docs:
        if isinstance(doc, dict):
            _ingest_document(kb, stats, doc)
        else:
            stats.skip("bad-document", f"document is a {_kind(doc)}")
    return kb, stats


def _ingest_document(kb: KnowledgeBase, stats: IngestStats, doc: dict) -> None:
    ident = doc.get("id")
    try:
        subject = EntityId.parse(ident) if isinstance(ident, str) else None
    except ModelError:
        subject = None
    if subject is None:
        stats.skip("bad-entity-id", str(ident))
        return
    try:
        label = _english_label(doc)
    except IngestError as exc:
        stats.skip("bad-label", f"{subject}: {exc}")
    else:
        if label:
            kb.labels[subject] = label
            stats.labels += 1
    claims = doc.get("claims", {})
    if not isinstance(claims, dict):
        stats.skip("bad-claims", f"{subject}: claims is a {_kind(claims)}")
        return
    for pid, group in claims.items():
        try:
            prop = EntityId.parse(pid)
        except ModelError:
            stats.skip("bad-property-id", pid)
            continue
        if not isinstance(group, list):
            stats.skip("bad-claims", f"{subject} {pid}: claim group is a {_kind(group)}")
            continue
        for claim in group:
            if isinstance(claim, dict):
                _ingest_claim(kb, stats, subject, prop, claim)
            else:
                stats.skip("bad-claim", f"{subject} {pid}: claim is a {_kind(claim)}")


def _english_label(doc: dict) -> Optional[str]:
    """The document's English label, or None; IngestError if a level has the wrong shape."""
    value, path = doc, []
    for key, kind in (("labels", dict), ("en", dict), ("value", str)):
        path.append(key)
        value = value.get(key)
        if value is None:
            return None
        if not isinstance(value, kind):
            raise IngestError(f"{'.'.join(path)} is a {_kind(value)}")
    return value


def _ingest_claim(kb, stats, subject: EntityId, prop: EntityId, claim: dict) -> None:
    mainsnak = claim.get("mainsnak", {})
    rank = claim.get("rank", "normal")
    if rank not in RANKS:
        rank = "normal"
    sid, references = claim.get("id"), claim.get("references", [])
    for key, value, kind in (("id", sid, (str, type(None))), ("references", references, list)):
        if not isinstance(value, kind):
            stats.skip("bad-claim", f"{subject} {prop}: {key} is a {_kind(value)}")
            return
    sid = sid or kb.fresh_statement_id()
    if sid in kb.statements:
        sid = kb.fresh_statement_id()
    pairs = []
    try:
        qualifiers = claim.get("qualifiers", {})
        if not isinstance(qualifiers, dict):
            raise IngestError(f"qualifiers is a {_kind(qualifiers)}")
        for qpid, snaks in qualifiers.items():
            qprop = EntityId.parse(qpid)
            if not isinstance(snaks, list):
                raise IngestError(f"{qpid} snaks is a {_kind(snaks)}")
            for snak in snaks:
                pairs.append((qprop, _decode_snak(snak, kb)))
    except (IngestError, ModelError) as exc:
        stats.skip("qualifier", f"{sid}: {exc}")
        return
    refs = [f"{sid}:r{i + 1}" for i in range(len(references))]
    if isinstance(mainsnak, dict) and mainsnak.get("snaktype") == "novalue":
        stats.no_values += _add_row(
            kb, stats, make_no_value(prop, subject, pairs, rank), f"{subject} {prop}")
        return
    try:
        value = _decode_snak(mainsnak, kb)
    except (IngestError, ModelError) as exc:
        stats.skip("mainsnak", f"{sid}: {exc}")
        return
    kb.add_statement(make_statement(sid, subject, prop, value, pairs, rank, refs))
    stats.statements += 1
