"""In-memory knowledge base with multi-attributed statements.

A statement is a relational fact ``p(subject, value)`` carrying a finite set
of attribute-value pairs (its qualifiers).  Rank and reference tokens are
mirrored into the qualifier set as reserved pseudo-attributes so that logic
formulae can test them with ordinary set atoms.

An entity id is its own value: the same ``EntityId`` is a statement's
subject or property, a value, a qualifier attribute or a formula constant,
so a variable bound in one position can be used in any other.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta
from decimal import Decimal
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Union


class ModelError(Exception):
    """Malformed entity ids, values or statements."""


class DatatypeError(ModelError):
    """A datatype relation or function was applied to values of the wrong kind."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_tuple_eq = tuple.__eq__
_new_tuple = tuple.__new__


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Frozen(tuple):
    """An immutable record: the tuple of the fields ``_fields`` names, each
    read as an attribute.  It hashes as that tuple, in C; as a frozen
    dataclass, it equals only its own class (``StringVal("rank") !=
    Pseudo("rank")``), does not order and prints as ``Name(field=value)``.
    A subclass without ``__slots__`` keeps only its caches in ``__dict__``."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__
    __setattr__ = __delattr__ = _refuse

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            if name not in cls.__dict__:
                setattr(cls, name, property(itemgetter(i)))
        if len(cls._fields) == 1 and cls.__getitem__ is tuple.__getitem__:
            cls.__eq__ = Frozen._eq_one

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def _eq_one(self, other):
        """__eq__ of a one-field record: a field comparison is cheaper than tuple's __eq__."""
        if other.__class__ is self.__class__:
            return self[0] == other[0]
        return False if isinstance(other, tuple) else NotImplemented

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


class Record:
    """A slotted record whose fields are its slots not named "_...", in
    constructor order.  It equals a record of its class with equal fields,
    prints as ``Name(field=value)`` and pickles through its constructor.  A
    mutable record does not hash; a ``frozen`` one refuses assignment (its
    ``__init__`` writes through the slots' own setters) and defines a hash.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*cls._fields)
        cls._astuple = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple == other._astuple

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple


# ---------------------------------------------------------------------------
# Entities and values
# ---------------------------------------------------------------------------

ITEM = "item"
PROPERTY = "property"

_ENTITY_RE = re.compile(r"([QP])([1-9][0-9]*)$")


class EntityId(tuple):
    """An item or property id, the tuple (kind, num).

    As a tuple it hashes, compares and orders in C: the hash is
    ``hash((kind, num))`` and the order is (kind, num), as they were when this
    was a dataclass.  The other values are ``Frozen`` records, which hash as
    tuples but equal only their own class: ``StringVal``, ``Pseudo`` and
    ``AnonConst`` are 1-tuples of one shape, and ``StringVal("rank")`` must
    not equal ``Pseudo("rank")``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, num: int) -> "EntityId":
        if kind not in (ITEM, PROPERTY):
            raise ModelError(f"bad entity kind: {kind!r}")
        if num <= 0:
            raise ModelError(f"entity numeric id must be positive: {num}")
        return tuple.__new__(cls, (kind, num))

    kind = property(itemgetter(0))
    num = property(itemgetter(1))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"EntityId(kind={self[0]!r}, num={self[1]!r})"

    def __str__(self) -> str:
        return ("Q" if self.kind == ITEM else "P") + str(self.num)

    @staticmethod
    def parse(text: str) -> "EntityId":
        m = _ENTITY_RE.match(text)
        if not m:
            raise ModelError(f"not an entity id: {text!r}")
        return EntityId(ITEM if m.group(1) == "Q" else PROPERTY, int(m.group(2)))


def Q(num: int) -> EntityId:
    return EntityId(ITEM, num)


def P(num: int) -> EntityId:
    return EntityId(PROPERTY, num)


def is_property(v: object) -> bool:
    return isinstance(v, EntityId) and v.kind == PROPERTY


# Every character str.splitlines breaks a line at, written as \uXXXX so a
# quoted string stays on one line of native text.
_LINE_BREAK_ESCAPES = {ord(c): f"\\u{ord(c):04x}"
                       for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


class StringVal(Frozen):
    __slots__ = ()
    _fields = ("text",)

    def __new__(cls, text: str) -> "StringVal":
        return _new_tuple(cls, (text,))

    def __str__(self) -> str:
        text = self.text.replace("\\", "\\\\").replace('"', '\\"')
        if not text.isprintable():  # line breaks are not printable; translate is slow
            text = text.translate(_LINE_BREAK_ESCAPES)
        return '"' + text + '"'


class QuantityVal(Frozen):
    __slots__ = ()
    _fields = ("amount", "unit", "lower", "upper")  # unit: EntityId, None, or the str "@days"

    def __new__(cls, amount: Decimal, unit: Union[EntityId, str, None] = None,
                lower: Optional[Decimal] = None, upper: Optional[Decimal] = None) -> "QuantityVal":
        if (lower is None) != (upper is None):
            raise ModelError(f"quantity {format(amount, 'f')} has only one bound")
        if lower is not None and lower > amount:
            raise ModelError(f"quantity lower bound {lower} above amount {amount}")
        if upper is not None and upper < amount:
            raise ModelError(f"quantity upper bound {upper} below amount {amount}")
        return _new_tuple(cls, (amount, unit, lower, upper))

    def __hash__(self) -> int:
        # before Python 3.12 hash(None) follows None's address: 0 stands in for it,
        # so a quantity hashes the same in every process started with one hash seed
        amount, unit, lower, upper = self
        return hash((amount, 0 if unit is None else unit,
                     0 if lower is None else lower, 0 if upper is None else upper))

    def __str__(self) -> str:
        s = format(self.amount, "f")
        if self.lower is not None:
            s += f"[{format(self.lower, 'f')},{format(self.upper, 'f')}]"
        if self.unit is not None:
            s += f" unit={self.unit}"
        return s


#: Wikibase time precision codes (subset relevant here).
PRECISION_SECOND = 14
PRECISION_DAY = 11
PRECISION_MONTH = 10
PRECISION_YEAR = 9


class TimeVal(Frozen):
    __slots__ = ()
    _fields = ("timestamp", "precision")

    def __new__(cls, timestamp: datetime, precision: int = PRECISION_DAY) -> "TimeVal":
        if not (0 <= precision <= 14):
            raise ModelError(f"time precision out of range: {precision}")
        return _new_tuple(cls, (timestamp, precision))

    def __str__(self) -> str:
        ts = self.timestamp  # the year zero-padded, as the parser reads it
        return (f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
                f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}/{self.precision}")


class AnonConst(Frozen):
    """Fresh constant standing for an unknown ("somevalue") value."""

    __slots__ = ()
    _fields = ("uid",)

    def __new__(cls, uid: int) -> "AnonConst":
        return _new_tuple(cls, (uid,))

    def __str__(self) -> str:
        return f"_:{self.uid}"


class Pseudo(Frozen):
    """Reserved attribute/constant names outside the entity id space."""

    __slots__ = ()
    _fields = ("name",)

    def __new__(cls, name: str) -> "Pseudo":
        return _new_tuple(cls, (name,))

    def __str__(self) -> str:
        return self.name


RANK_ATTR = Pseudo("rank")
REFERENCE_ATTR = Pseudo("reference")
NOVALUE = Pseudo("novalue")

Value = Union[EntityId, StringVal, QuantityVal, TimeVal, AnonConst, Pseudo]

RANKS = ("preferred", "normal", "deprecated")


# ---------------------------------------------------------------------------
# Attribute sets
# ---------------------------------------------------------------------------


def _value_sort_key(v: Value) -> tuple:
    # by type name, then printed form; entities sort between AnonConst and
    # Pseudo, items before properties
    if type(v) is EntityId:
        return ("Entity", v.kind, str(v))
    return (type(v).__name__, str(v))


class AttrSet(Record, frozen=True):
    """A finite set of (attribute, value) pairs.

    Attributes may occur with several distinct values.  Equality is
    extensional over the pairs, including pseudo-attributes.  The pseudo-free
    set and the sorted pairs are kept once built.
    """

    __slots__ = ("pairs", "_plain", "_sorted")

    def __init__(self, pairs: frozenset = frozenset()) -> None:
        _set_pairs(self, pairs)
        _set_plain(self, None)
        _set_sorted(self, None)

    # the one field compared and hashed directly: Record's one-field _astuple takes two calls
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.pairs,))

    @staticmethod
    def of(items: Iterable[tuple[Value, Value]]) -> "AttrSet":
        return AttrSet(frozenset(items))

    def __iter__(self) -> Iterator[tuple[Value, Value]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[Value, Value]) -> bool:
        return pair in self.pairs

    def values_for(self, attr: Value) -> list:
        return [v for a, v in self.pairs if a == attr]

    def without_pseudo(self) -> "AttrSet":
        """The pairs whose attribute is not a pseudo-attribute (self when there are none)."""
        plain = self._plain
        if plain is None:
            if not any(isinstance(a, Pseudo) for a, _v in self.pairs):
                return self
            plain = AttrSet(frozenset((a, v) for a, v in self.pairs if not isinstance(a, Pseudo)))
            _set_plain(self, plain)
        return plain

    def sorted_pairs(self) -> list:
        cached = self._sorted
        if cached is None:
            cached = sorted(self.pairs,
                            key=lambda p: (_value_sort_key(p[0]), _value_sort_key(p[1])))
            _set_sorted(self, cached)
        return cached

    def __str__(self) -> str:
        inner = ", ".join(f"{a}: {v}" for a, v in self.sorted_pairs())
        return "{" + inner + "}"


# the slots' own setters: a frozen record's __init__ and caches write through them
_set_pairs, _set_plain, _set_sorted = (getattr(AttrSet, name).__set__ for name in AttrSet.__slots__)
EMPTY_ATTRS = AttrSet()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Record, frozen=True):
    # qualifiers include the mirrored rank/reference pseudo-pairs; a row (id "") of a
    # builtin table has the table's name as its property (KnowledgeBase)
    __slots__ = ("id", "subject", "property", "value", "qualifiers", "rank", "references", "_key")

    def __init__(self, id: str, subject: EntityId, property: EntityId, value: Value,
                 qualifiers: AttrSet, rank: str = "normal", references: tuple = ()) -> None:
        _set_id(self, id)
        _set_subject(self, subject)
        _set_property(self, property)
        _set_value(self, value)
        _set_qualifiers(self, qualifiers)
        _set_rank(self, rank)
        _set_references(self, references)

    def __hash__(self) -> int:
        return hash(self._astuple)

    def content_key(self) -> tuple:
        """Identity of the fact irrespective of statement id, rank and references.

        make_statement stores it with the statement; other statements compute it once.
        """
        key = getattr(self, "_key", None)
        if key is None:
            key = (self.subject, self.property, self.value, self.qualifiers.without_pseudo())
            _set_key(self, key)
        return key


(_set_id, _set_subject, _set_property, _set_value, _set_qualifiers, _set_rank, _set_references,
 _set_key) = (getattr(Statement, name).__set__ for name in Statement.__slots__)


def make_statement(
    id: str,
    subject: EntityId,
    property: EntityId,
    value: Value,
    qualifiers: Iterable[tuple[Value, Value]] = (),
    rank: str = "normal",
    references: Iterable[str] = (),
) -> Statement:
    """Build a statement, mirroring rank and references into the qualifier set.

    The statement keeps its content key, and its qualifier set the pseudo-free
    set, so neither is built again.
    """
    refs = tuple(references)
    quals, plain = _mirrored(qualifiers, rank, refs)
    st = Statement(id, subject, property, value, quals, rank, refs)
    _set_key(st, (subject, property, value, plain))
    return st


def make_no_value(property: EntityId, subject: EntityId,
                  qualifiers: Iterable[tuple[Value, Value]] = (), rank: str = "normal") -> Statement:
    """The ``no_value(property, subject)`` row, its rank mirrored as make_statement does."""
    return make_statement("", property, "no_value", subject, qualifiers, rank)


def _mirrored(qualifiers: Iterable[tuple[Value, Value]], rank: str, refs: tuple = ()) -> tuple:
    """(qualifiers with the rank and reference pseudo-pairs, the plain qualifiers).

    Refuses a bad rank and a pseudo-attribute among the qualifiers.  Without
    qualifiers and references the set is its rank's shared one.
    """
    if rank not in RANKS:
        raise ModelError(f"bad rank: {rank!r}")
    plain = frozenset(qualifiers)
    for a, _v in plain:
        if isinstance(a, Pseudo):
            raise ModelError(f"pseudo-attribute {a} may not be supplied directly")
    if not (plain or refs):
        return _RANK_ONLY[rank], EMPTY_ATTRS
    pairs = plain | _RANK_ONLY[rank].pairs  # a union hashes no pair again
    if refs:
        pairs |= {(REFERENCE_ATTR, StringVal(tok)) for tok in refs}
    quals = AttrSet(pairs)
    plain = AttrSet(plain) if plain else EMPTY_ATTRS
    _set_plain(quals, plain)
    return quals, plain


def _rank_only(rank: str) -> AttrSet:
    quals = AttrSet(frozenset({(RANK_ATTR, StringVal(rank))}))
    _set_plain(quals, EMPTY_ATTRS)
    return quals


# the qualifier set of a statement without qualifiers and references, per rank
_RANK_ONLY = {rank: _rank_only(rank) for rank in RANKS}


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------


class KnowledgeBase:
    """Statements with lookup indexes.

    A builtin-table fact is a row: a statement with id ``""`` whose property
    is the table's name, ``"no_value"`` or ``"Commons_namespace"``, and whose
    subject and value are the atom's two arguments, with its own mirrored rank
    and qualifiers.  ``by_property``, ``by_prop_subject`` and ``by_prop_value``
    index rows as statements; ``statements`` and the indexes built from it
    hold statements only.  Treated as immutable once loading (and, where
    requested, rule closure) has finished; all read paths are side-effect free.
    """

    def __init__(self) -> None:
        self.statements: dict[str, Statement] = {}
        self.by_property: dict[Union[EntityId, str], list[Statement]] = {}
        self.by_prop_subject: dict[tuple, list[Statement]] = {}
        self.by_prop_value: dict[tuple, list[Statement]] = {}
        self.labels: dict[EntityId, str] = {}
        self._content_keys: set = set()  # the statements' content keys, and the rows
        self._anon_counter: int = 0
        self._domain_cache: Optional[frozenset] = None
        self._qualifier_index: Optional[dict] = None
        self._subject_index: Optional[dict] = None

    # -- construction -------------------------------------------------------

    def fresh_anon(self) -> AnonConst:
        self._anon_counter += 1
        return AnonConst(self._anon_counter)

    def fresh_statement_id(self, prefix: str = "s") -> str:
        n = len(self.statements) + 1
        while f"{prefix}{n}" in self.statements:
            n += 1
        return f"{prefix}{n}"

    def add_statement(self, st: Statement) -> None:
        """Add a statement, or a row (id ""); an exact duplicate of a row is dropped."""
        if st.id:
            if st.id in self.statements:
                raise ModelError(f"duplicate statement id: {st.id}")
            self.statements[st.id] = st
            self._content_keys.add(st.content_key())
        elif st in self._content_keys:
            return
        else:
            self._content_keys.add(st)
        self.by_property.setdefault(st.property, []).append(st)
        self.by_prop_subject.setdefault((st.property, st.subject), []).append(st)
        self.by_prop_value.setdefault((st.property, st.value), []).append(st)
        self._domain_cache = None
        self._qualifier_index = None
        self._subject_index = None

    def has_fact(self, subject: EntityId, property: EntityId, value: Value, qualifiers: AttrSet) -> bool:
        # without_pseudo() of a pseudo-free set, or of a statement's set, builds nothing
        return (subject, property, value, qualifiers.without_pseudo()) in self._content_keys

    # -- lookup -------------------------------------------------------------

    def facts(self) -> Iterator[Statement]:
        """The statements, then the rows of each table in load order."""
        yield from self.statements.values()
        for table, rows in self.by_property.items():
            if type(table) is str:
                yield from rows

    def facts_for(self, property: EntityId) -> list[Statement]:  # deprecated ones left out
        return [st for st in self.by_property.get(property, ()) if st.rank != "deprecated"]

    @property
    def by_qualifier_attr(self) -> dict[Value, list[Statement]]:
        """Qualifier attribute (pseudo ones included) -> the statements carrying it.

        Built on first use after the last added statement; few queries read it.
        """
        if self._qualifier_index is None:
            index: dict = {}
            for st in self.statements.values():
                for a in {a for a, _v in st.qualifiers}:
                    index.setdefault(a, []).append(st)
            self._qualifier_index = index
        return self._qualifier_index

    @property
    def by_subject(self) -> dict[EntityId, list[Statement]]:
        """Subject -> its statements, for atoms with an open predicate; built like by_qualifier_attr."""
        if self._subject_index is None:
            index: dict = {}
            for st in self.statements.values():
                index.setdefault(st.subject, []).append(st)
            self._subject_index = index
        return self._subject_index

    def attr_sets(self) -> set:
        """Attribute sets realized anywhere in the KB (set-variable domain)."""
        out = {st.qualifiers for st in self.facts()}
        out.add(EMPTY_ATTRS)
        return out

    def active_domain(self) -> frozenset:
        """All constants in statements, rows and qualifier sets; a table's name is none."""
        if self._domain_cache is not None:
            return self._domain_cache
        dom = {p for p in self.by_property if type(p) is not str}
        for st in self.facts():
            dom.add(st.subject)
            dom.add(st.value)
            for a, v in st.qualifiers:
                dom.add(a)
                dom.add(v)
        self._domain_cache = frozenset(dom)
        return self._domain_cache

    def copy(self) -> "KnowledgeBase":
        """Shares the statements, not a list or set; add_statement is the only writer of the indexes."""
        kb = KnowledgeBase()
        kb.statements = dict(self.statements)
        kb.by_property = {k: list(v) for k, v in self.by_property.items()}
        kb.by_prop_subject = {k: list(v) for k, v in self.by_prop_subject.items()}
        kb.by_prop_value = {k: list(v) for k, v in self.by_prop_value.items()}
        kb._content_keys = set(self._content_keys)
        kb.labels = dict(self.labels)
        kb._anon_counter = self._anon_counter
        return kb


# ---------------------------------------------------------------------------
# Datatype relations and functions
# ---------------------------------------------------------------------------

DAYS_UNIT = "@days"


def time_interval(t: TimeVal) -> tuple[datetime, datetime]:
    """The closed interval covered by a time value at its stated precision.

    Precisions coarser than a day are expanded to the full calendar unit;
    very coarse precisions are clipped to the representable datetime range.
    """
    ts, p = t.timestamp, t.precision
    if p >= 14:
        return ts, ts
    if p == 13:
        start = ts.replace(second=0)
        return start, start + timedelta(minutes=1) - timedelta(seconds=1)
    if p == 12:
        start = ts.replace(minute=0, second=0)
        return start, start + timedelta(hours=1) - timedelta(seconds=1)
    if p == 11:
        start = ts.replace(hour=0, minute=0, second=0)
        return start, start + timedelta(days=1) - timedelta(seconds=1)
    if p == 10:
        start = ts.replace(day=1, hour=0, minute=0, second=0)
        last = days_in_month(ts.year, ts.month)
        return start, start.replace(day=last, hour=23, minute=59, second=59)
    if p == 9:
        return (ts.replace(month=1, day=1, hour=0, minute=0, second=0),
                ts.replace(month=12, day=31, hour=23, minute=59, second=59))
    # decade / century / millennium / coarser
    span = 10 ** (9 - p) if p >= 6 else 10 ** 9
    start_year = max(1, (ts.year // span) * span)
    end_year = min(9999, start_year + span - 1)
    return (datetime(start_year, 1, 1), datetime(end_year, 12, 31, 23, 59, 59))


def days_in_month(year: int, month: int) -> int:
    """The number of days in a month of the proleptic Gregorian calendar."""
    if month == 2:
        return 29 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 28
    return 30 if month in (4, 6, 9, 11) else 31


def _require_time(name: str, v: Value) -> TimeVal:
    if not isinstance(v, TimeVal):
        raise DatatypeError(f"{name} expects a time value, got {v}")
    return v


def _require_quantity(name: str, v: Value) -> QuantityVal:
    if not isinstance(v, QuantityVal):
        raise DatatypeError(f"{name} expects a quantity value, got {v}")
    return v


def _rel_less_than(a: Value, b: Value) -> bool:
    # compares main values; intervals are only consulted by overlaps
    if isinstance(a, TimeVal) and isinstance(b, TimeVal):
        return a.timestamp < b.timestamp
    if isinstance(a, QuantityVal) and isinstance(b, QuantityVal):
        _check_units("less_than", a, b)
        return a.amount < b.amount
    raise DatatypeError(f"less_than expects two times or two quantities, got {a}, {b}")


def _rel_overlaps(a: Value, b: Value) -> bool:
    ia = time_interval(_require_time("overlaps", a))
    ib = time_interval(_require_time("overlaps", b))
    return ia[0] <= ib[1] and ib[0] <= ia[1]


class UnsupportedPattern(DatatypeError):
    """Regular expression uses constructs outside the supported dialect."""


_UNSUPPORTED_RE = re.compile(r"\\[pP]\{|\(\?R\)|\(\?&")


def compile_pattern(pattern: str) -> "re.Pattern[str]":
    if _UNSUPPORTED_RE.search(pattern):
        raise UnsupportedPattern(f"unsupported regex construct in {pattern!r}")
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise UnsupportedPattern(f"cannot compile {pattern!r}: {exc}") from exc


def _rel_matches_regex(v: Value, pattern: Value) -> bool:
    if not isinstance(v, StringVal):
        raise DatatypeError(f"matches_regex expects a string value, got {v}")
    if not isinstance(pattern, StringVal):
        raise DatatypeError(f"matches_regex expects a string pattern, got {pattern}")
    return compile_pattern(pattern.text).fullmatch(v.text) is not None


def _rel_integer(v: Value) -> bool:
    q = _require_quantity("integer", v)
    return q.amount == q.amount.to_integral_value()


def _rel_precise(v: Value) -> bool:
    q = _require_quantity("precise", v)
    return q.lower is None and q.upper is None


def _check_units(name: str, a: QuantityVal, b: QuantityVal) -> None:
    if a.unit != b.unit:
        raise DatatypeError(f"{name}: incomparable values {a} and {b} (unit mismatch)")


#: Days per unit of a quantity compared with a time difference: a unitless
#: bound, as in a difference-within-range declaration on dates, is in years.
_DAYS_PER_UNIT = {None: Decimal("365.25"), Q(577): Decimal("365.25"), Q(573): Decimal(1)}


def _compare(name: str, a: Value, b: Value) -> int:
    if isinstance(a, QuantityVal) and isinstance(b, QuantityVal):
        x, y = a.amount, b.amount
        if a.unit == DAYS_UNIT and b.unit in _DAYS_PER_UNIT:
            y *= _DAYS_PER_UNIT[b.unit]
        elif b.unit == DAYS_UNIT and a.unit in _DAYS_PER_UNIT:
            x *= _DAYS_PER_UNIT[a.unit]
        else:
            _check_units(name, a, b)
        return (x > y) - (x < y)
    if isinstance(a, TimeVal) and isinstance(b, TimeVal):
        return (a.timestamp > b.timestamp) - (a.timestamp < b.timestamp)
    raise DatatypeError(f"{name} expects two quantities or two times, got {a}, {b}")


def _rel_geq(a: Value, b: Value) -> bool:
    return _compare("geq", a, b) >= 0


def _rel_leq(a: Value, b: Value) -> bool:
    return _compare("leq", a, b) <= 0


def _rel_has_unit(v: Value, unit: Value) -> bool:
    # the reserved constant `no_unit` denotes unitless quantities
    if isinstance(unit, Pseudo) and unit.name == "no_unit":
        unit = None
    elif not isinstance(unit, EntityId):
        raise DatatypeError(f"has_unit expects a unit entity, got {unit}")
    return isinstance(v, QuantityVal) and v.unit == unit


DATATYPE_RELATIONS = {
    "less_than": (2, _rel_less_than),
    "overlaps": (2, _rel_overlaps),
    "matches_regex": (2, _rel_matches_regex),
    "integer": (1, _rel_integer),
    "precise": (1, _rel_precise),
    "geq": (2, _rel_geq),
    "leq": (2, _rel_leq),
    "has_unit": (2, _rel_has_unit),
}


def datatype_relation(name: str, *args: Value) -> bool:
    if name not in DATATYPE_RELATIONS:
        raise DatatypeError(f"unknown datatype relation: {name}")
    arity, fn = DATATYPE_RELATIONS[name]
    if len(args) != arity:
        raise DatatypeError(f"{name} expects {arity} arguments, got {len(args)}")
    return fn(*args)


def witness_count(v: Value, diagnostics: list) -> int:
    """How many witnesses ``exists[?k]`` needs when ?k is v, a positive integer without
    a unit; for any other v, 0 (the quantifier is false) and a diagnostic."""
    if isinstance(v, QuantityVal) and v.unit is None and v.amount >= 1 \
            and v.amount == v.amount.to_integral_value():
        return int(v.amount)
    diagnostics.append(f"a count must be a positive integer without a unit, got {v}")
    return 0


def _fn_difference(a: Value, b: Value) -> Value:
    if isinstance(a, QuantityVal) and isinstance(b, QuantityVal):
        _check_units("difference", a, b)
        return QuantityVal(a.amount - b.amount, a.unit)
    if isinstance(a, TimeVal) and isinstance(b, TimeVal):
        delta = a.timestamp - b.timestamp
        return QuantityVal(Decimal(delta.days) + Decimal(delta.seconds) / Decimal(86400), DAYS_UNIT)
    raise DatatypeError(f"difference expects two quantities or two times, got {a}, {b}")


DATATYPE_FUNCTIONS = {
    "difference": (2, _fn_difference),
}


def datatype_function(name: str, *args: Value) -> Value:
    if name not in DATATYPE_FUNCTIONS:
        raise DatatypeError(f"unknown datatype function: {name}")
    arity, fn = DATATYPE_FUNCTIONS[name]
    if len(args) != arity:
        raise DatatypeError(f"{name} expects {arity} arguments, got {len(args)}")
    return fn(*args)
