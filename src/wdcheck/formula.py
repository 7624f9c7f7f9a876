"""Constraint formula language: abstract syntax, parser and printer.

The language is first-order logic over multi-attributed statements.  A
relational atom ``P26(?x, ?y)@?SQ`` matches a statement together with its
qualifier set; a set atom ``(P585 : ?v) in ?SQ`` tests qualifier membership.
Connectives are ``!``, ``&``, ``|`` and ``->`` (in decreasing precedence,
``->`` right-associative); quantifiers are ``exists ?x . f``, ``forall ?x . f``
and the counting forms ``exists[k] ?x . f`` and (``?k`` bound outside it)
``exists[?k] ?x . f``.  Variables starting with a
lowercase letter range over values, uppercase ones over qualifier sets.
Bare lowercase names are resolved through the label table (``spouse``), as
are backtick-quoted labels; datatype relations (``less_than``) and functions
(``difference``) are invoked by name.

A relational atom written without ``@...`` places no condition on the
statement's qualifier set.  A quantifier's variable is local to its body, so
an inner binder may reuse an outer name; ``parse`` returns the formula as
written, and ``parse(print_formula(f)) == f``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from datetime import datetime
from decimal import Decimal
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .labels import DEFAULT_LABELS, LabelTable
from .model import (
    DATATYPE_FUNCTIONS,
    DATATYPE_RELATIONS,
    AttrSet,
    EntityId,
    Frozen,
    QuantityVal,
    StringVal,
    TimeVal,
    Value,
    _new_tuple,
)

BUILTIN_PREDICATES = ("no_value", "Commons_namespace")


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


class _Node(Frozen):
    """Base of every term, set term, atom and formula node.

    Each node type names its fields once, in ``_fields`` (as ``ast`` nodes
    do), and a node is the tuple of their values: construction is positional,
    with trailing fields left out as None.  Equality, hashing, ``repr`` and
    refused assignment are ``Frozen``'s; the traversal reads the fields in
    order.  Only the caches keep an instance dictionary, and write it
    directly.
    """

    def __new__(cls, *values) -> "_Node":
        missing = len(cls._fields) - len(values)
        if missing < 0:
            raise TypeError(f"{cls.__name__} has {len(cls._fields)} field(s)")
        return _new_tuple(cls, values + (None,) * missing)

    @cached_property
    def _memo(self) -> dict:
        """The evaluator's results for this node (safe-range verdicts, plans), filled on demand."""
        return {}


class Const(_Node):
    _fields = ("value",)  # a Value


class ObjVar(_Node):
    _fields = ("name",)  # without the leading '?'


class FuncApp(_Node):
    _fields = ("name", "args")


Term = Union[Const, ObjVar, FuncApp]


class SetVar(_Node):
    _fields = ("name",)


class SetLiteral(_Node):
    _fields = ("pairs",)  # a tuple of (Term, Term)

    @cached_property
    def ground(self) -> Optional[AttrSet]:
        """The literal as an AttrSet when every attribute and value is a constant, else None."""
        if all(isinstance(a, Const) and isinstance(v, Const) for a, v in self.pairs):
            return AttrSet.of((a.value, v.value) for a, v in self.pairs)
        return None


SetTerm = Union[SetVar, SetLiteral]


class Atom(_Node):
    """Base of the four atom types; an atom is a formula by itself."""


class Rel(Atom):
    """Relational atom; predicate is a term or a builtin predicate name."""

    _fields = ("pred", "args", "attrs")  # args: (Term, Term); attrs: a set term or None


class SetMember(Atom):
    _fields = ("attr", "value", "set")


class Eq(Atom):
    _fields = ("left", "right")  # terms or set terms


class DtRel(Atom):
    _fields = ("name", "args")


class Not(_Node):
    _fields = ("body",)


class And(_Node):
    _fields = ("items",)


class Or(_Node):
    _fields = ("items",)


class Implies(_Node):
    _fields = ("body", "head")


class Exists(_Node):
    """``exists ?var . body``; with a count, k distinct witnesses: ``exists[k]``
    (an int) or ``exists[?k]`` (an ObjVar, bound outside the quantifier)."""

    _fields = ("var", "body", "count")


class Forall(_Node):
    _fields = ("var", "body")


Formula = Union[Atom, Not, And, Or, Implies, Exists, Forall]

QUANTIFIERS = (Exists, Forall)


def is_set_name(name: str) -> bool:
    return name[:1].isupper()


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# A node's shape is its _fields tuple, and nothing else spells it out: the
# generic _children and _map read it, walking into tuple fields (a set
# literal's pairs flatten to a1, v1, a2, v2).  The parser, the printer and
# the evaluator give each node type its own meaning; every walker below
# (free variables, constants, ground set literals, substitution) is written
# on top of the generic two and tests only for variables, constants, set
# literals and binders.  Binders keep the names written: a quantifier's
# variable is local to its body, and whatever reads one scopes it there.


def _sub_nodes(values: tuple, out: list) -> list:
    for value in values:
        if isinstance(value, _Node):
            out.append(value)
        elif type(value) is tuple:
            _sub_nodes(value, out)
    return out


def _children(node: _Node) -> tuple:
    """Direct sub-nodes, in field order (a builtin predicate name is not a node)."""
    return tuple(_sub_nodes(node, []))


def _map_value(value, fn):
    if isinstance(value, _Node):
        return fn(value)
    if type(value) is tuple:
        return tuple(_map_value(item, fn) for item in value)
    return value


def _map(node: _Node, fn) -> _Node:
    """The node rebuilt with fn applied to each direct sub-node; a leaf is itself."""
    if not _children(node):
        return node
    return type(node)(*(_map_value(value, fn) for value in node))


def _nodes(node: _Node) -> Iterator[_Node]:
    """The node and all its sub-nodes, in pre-order."""
    yield node
    for child in _children(node):
        yield from _nodes(child)


# ---------------------------------------------------------------------------
# Variable accounting
# ---------------------------------------------------------------------------


def free_variables(f: _Node) -> frozenset:
    """Free object- and set-variable names of a formula, atom or term.

    Computed once per (immutable) node and kept in its instance dictionary;
    a cached_property would take a lock on each node's first read, and every
    substituted query is made of fresh nodes.
    """
    out = f.__dict__.get("_free_vars")
    if out is None:
        if isinstance(f, (ObjVar, SetVar)):
            out = frozenset((f.name,))
        else:
            out = frozenset().union(*(free_variables(c) for c in _children(f)))
            if isinstance(f, QUANTIFIERS):
                out -= {f.var}
        f.__dict__["_free_vars"] = out
    return out


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _set_literal_of(attrs: AttrSet) -> SetLiteral:
    pairs = sorted(((Const(a), Const(v)) for a, v in attrs),
                   key=lambda p: (_print_term(p[0]), _print_term(p[1])))
    return SetLiteral(tuple(pairs))


def substitute(f: Formula, objmap: dict, setmap: Optional[dict] = None) -> Formula:
    """Replace free variables by constants (objmap: name -> Value,
    setmap: name -> AttrSet)."""
    setmap = setmap or {}

    def walk(node: _Node, names: frozenset) -> _Node:
        if names.isdisjoint(free_variables(node)):
            return node  # nothing to replace below here
        if isinstance(node, ObjVar) and node.name in objmap:
            return Const(objmap[node.name])
        if isinstance(node, SetVar) and node.name in setmap:
            return _set_literal_of(setmap[node.name])
        if isinstance(node, QUANTIFIERS):
            names = names - {node.var}
        return _map(node, lambda child: walk(child, names))

    return walk(f, frozenset(objmap) | frozenset(setmap))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<time>[0-9]{4}-[0-9]{2}-[0-9]{2}(T[0-9]{2}:[0-9]{2}:[0-9]{2})?(/[0-9]+)?)
  | (?P<number>-?[0-9]+(\.[0-9]+)?)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<entity>[QP][1-9][0-9]*\b)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<label>`[^`]+`)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|!=|[()\[\]{},:@.&|!=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_new_token = tuple.__new__  # Token(...) without the generated __new__'s Python frame


def tokenize(text: str) -> list:
    """The tokens of text, without the whitespace and comments, and an "eof"
    token; lines and columns count from 1.  Raises ParseError at the first
    character no token starts with."""
    starts = [0]
    at = text.find("\n")
    while at >= 0:
        starts.append(at + 1)
        at = text.find("\n", at + 1)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "ws":
            pos = m.start()
            line = bisect_right(starts, pos)
            col = pos - starts[line - 1] + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", line, col)
            tokens.append(_new_token(Token, (kind, m.group(), line, col)))
    tokens.append(Token("eof", "", len(starts), len(text) - starts[-1] + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text: str, labels: Optional[LabelTable] = None) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.labels = labels or DEFAULT_LABELS
        self.entity_values: dict = {}  # entity id text -> its EntityId, one object per id

    # -- machinery ----------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self.tokens[self.pos]  # advance() stops at the final eof
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return self.advance()

    def entity_value(self, text: str) -> EntityId:
        """The entity id of an entity id token; one object per id and parser (hash-consing)."""
        value = self.entity_values.get(text)
        if value is None:
            value = self.entity_values[text] = EntityId.parse(text)
        return value

    def fail(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message}, found {shown!r}", tok.line, tok.col)

    # -- entry points -------------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self.implies()
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return f

    # -- grammar ------------------------------------------------------------

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            self.advance()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        items = [self.conjunction()]
        while self.peek().text == "|":
            self.advance()
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self) -> Formula:
        items = [self.unary()]
        while self.peek().text == "&":
            self.advance()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.advance()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text in ("exists", "forall"):
            return self.quantifier()
        return self.primary()

    def quantifier(self) -> Formula:
        tok = self.advance()
        kind = tok.text
        count = None
        if kind == "exists" and self.peek().text == "[":
            self.advance()
            num = self.peek()
            if num.kind == "var":
                count = self.term()  # an object variable: term() refuses a set variable
            elif num.kind != "number" or "." in num.text or int(num.text) < 1:
                self.fail("expected a positive integer count")
            else:
                count = int(self.advance().text)
            self.expect("]")
        names = [self.variable_name()]
        while self.peek().text == ",":
            self.advance()
            names.append(self.variable_name())
        if isinstance(count, ObjVar) and count.name in names:
            self.fail("a counting quantifier cannot bind its own count variable", tok)
        self.expect(".")
        body = self.implies()
        for name in reversed(names):
            if kind == "forall":
                body = Forall(name, body)
                continue
            k = count if name == names[0] else None
            if k is not None and is_set_name(name):
                self.fail("counting quantifier binds object variables only", tok)
            body = Exists(name, body, k)
        return body

    def variable_name(self) -> str:
        tok = self.peek()
        if tok.kind != "var":
            self.fail("expected a variable")
        name = self.advance().text[1:]
        if name.startswith("_"):
            self.fail("variable names starting with '_' are reserved", tok)
        return name

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            atom = self.try_set_atom()
            if atom is not None:
                return atom
            inner = self.implies()
            self.expect(")")
            return inner
        return self.atom()

    def try_set_atom(self) -> Optional[Formula]:
        """After '(': attempt '(a : b) in S'; if it is not one, None with the position put back."""
        saved = self.pos
        try:
            attr = self.term()
            if self.peek().text != ":":
                self.pos = saved
                return None
            self.advance()
            value = self.term()
            self.expect(")")
            if not (self.peek().kind == "ident" and self.peek().text == "in"):
                self.pos = saved
                return None
            self.advance()
            sterm = self.set_term()
            return SetMember(attr, value, sterm)
        except ParseError:
            self.pos = saved
            return None

    def atom(self) -> Formula:
        tok = self.peek()
        # predicate application?
        if self.peek(1).text == "(" and tok.kind in ("ident", "entity", "var", "label"):
            if tok.kind == "ident" and tok.text in DATATYPE_RELATIONS:
                return self.call(DATATYPE_RELATIONS, DtRel)
            if not self.at_call():  # a function application starts a comparison
                return self.relational_atom()
        left = self.term_or_set()
        op = self.peek()
        if op.text == "=":
            self.advance()
            right = self.term_or_set()
            return Eq(left, right)
        if op.text == "!=":
            self.advance()
            right = self.term_or_set()
            return Not(Eq(left, right))
        self.fail("expected '=' or '!=' after term")

    def call(self, table: dict, node: type) -> _Node:
        """name(t1, ..., tn) for a datatype relation (DtRel) or function (FuncApp) in table."""
        tok = self.advance()
        name = tok.text
        arity = table[name][0]
        read = self.term_or_set if node is DtRel else self.term  # a relation may order sets
        self.expect("(")
        args = [read()]
        while self.peek().text == ",":
            self.advance()
            args.append(read())
        self.expect(")")
        if len(args) != arity:
            self.fail(f"{name} takes {arity} argument(s)", tok)
        return node(name, tuple(args))

    def relational_atom(self) -> Formula:
        tok = self.advance()
        pred: Union[Term, str]
        if tok.kind == "var":
            if is_set_name(tok.text[1:]):
                self.fail("set variable cannot be a predicate", tok)
            pred = ObjVar(tok.text[1:])
        elif tok.kind == "entity":
            pred = Const(self.entity_value(tok.text))
        elif tok.text in BUILTIN_PREDICATES:
            pred = tok.text
        else:
            label = tok.text[1:-1] if tok.kind == "label" else tok.text
            ent = self.labels.resolve_entity(label)
            if ent is None:
                self.fail(f"unknown predicate label {label!r}", tok)
            pred = Const(ent)
        self.expect("(")
        args = [self.term()]
        self.expect(",")
        args.append(self.term())
        self.expect(")")
        attrs: Optional[SetTerm] = None
        if self.peek().text == "@":
            self.advance()
            attrs = self.set_term()
        return Rel(pred, tuple(args), attrs)

    def term_or_set(self) -> Union[Term, SetTerm]:
        tok = self.peek()
        if tok.kind == "var" and is_set_name(tok.text[1:]):
            self.advance()
            return SetVar(tok.text[1:])
        if tok.text == "{":
            return self.set_literal()
        return self.term()

    def set_term(self) -> SetTerm:
        tok = self.peek()
        if tok.kind == "var":
            name = tok.text[1:]
            if not is_set_name(name):
                self.fail("expected a set variable (uppercase) or '{'", tok)
            self.advance()
            return SetVar(name)
        if tok.text == "{":
            return self.set_literal()
        self.fail("expected a set term")
        raise AssertionError  # unreachable

    def set_literal(self) -> SetLiteral:
        pairs = self.pairs(self.term)
        # canonical pair order, so printing and reparsing is the identity
        pairs.sort(key=lambda p: (_print_term(p[0]), _print_term(p[1])))
        return SetLiteral(tuple(pairs))

    def pairs(self, item) -> list:
        """'{a: b, ...}', each a and b read by item(); the pairs in reading order."""
        self.expect("{")
        pairs = []
        if self.peek().text != "}":
            while True:
                attr = item()
                self.expect(":")
                pairs.append((attr, item()))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("}")
        return pairs

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            name = tok.text[1:]
            if is_set_name(name):
                self.fail("set variable not allowed in term position", tok)
            self.advance()
            return ObjVar(name)
        if self.at_call():
            return self.call(DATATYPE_FUNCTIONS, FuncApp)
        return Const(self.constant())

    def at_call(self) -> bool:
        """Whether a datatype function application starts here."""
        tok = self.peek()
        return tok.kind == "ident" and tok.text in DATATYPE_FUNCTIONS and self.peek(1).text == "("

    def constant(self) -> Value:
        """An entity, string, time, quantity or label, as its value."""
        tok = self.peek()
        if tok.kind == "entity":
            self.advance()
            return self.entity_value(tok.text)
        if tok.kind == "string":
            self.advance()
            return StringVal(_unquote(tok.text))
        if tok.kind == "time":
            self.advance()
            return _parse_time(tok)
        if tok.kind == "number":
            return self.quantity()
        if tok.kind in ("ident", "label"):
            name = tok.text[1:-1] if tok.kind == "label" else tok.text
            resolved = self.labels.resolve(name)
            if resolved is None:
                self.fail(f"unknown label {name!r}", tok)
            self.advance()
            return resolved
        self.fail("expected a term")
        raise AssertionError  # unreachable

    def quantity(self) -> QuantityVal:
        tok = self.advance()
        amount = Decimal(tok.text)
        lower = upper = None
        if self.peek().text == "[":
            self.advance()
            lo = self.peek()
            if lo.kind != "number":
                self.fail("expected a lower bound")
            lower = Decimal(self.advance().text)
            self.expect(",")
            hi = self.peek()
            if hi.kind != "number":
                self.fail("expected an upper bound")
            upper = Decimal(self.advance().text)
            self.expect("]")
        unit = None
        if self.peek().kind == "ident" and self.peek().text == "unit" and self.peek(1).text == "=":
            self.advance()
            self.advance()
            ut = self.peek()
            if ut.kind != "entity":
                self.fail("expected a unit entity id")
            unit = self.entity_value(self.advance().text)
        return QuantityVal(amount, unit, lower, upper)


_ESCAPE_RE = re.compile(r'\\(["\\]|u[0-9a-fA-F]{4})')


def _unquote(raw: str) -> str:
    r"""Decode \\, \" and \uXXXX in one left-to-right pass; other backslashes stay."""
    return _ESCAPE_RE.sub(
        lambda m: chr(int(m[1][1:], 16)) if m[1][0] == "u" else m[1], raw[1:-1])


def _parse_time(tok: Token) -> TimeVal:
    """A time token, ``YYYY-MM-DD[THH:MM:SS][/precision]``, as a TimeVal."""
    text = tok.text
    precision = 11
    if "/" in text:
        text, prec = text.split("/")
        precision = int(prec)
        if precision > 14:
            raise ParseError(f"time precision out of range: {precision}", tok.line, tok.col)
    clock = (int(text[11:13]), int(text[14:16]), int(text[17:19])) if len(text) > 10 else ()
    try:
        ts = datetime(int(text[:4]), int(text[5:7]), int(text[8:10]), *clock)
    except ValueError as exc:
        raise ParseError(f"invalid date {tok.text!r}: {exc}", tok.line, tok.col) from exc
    return TimeVal(ts, precision)


def parse(text: str, labels: Optional[LabelTable] = None) -> Formula:
    """Parse a single formula; '!=' parses to a negated equality atom."""
    return Parser(text, labels).parse_formula()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _print_term(t: Union[Term, SetTerm]) -> str:
    if isinstance(t, ObjVar):
        return "?" + t.name
    if isinstance(t, SetVar):
        return "?" + t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, FuncApp):
        return f"{t.name}({', '.join(_print_term(a) for a in t.args)})"
    if isinstance(t, SetLiteral):
        pairs = sorted(((_print_term(a), _print_term(v)) for a, v in t.pairs))
        return "{" + ", ".join(f"{a}: {v}" for a, v in pairs) + "}"
    raise TypeError(t)


def _print_atom(atom: Atom) -> str:
    if isinstance(atom, Rel):
        pred = atom.pred if isinstance(atom.pred, str) else _print_term(atom.pred)
        out = f"{pred}({_print_term(atom.args[0])}, {_print_term(atom.args[1])})"
        if atom.attrs is not None:
            out += "@" + _print_term(atom.attrs)
        return out
    if isinstance(atom, SetMember):
        return f"({_print_term(atom.attr)} : {_print_term(atom.value)}) in {_print_term(atom.set)}"
    if isinstance(atom, Eq):
        return f"{_print_term(atom.left)} = {_print_term(atom.right)}"
    if isinstance(atom, DtRel):
        return f"{atom.name}({', '.join(_print_term(a) for a in atom.args)})"
    raise TypeError(atom)


# precedence levels: implies/quantifier 0, or 1, and 2, not/atom 3
def _prec(f: Formula) -> int:
    if isinstance(f, (Implies,) + QUANTIFIERS):
        return 0
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def _print(f: Formula, min_prec: int) -> str:
    text: str
    prec = _prec(f)
    if isinstance(f, Atom):
        text = _print_atom(f)
    elif isinstance(f, Not):
        if isinstance(f.body, Eq):
            text = f"{_print_term(f.body.left)} != {_print_term(f.body.right)}"
            prec = 3
        elif isinstance(f.body, Atom):
            text = "!" + _print(f.body, 3)
        else:
            text = "!(" + _print(f.body, 0) + ")"
    elif isinstance(f, And):
        text = " & ".join(_print(g, 3) for g in f.items)
    elif isinstance(f, Or):
        text = " | ".join(_print(g, 2) for g in f.items)
    elif isinstance(f, Implies):
        text = _print(f.body, 1) + " -> " + _print(f.head, 0)
    elif isinstance(f, Exists):
        count = "" if f.count is None else \
            f"[{_print_term(f.count) if isinstance(f.count, _Node) else f.count}]"
        text = f"exists{count} ?{f.var} . " + _print(f.body, 0)
    elif isinstance(f, Forall):
        text = f"forall ?{f.var} . " + _print(f.body, 0)
    else:
        raise TypeError(f)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_formula(f: Formula) -> str:
    return _print(f, 0)


# ---------------------------------------------------------------------------
# Negative formulation
# ---------------------------------------------------------------------------


def negate(f: Formula) -> Formula:
    """Negation with connectives pushed through; stops at atoms/quantifiers."""
    if isinstance(f, Not):
        return f.body
    if isinstance(f, And):
        return Or(tuple(negate(g) for g in f.items))
    if isinstance(f, Or):
        return And(tuple(negate(g) for g in f.items))
    if isinstance(f, Implies):
        return _flat_and((f.body, negate(f.head)))
    return Not(f)


def _flat_and(items: Iterable[Formula]) -> Formula:
    flat: list = []
    for g in items:
        if isinstance(g, And):
            flat.extend(g.items)
        else:
            flat.append(g)
    return And(tuple(flat)) if len(flat) > 1 else flat[0]


def negate_to_violation_query(f: Formula) -> Formula:
    """Turn a positive constraint (an implication) into its violation query."""
    if not isinstance(f, Implies):
        raise FormulaError("positive constraint formulation must be an implication")
    return _flat_and((f.body, negate(f.head)))
