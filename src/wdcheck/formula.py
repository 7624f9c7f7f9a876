"""Constraint formula language: abstract syntax, parser and printer.

The language is first-order logic over multi-attributed statements.  A
relational atom ``P26(?x, ?y)@?SQ`` matches a statement together with its
qualifier set; a set atom ``(P585 : ?v) in ?SQ`` tests qualifier membership.
Connectives are ``!``, ``&``, ``|`` and ``->`` (in decreasing precedence,
``->`` right-associative); quantifiers are ``exists ?x . f``, ``forall ?x . f``
and the counting form ``exists[k] ?x . f``.  Variables starting with a
lowercase letter range over values, uppercase ones over qualifier sets.
Bare lowercase names are resolved through the label table (``spouse``), as
are backtick-quoted labels; datatype relations (``less_than``) and functions
(``difference``) are invoked by name.

A relational atom written without ``@...`` places no condition on the
statement's qualifier set.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from datetime import datetime
from decimal import Decimal
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from .labels import DEFAULT_LABELS, LabelTable
from .model import (
    DATATYPE_FUNCTIONS,
    DATATYPE_RELATIONS,
    AttrSet,
    EntityId,
    QuantityVal,
    StringVal,
    TimeVal,
    Value,
    entity_value,
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


class _Node:
    """Base of every term, set term, atom and formula node."""

    @cached_property
    def _memo(self) -> dict:
        """The evaluator's results for this node (safe-range verdicts, plans), filled on demand."""
        return {}


@dataclass(frozen=True)
class Const(_Node):
    value: Value


@dataclass(frozen=True)
class ObjVar(_Node):
    name: str  # without the leading '?'


@dataclass(frozen=True)
class FuncApp(_Node):
    name: str
    args: tuple


Term = Union[Const, ObjVar, FuncApp]


@dataclass(frozen=True)
class SetVar(_Node):
    name: str


@dataclass(frozen=True)
class SetLiteral(_Node):
    pairs: tuple  # of (Term, Term)

    @cached_property
    def ground(self) -> Optional[AttrSet]:
        """The literal as an AttrSet when every attribute and value is a constant, else None."""
        if all(isinstance(a, Const) and isinstance(v, Const) for a, v in self.pairs):
            return AttrSet.of((a.value, v.value) for a, v in self.pairs)
        return None


SetTerm = Union[SetVar, SetLiteral]


class Atom(_Node):
    """Base of the four atom types; an atom is a formula by itself."""


@dataclass(frozen=True)
class Rel(Atom):
    """Relational atom; predicate is a term or a builtin predicate name."""

    pred: Union[Term, str]
    args: tuple  # (Term, Term)
    attrs: Optional[SetTerm] = None


@dataclass(frozen=True)
class SetMember(Atom):
    attr: Term
    value: Term
    set: SetTerm


@dataclass(frozen=True)
class Eq(Atom):
    left: Union[Term, SetTerm]
    right: Union[Term, SetTerm]


@dataclass(frozen=True)
class DtRel(Atom):
    name: str
    args: tuple


@dataclass(frozen=True)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True)
class And(_Node):
    items: tuple


@dataclass(frozen=True)
class Or(_Node):
    items: tuple


@dataclass(frozen=True)
class Implies(_Node):
    body: "Formula"
    head: "Formula"


@dataclass(frozen=True)
class Exists(_Node):
    """``exists ?var . body``; with a count k, ``exists[k]``: k distinct witnesses."""

    var: str
    body: "Formula"
    count: Optional[int] = None


@dataclass(frozen=True)
class Forall(_Node):
    var: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Exists, Forall]

QUANTIFIERS = (Exists, Forall)


def is_set_name(name: str) -> bool:
    return name[:1].isupper() or name.startswith("_A")


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# _children and _map are the only traversal code that knows the shape of each
# node type (the parser, the printer and the evaluator give each type its own
# meaning).  Every walker below (free variables, constants, ground set
# literals, substitution, renaming, binder uniqueness, alpha normalization)
# is written on top of them and tests only for variables, constants, set
# literals and binders.


def _children(node: _Node) -> tuple:
    """Direct sub-nodes, in source order (a builtin predicate name is not a node)."""
    if isinstance(node, (Const, ObjVar, SetVar)):
        return ()
    if isinstance(node, (FuncApp, DtRel)):
        return node.args
    if isinstance(node, SetLiteral):
        return tuple(t for pair in node.pairs for t in pair)
    if isinstance(node, Rel):
        pred = () if isinstance(node.pred, str) else (node.pred,)
        return pred + node.args + (() if node.attrs is None else (node.attrs,))
    if isinstance(node, SetMember):
        return (node.attr, node.value, node.set)
    if isinstance(node, Eq):
        return (node.left, node.right)
    if isinstance(node, (And, Or)):
        return node.items
    if isinstance(node, Implies):
        return (node.body, node.head)
    if isinstance(node, (Not,) + QUANTIFIERS):
        return (node.body,)
    raise TypeError(node)


def _map(node: _Node, fn) -> _Node:
    """The node rebuilt with fn applied to each direct sub-node."""
    if isinstance(node, (Const, ObjVar, SetVar)):
        return node
    if isinstance(node, (FuncApp, DtRel)):
        return type(node)(node.name, tuple(fn(a) for a in node.args))
    if isinstance(node, SetLiteral):
        return SetLiteral(tuple((fn(a), fn(v)) for a, v in node.pairs))
    if isinstance(node, Rel):
        return Rel(node.pred if isinstance(node.pred, str) else fn(node.pred),
                   tuple(fn(a) for a in node.args),
                   None if node.attrs is None else fn(node.attrs))
    if isinstance(node, SetMember):
        return SetMember(fn(node.attr), fn(node.value), fn(node.set))
    if isinstance(node, Eq):
        return Eq(fn(node.left), fn(node.right))
    if isinstance(node, (And, Or)):
        return type(node)(tuple(fn(g) for g in node.items))
    if isinstance(node, Implies):
        return Implies(fn(node.body), fn(node.head))
    if isinstance(node, (Not,) + QUANTIFIERS):
        return replace(node, body=fn(node.body))
    raise TypeError(node)


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


def all_constants(f: Formula) -> set:
    """All constant values occurring in a formula, including inside set literals."""
    return {n.value for n in _nodes(f) if isinstance(n, Const)}


def ground_set_literals(f: Formula) -> set:
    """Set literals of a formula made only of constants, as AttrSet values."""
    return {n.ground for n in _nodes(f) if isinstance(n, SetLiteral) and n.ground is not None}


# ---------------------------------------------------------------------------
# Substitution and renaming
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


def rename_variable(f: Formula, old: str, new: str) -> Formula:
    """Rename every occurrence (free or binding) of a variable."""

    def walk(node: _Node) -> _Node:
        if isinstance(node, (ObjVar, SetVar)) and node.name == old:
            return type(node)(new)
        node = _map(node, walk)
        if isinstance(node, QUANTIFIERS) and node.var == old:
            return replace(node, var=new)
        return node

    return walk(f)


def _rename_binders(f: Formula, name_for) -> Formula:
    """Rename each quantifier's variable, outermost first, to name_for(quantifier).

    Atoms bind nothing, so the walk stops at them.
    """

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, QUANTIFIERS):
            new = name_for(g)
            if new != g.var:
                g = rename_variable(g, g.var, new)
        return _map(g, walk)

    return walk(f)


def ensure_unique_bound(f: Formula) -> Formula:
    """Alpha-rename so no bound variable name repeats along any path."""
    used = set(free_variables(f))

    def fresh(g: Formula) -> str:
        name = candidate = g.var
        if name in used:
            # the new name must not be captured by a binder below this one
            below = {v.name for v in _nodes(g.body) if isinstance(v, (ObjVar, SetVar))}
            n = 2
            while candidate in used or candidate in below:
                candidate = f"{name}_{n}"
                n += 1
        used.add(candidate)
        return candidate

    return _rename_binders(f, fresh)


def alpha_normalize(f: Formula) -> Formula:
    """Canonical bound-variable names, for structural comparison."""
    counter = itertools.count(1)
    return _rename_binders(
        f, lambda g: ("B%d" if is_set_name(g.var) else "b%d") % next(counter))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<time>\d{4}-\d{2}-\d{2}(T\d{2}:\d{2}:\d{2})?(/\d+)?)
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<entity>[QP][1-9][0-9]*\b)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<label>`[^`]+`)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|!=|[()\[\]{},:@.&|!=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group(0)
        if kind != "ws":
            tokens.append(Token(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text: str, labels: Optional[LabelTable] = None) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.labels = labels or DEFAULT_LABELS

    # -- machinery ----------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
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

    def fail(self, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message}, found {shown!r}", tok.line, tok.col)

    # -- entry points -------------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self.implies()
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return ensure_unique_bound(f)

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
            if num.kind != "number" or "." in num.text or int(num.text) < 1:
                self.fail("expected a positive integer count")
            count = int(self.advance().text)
            self.expect("]")
        names = [self.variable_name()]
        while self.peek().text == ",":
            self.advance()
            names.append(self.variable_name())
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
            name = tok.text
            if tok.kind == "ident" and name in DATATYPE_RELATIONS:
                return self.call(DATATYPE_RELATIONS, DtRel)
            if tok.kind == "ident" and name in DATATYPE_FUNCTIONS:
                pass  # function application inside a comparison; fall through
            else:
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
        self.expect("(")
        args = [self.term()]
        while self.peek().text == ",":
            self.advance()
            args.append(self.term())
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
            ent = EntityId.parse(tok.text)
            pred = Const(entity_value(ent))
        elif tok.text in BUILTIN_PREDICATES:
            pred = tok.text
        else:
            label = tok.text[1:-1] if tok.kind == "label" else tok.text
            ent = self.labels.resolve_entity(label)
            if ent is None:
                self.fail(f"unknown predicate label {label!r}", tok)
            pred = Const(entity_value(ent))
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
        self.expect("{")
        pairs = []
        if self.peek().text != "}":
            while True:
                attr = self.term()
                self.expect(":")
                value = self.term()
                pairs.append((attr, value))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("}")
        # canonical pair order, so printing and reparsing is the identity
        pairs.sort(key=lambda p: (_print_term(p[0]), _print_term(p[1])))
        return SetLiteral(tuple(pairs))

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            name = tok.text[1:]
            if is_set_name(name):
                self.fail("set variable not allowed in term position", tok)
            self.advance()
            return ObjVar(name)
        if tok.kind == "entity":
            self.advance()
            return Const(entity_value(EntityId.parse(tok.text)))
        if tok.kind == "string":
            self.advance()
            return Const(StringVal(_unquote(tok.text)))
        if tok.kind == "time":
            self.advance()
            return Const(_parse_time(tok))
        if tok.kind == "number":
            return self.quantity()
        if tok.kind in ("ident", "label"):
            name = tok.text[1:-1] if tok.kind == "label" else tok.text
            if tok.kind == "ident" and name in DATATYPE_FUNCTIONS and self.peek(1).text == "(":
                return self.call(DATATYPE_FUNCTIONS, FuncApp)
            resolved = self.labels.resolve(name)
            if resolved is None:
                self.fail(f"unknown label {name!r}", tok)
            self.advance()
            return Const(resolved)
        self.fail("expected a term")
        raise AssertionError  # unreachable

    def quantity(self) -> Term:
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
            unit = EntityId.parse(self.advance().text)
        return Const(QuantityVal(amount, unit, lower, upper))


_ESCAPE_RE = re.compile(r'\\(["\\]|u[0-9a-fA-F]{4})')


def _unquote(raw: str) -> str:
    r"""Decode \\, \" and \uXXXX in one left-to-right pass; other backslashes stay."""
    return _ESCAPE_RE.sub(
        lambda m: chr(int(m[1][1:], 16)) if m[1][0] == "u" else m[1], raw[1:-1])


def _parse_time(tok: Token) -> TimeVal:
    text = tok.text
    precision = 11
    if "/" in text:
        text, prec = text.split("/")
        precision = int(prec)
        if precision > 14:
            raise ParseError(f"time precision out of range: {precision}", tok.line, tok.col)
    if "T" in text:
        ts = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    else:
        ts = datetime.strptime(text, "%Y-%m-%d")
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
        count = "" if f.count is None else f"[{f.count}]"
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


# ---------------------------------------------------------------------------
# Formula/rule text files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaBlock:
    name: str
    kind: str  # "constraint" or "rule"
    formula: Formula


def parse_blocks(text: str, labels: Optional[LabelTable] = None) -> list:
    """Parse a catalog/rule file: '---'-separated blocks with header lines."""
    blocks = []
    for chunk in re.split(r"^---\s*$", text, flags=re.MULTILINE):
        lines = chunk.splitlines()
        name = None
        kind = "constraint"
        body_lines = []
        in_header = True
        for ln in lines:
            stripped = ln.strip()
            if in_header and (not stripped or stripped.startswith("#")):
                continue
            m = re.match(r"(name|kind|rule)\s*:\s*(\S+)\s*$", stripped) if in_header else None
            if m:
                if m.group(1) == "name":
                    name = m.group(2)
                elif m.group(1) == "kind":
                    kind = m.group(2)
                else:
                    name = m.group(2)
                    kind = "rule"
                continue
            in_header = False
            body_lines.append(ln)
        body = "\n".join(body_lines).strip()
        if not body:
            continue
        if name is None:
            raise FormulaError("formula block missing a 'name:' header")
        blocks.append(FormulaBlock(name, kind, parse(body, labels)))
    return blocks
