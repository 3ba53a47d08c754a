"""Element expression grammar: parser and canonical printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := (scalar '*')? factor ('*' factor)*
    factor := atom "'"*
    atom   := identifier | '(' expr ')'
    scalar := integer ['/' positive-integer]

The postfix prime is the involution (on an edge: its ghost edge). A run of
generators folds left to right into one monomial p q* or 0 (non-composable
products are 0, not an error); terms stay raw until the whole expression,
or a parenthesised one, is normalised once. A bare ``0`` is the zero element,
as the printer spells it. The printer emits this grammar, with terms in
basis order and explicit signs, so printing and reparsing round-trips.
"""

from __future__ import annotations

import re

from .algebra import Element, Monomial
from .errors import ExpressionSyntaxError, UnknownIdentifier
from .fields import QQ
from .graph import Path

# Each nesting level costs four stack frames (expr, term, factor, atom), so
# this bound keeps the deepest parse far below the interpreter's recursion
# limit of 1000.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/()'])|(?P<bad>\S))"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionSyntaxError(
                f"unexpected character {m.group('bad')!r} at position {m.start('bad')}"
            )
        value = m.group(kind)
        tokens.append((kind, int(value) if kind == "int" else value))
    return tokens


class _Word:
    """A run of generators folded left to right into one monomial p q*; q's
    edges are kept last to first, so cancelling or prepending one is O(1)."""

    __slots__ = ("source", "real", "range", "ghost_source", "ghost")

    def __init__(self, v):
        self.source = self.range = self.ghost_source = v
        self.real, self.ghost = [], []

    def times(self, name, src, dst, ghost):
        """Right-multiply by a generator: the word itself, or False when 0."""
        if name is None:  # p q* v = p q* iff s(q) = v
            ok = self.ghost_source == src
        elif ghost:  # p q* e* = p (e q)* iff r(e) = s(q)
            ok, self.ghost_source = self.ghost_source == dst, src
            self.ghost.append(name)
        elif self.ghost:  # q = f t: q* e = t* f* e = delta(f, e) t*
            ok, self.ghost_source = self.ghost.pop() == name, dst
        else:  # q trivial, so s(q) = r(p): p e iff r(p) = s(e)
            ok = self.ghost_source == src
            self.range = self.ghost_source = dst
            self.real.append(name)
        return ok and self

    def raw(self, graph, coeff):
        p = Path._trusted(graph, self.source, tuple(self.real), self.range)
        q = Path._trusted(graph, self.ghost_source, tuple(reversed(self.ghost)), self.range)
        return [(Monomial._trusted(p, q), coeff)]


class _Parser:
    def __init__(self, graph, tokens, field):
        self.graph = graph
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        raw = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionSyntaxError(f"trailing input at token {self.peek()[1]!r}")
        return Element(self.graph, self.field, raw)

    # Each decision peeks once; a token already peeked is consumed by
    # advancing pos rather than by take(), which would look it up again.

    def expr(self):
        negative = self.peek() == ("sym", "-")
        if negative:
            self.pos += 1
        raw = self.term(negative)
        kind, op = self.peek()
        while kind == "sym" and op in "+-":
            self.pos += 1
            raw += self.term(op == "-")
            kind, op = self.peek()
        return raw

    def term(self, negative):
        graph, field = self.graph, self.field
        one = coeff = field.one()
        kind, numerator = self.peek()
        if kind == "int":
            self.pos += 1
            if self.peek() == ("sym", "/"):
                self.pos += 1
                kind, den = self.take()
                if kind != "int" or den == 0:
                    raise ExpressionSyntaxError("expected positive integer denominator")
                coeff = field.from_fraction(numerator, den)
            else:
                coeff = field.from_int(numerator)
            if self.peek() == ("sym", "*"):
                self.pos += 1
            elif numerator == 0 and not coeff:
                return []
            else:
                raise ExpressionSyntaxError("a scalar must multiply a factor")
        coeff = -coeff if negative else coeff
        product = word = None  # Element of the factors before the run; the run, False once 0
        while True:
            value = self.factor()
            if isinstance(value, Element):  # ends the run
                if word is not None:
                    value = Element(graph, field, word.raw(graph, one) if word else []) * value
                product, word = value if product is None else product * value, None
            else:
                if word is None:
                    word = _Word(value[2] if value[3] else value[1])
                word = word and word.times(*value)
            if self.peek() != ("sym", "*"):
                break
            self.pos += 1
        if product is None:
            return word.raw(graph, coeff) if word else []
        if word is not None:
            product = product * Element(graph, field, word.raw(graph, one) if word else [])
        return [(m, c * coeff) for m, c in product.terms.items()]

    def factor(self):
        """'( expr )' as an Element starred once per prime, or a generator
        (edge name or None for a vertex, source, range, is_ghost)."""
        value, ghost = self.atom(), False
        while self.peek() == ("sym", "'"):
            self.pos += 1
            if isinstance(value, Element):
                value = value.star()
            else:
                ghost = not ghost
        return value if isinstance(value, Element) else (*value, ghost)

    def atom(self):
        kind, value = self.take()
        if kind == "ident":
            if self.graph.has_vertex(value):
                return None, value, value
            if self.graph.has_edge(value):
                return self.graph.edge(value)
            raise UnknownIdentifier(f"unknown identifier {value!r} in graph {self.graph.name!r}")
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = Element(self.graph, self.field, self.expr())
            kind, close = self.take()
            if kind != "sym" or close != ")":
                raise ExpressionSyntaxError(f"expected ')', got {close!r}")
            self.depth -= 1
            return inner
        raise ExpressionSyntaxError(f"expected identifier or '(', got {value!r}")


def parse_element(graph, text, field=QQ):
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    return _Parser(graph, tokens, field).parse()


# ---------------------------------------------------------------------------
# Canonical printer


def format_monomial(m):
    if m.is_vertex:
        return m.real.source
    parts = list(m.real.edges)
    parts += [name + "'" for name in reversed(m.ghost.edges)]
    return "*".join(parts)


def format_element(x):
    """Basis-ordered canonical string; parse_element inverts it."""
    if x.is_zero():
        return "0"
    field = x.field
    one, ordered = field.one(), field.is_ordered()  # prime-field residues print unsigned
    out = []
    for m, c in x.sorted_terms():
        negative = ordered and c < 0
        mag = -c if negative else c
        body = format_monomial(m) if mag == one else f"{field.format(mag)}*{format_monomial(m)}"
        sign = ("- " if out else "-") if negative else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)
