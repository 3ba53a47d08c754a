"""Element expression grammar: parser and canonical printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := (scalar '*')? factor ('*' factor)*
    factor := atom "'"*
    atom   := identifier | '(' expr ')'
    scalar := integer ['/' positive-integer]

The postfix prime is the involution (on an edge: its ghost edge). Products
of non-composable factors are 0, not an error. A bare ``0`` denotes the
zero element, which is also how the printer spells it. The printer emits
this same grammar, with terms in basis order and explicit signs, so
printing and reparsing round-trips.
"""

from __future__ import annotations

import re

from .algebra import Element
from .errors import ExpressionSyntaxError, UnknownIdentifier
from .fields import QQ

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

    def expect_sym(self, sym):
        kind, value = self.take()
        if kind != "sym" or value != sym:
            raise ExpressionSyntaxError(f"expected {sym!r}, got {value!r}")

    def parse(self):
        result = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionSyntaxError(f"trailing input at token {self.peek()[1]!r}")
        return result

    # Each decision peeks once; a token already peeked is consumed by
    # advancing pos rather than by take(), which would look it up again.

    def expr(self):
        negative = self.peek() == ("sym", "-")
        if negative:
            self.pos += 1
        total = self.term()
        if negative:
            total = -total
        kind, op = self.peek()
        while kind == "sym" and op in "+-":
            self.pos += 1
            nxt = self.term()
            total = total + nxt if op == "+" else total - nxt
            kind, op = self.peek()
        return total

    def term(self):
        coeff = None
        kind, numerator = self.peek()
        if kind == "int":
            self.pos += 1
            if self.peek() == ("sym", "/"):
                self.pos += 1
                kind, den = self.take()
                if kind != "int" or den == 0:
                    raise ExpressionSyntaxError("expected positive integer denominator")
                coeff = self.field.from_fraction(numerator, den)
            else:
                coeff = self.field.from_int(numerator)
            if self.peek() == ("sym", "*"):
                self.pos += 1
            elif numerator == 0 and not coeff:
                return Element.zero(self.graph, self.field)
            else:
                raise ExpressionSyntaxError("a scalar must multiply a factor")
        product = self.factor()
        while self.peek() == ("sym", "*"):
            self.pos += 1
            product = product * self.factor()
        return product if coeff is None else product.scale(coeff)

    def factor(self):
        value = self.atom()
        while self.peek() == ("sym", "'"):
            self.pos += 1
            value = value.star()
        return value

    def atom(self):
        kind, value = self.take()
        if kind == "ident":
            if self.graph.has_vertex(value):
                return Element.vertex(self.graph, value, self.field)
            if self.graph.has_edge(value):
                return Element.edge(self.graph, value, self.field)
            raise UnknownIdentifier(f"unknown identifier {value!r} in graph {self.graph.name!r}")
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            self.expect_sym(")")
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


def _coeff_pieces(field, c):
    """(is_negative, magnitude_string or None when the magnitude is 1)."""
    if field.is_ordered():
        negative = c < 0
        mag = -c if negative else c
        return negative, None if mag == field.one() else field.format(mag)
    return False, None if c == field.one() else field.format(c)


def format_element(x):
    """Basis-ordered canonical string; parse_element inverts it."""
    if x.is_zero():
        return "0"
    out = []
    for m, c in x.sorted_terms():
        negative, mag = _coeff_pieces(x.field, c)
        body = format_monomial(m) if mag is None else f"{mag}*{format_monomial(m)}"
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(out)
