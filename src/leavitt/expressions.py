"""Element expression grammar: parser and canonical printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := (scalar '*')? factor ('*' factor)*
    factor := atom "'"*
    atom   := identifier | '(' expr ')'
    scalar := integer ['/' positive-integer]

The postfix prime is the involution (on an edge: its ghost edge). The parser
reads the text once, left to right, through one position index: one pattern
match takes a term's whole scalar prefix, and one takes a whole run of
generators (identifiers and their primes joined by '*'). A run folds left to
right into one monomial p q* or 0 (non-composable products are 0, not an
error); terms stay raw until the whole expression, or a parenthesised one, is
normalised once. One search before the scan finds the first character that
no token can hold, so that error wins over every other. A bare ``0`` is the
zero element, as the printer spells it.
The printer emits this grammar, with terms in basis order and explicit signs,
so printing and reparsing round-trips.
"""

from __future__ import annotations

import re

from .algebra import Element, _key
from .errors import ExpressionSyntaxError, UnknownIdentifier
from .fields import QQ
from .graph import IDENT

# Each nesting level costs three stack frames (expr, term, factor), so this
# bound keeps the deepest parse far below the interpreter's recursion limit
# of 1000.
MAX_NESTING = 100

_BAD = re.compile(r"[^\s\dA-Za-z_\-+*/()']")
_SPACE = re.compile(r"\s*")
# integer, then '/' and maybe a denominator, then maybe '*'; the caller
# tells the cases apart, so every error keeps its message
_SCALAR = re.compile(r"\s*(\d+)\s*(?:(/)\s*(\d+)?\s*)?(\*)?")
# a whole run of generators, then whether a '*' follows it
_RUN = re.compile(rf"\s*({IDENT}(?:\s*')*(?:\s*\*\s*{IDENT}(?:\s*')*)*)\s*(\*)?")
_GENERATOR = re.compile(rf"({IDENT})((?:\s*')*)")
# the token an error message names: an int, a name or symbol, None at the end
_TOKEN = re.compile(rf"\s*(?:(\d+)|({IDENT}|\S))")


class _Parser:
    def __init__(self, graph, text, field):
        self.graph = graph
        self.text = text
        self.field = field
        self.pos = self.depth = 0

    def next_char(self):
        """The next character that is not whitespace, '' at the end; pos
        moves onto it."""
        pos = self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def token(self):
        m = _TOKEN.match(self.text, self.pos)
        return None if m is None else int(m[1]) if m[1] else m[2]

    def expr(self):
        op = self.next_char()
        if op == "-":
            self.pos += 1
        raw = self.term(op == "-")
        op = self.next_char()
        while op == "+" or op == "-":
            self.pos += 1
            raw += self.term(op == "-")
            op = self.next_char()
        return raw

    def term(self, negative):
        g, field, text, one = self.graph, self.field, self.text, self.field.one
        sign = -1 if negative else 1
        m = _SCALAR.match(text, self.pos)
        if not m:
            coeff = field.from_int(sign)
        else:
            numerator, slash, den, star = m.groups()
            numerator = sign * int(numerator)
            if slash:
                if not den or not int(den):
                    raise ExpressionSyntaxError("expected positive integer denominator")
                coeff = field.from_fraction(numerator, int(den))
            else:
                coeff = field.from_int(numerator)
            self.pos = m.end()
            if not star:
                if numerator == 0 and not coeff:
                    return []
                raise ExpressionSyntaxError("a scalar must multiply a factor")
        # the Element of the factors before the pending run; the run's key,
        # False once it is 0
        product = word = None
        while True:
            m = _RUN.match(text, self.pos)
            if m:  # a run ends at the term's end or at a parenthesised factor
                self.pos = m.end()
                word = self.fold(m.start(1), m.end(1))
                if not m[2]:
                    break
                continue
            value = self.factor()
            if word is not None:
                value = Element._from_raw(g, field, [(word, one())] if word else []) * value
            product, word = value if product is None else product * value, None
            if self.next_char() != "*":
                break
            self.pos += 1
        if product is None:
            return [(word, coeff)] if word else []
        if word is not None:
            product = product * Element._from_raw(g, field, [(word, one())] if word else [])
        return [(k, c * coeff) for k, c in product._flat.items()]

    def fold(self, start, end):
        """The run of generators in text[start:end] multiplied left to right:
        the stored key (s(p), p, s(q), q) of one monomial p q*, or False when
        the product is 0. q's edges are kept last to first, so cancelling or
        prepending one is O(1)."""
        g = self.graph
        vindex, eindex, edges = g._vindex, g._eindex, g.edges
        real, ghost = [], []
        source = None  # s(p), set by the first generator; at = s(q)
        ok = True
        for name, primes in _GENERATOR.findall(self.text, start, end):
            if name not in eindex:
                if name not in vindex:
                    raise UnknownIdentifier(f"unknown identifier {name!r} in graph {g.name!r}")
                if source is None:
                    source = at = name
                ok = ok and at == name  # p q* v = p q* iff s(q) = v
                continue
            if not ok:
                continue
            _, src, dst = edges[eindex[name]]
            if primes and primes.count("'") % 2:  # p q* e* = p (e q)* iff r(e) = s(q)
                if source is None:
                    source = at = dst
                ok, at = at == dst, src
                ghost.append(name)
            elif ghost:  # q = f t: q* e = t* f* e = delta(f, e) t*
                ok, at = ghost.pop() == name, dst
            else:  # q trivial, so s(q) = r(p): p e iff r(p) = s(e)
                if source is None:
                    source = at = src
                ok = at == src
                at = dst
                real.append(name)
        return ok and (source, tuple(real), at, tuple(reversed(ghost)))

    def factor(self):
        """'( expr )' as an Element, starred once per prime."""
        if self.next_char() != "(":
            raise ExpressionSyntaxError(f"expected identifier or '(', got {self.token()!r}")
        self.pos += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
        value = Element._from_raw(self.graph, self.field, self.expr())
        if self.next_char() != ")":
            raise ExpressionSyntaxError(f"expected ')', got {self.token()!r}")
        self.pos += 1
        self.depth -= 1
        while self.next_char() == "'":
            self.pos += 1
            value = value.star()
        return value


def parse_element(graph, text, field=QQ):
    bad = _BAD.search(text)
    if bad:
        raise ExpressionSyntaxError(f"unexpected character {bad[0]!r} at position {bad.start()}")
    parser = _Parser(graph, text, field)
    if not parser.next_char():
        raise ExpressionSyntaxError("empty expression")
    raw = parser.expr()
    if parser.next_char():
        raise ExpressionSyntaxError(f"trailing input at token {parser.token()!r}")
    return Element._from_raw(graph, field, raw)


# ---------------------------------------------------------------------------
# Canonical printer


def format_monomial(m):
    return _spell(_key(m))


def _spell(key):
    """A stored key as a word: the real edges, then the ghost edges primed
    and last to first; a vertex by its name."""
    source, real, _, ghost = key
    return "*".join([*real, *[name + "'" for name in reversed(ghost)]]) or source


def format_element(x):
    """Basis-ordered canonical string; parse_element inverts it."""
    flat = x._flat
    if not flat:
        return "0"
    field, vindex, eindex = x.field, x.graph._vindex, x.graph._eindex.__getitem__
    ranks = {}  # each distinct edge tuple's edge indices, built once per call

    def basis_order(key):  # Monomial.sort_key, flattened
        s, p, t, q = key
        rp, rq = ranks.get(p), ranks.get(q)
        if rp is None:
            rp = ranks[p] = tuple(map(eindex, p))
        if rq is None:
            rq = ranks[q] = tuple(map(eindex, q))
        return vindex[s], rp, vindex[t], rq

    out = []
    for k in sorted(flat, key=basis_order):
        text = field.format(flat[k])  # a sign only over QQ
        mag = text.removeprefix("-")
        body = _spell(k) if mag == "1" else f"{mag}*{_spell(k)}"
        sign = ("- " if out else "-") if mag != text else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)
