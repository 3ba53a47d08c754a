"""Element expression grammar: parser and canonical printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := (scalar '*')? factor ('*' factor)*
    factor := atom "'"*
    atom   := identifier | '(' expr ')'
    scalar := integer ['/' positive-integer]

The postfix prime is the involution (on an edge: its ghost edge). One
``findall`` call splits the text into plain strings (digit runs, identifiers,
single symbols; whitespace matches nothing), read through one index: one
C-level call per expression and no regex match, tuple or method call per
token, unlike a tokenizer that matches token by token. A term reads its
scalar by index and folds each run of generators (identifiers and their
primes joined by '*') left to right as it reads it, into one monomial p q*
or 0 (non-composable products are 0, not an error); terms stay raw integers,
over one denominator per term, until the whole expression, or a parenthesised
one, is put over one denominator and normalised once. One search
before the split finds the first character that no token can hold, so that
error wins over every other. A bare ``0`` is the zero element, as the
printer spells it.
The printer emits this grammar, with terms in basis order and explicit signs,
so printing and reparsing round-trips.
"""

from __future__ import annotations

import re

from .algebra import Element, _key
from .errors import ExpressionSyntaxError, UnknownIdentifier, string
from .fields import QQ, common_denominator
from .graph import IDENT

# Each nesting level costs three stack frames (expr, term, factor), so this
# bound keeps the deepest parse far below the interpreter's recursion limit
# of 1000.
MAX_NESTING = 100

_BAD = re.compile(r"[^\s\dA-Za-z_\-+*/()']")
_TOKENS = re.compile(rf"\d+|{IDENT}|\S")


def _tokens(text):
    """The tokens of text, in one findall call, then '' for the end."""
    return [*_TOKENS.findall(text), ""]


class _Parser:
    def __init__(self, graph, tokens, field):
        self.graph, self.tokens, self.field = graph, tokens, field
        self.i = self.depth = 0

    def token(self):
        """The token at the index, as an error message names it: an int for
        digits, None at the end."""
        tok = self.tokens[self.i]
        return int(tok) if tok.isdecimal() else tok or None

    def expr(self):
        tokens = self.tokens
        negative = tokens[self.i] == "-"
        if negative:
            self.i += 1
        parts = [self.term(negative)]
        op = tokens[self.i]
        while op == "+" or op == "-":
            self.i += 1
            parts.append(self.term(op == "-"))
            op = tokens[self.i]
        return common_denominator(parts)

    def term(self, negative):
        g, field, tokens = self.graph, self.field, self.tokens
        i = self.i
        if tokens[i].isdecimal():
            numerator = -int(tokens[i]) if negative else int(tokens[i])
            i += 1
            if tokens[i] == "/":
                den = tokens[i + 1]
                if not den.isdecimal() or not int(den):
                    raise ExpressionSyntaxError("expected positive integer denominator")
                coeff, d = field.encode(numerator, int(den))
                i += 2
            else:
                coeff, d = field.encode(numerator)
            if tokens[i] != "*":
                if numerator == 0 and not coeff:
                    self.i = i
                    return [], 1
                raise ExpressionSyntaxError("a scalar must multiply a factor")
            i += 1
        else:
            coeff, d = -1 if negative else 1, 1
        vindex, eindex, edges = g._vindex, g._eindex, g.edges
        # the Element of the factors before the pending run; the run folded
        # so far into p q*: the edges of p and of q (q's last to first, so
        # cancelling or prepending one is O(1)), s(p) (None before the first
        # generator; then at = s(q)), and ok, False once the run is 0.
        product, real, ghost, source, ok = None, [], [], None, True
        while True:
            tok = tokens[i]
            e = eindex.get(tok)
            if e is not None or tok in vindex:
                i += 1
                odd = False
                while tokens[i] == "'":
                    i += 1
                    odd = not odd
                if e is None:
                    if source is None:
                        source = at = tok
                    ok = ok and at == tok  # p q* v = p q* iff s(q) = v
                elif ok:
                    _, src, dst = edges[e]
                    if odd:  # p q* e* = p (e q)* iff r(e) = s(q)
                        if source is None:
                            source = at = dst
                        ok, at = at == dst, src
                        ghost.append(tok)
                    elif ghost:  # q = f t: q* e = t* f* e = delta(f, e) t*
                        ok, at = ghost.pop() == tok, dst
                    else:  # q trivial, so s(q) = r(p): p e iff r(p) = s(e)
                        if source is None:
                            source = at = src
                        ok = at == src
                        at = dst
                        real.append(tok)
            else:  # a run ends at the term's end or at a parenthesised factor
                if tok.isidentifier():
                    raise UnknownIdentifier(f"unknown identifier {tok!r} in graph {g.name!r}")
                self.i = i
                value = self.factor()
                i = self.i
                if source is not None:
                    word = ok and (source, tuple(real), at, tuple(reversed(ghost)))
                    value = Element._from_raw(g, field, [(word, 1)] if word else []) * value
                    real, ghost, source, ok = [], [], None, True
                product = value if product is None else product * value
            if tokens[i] != "*":
                break
            i += 1
        self.i = i
        word = source is not None and ok and (source, tuple(real), at, tuple(reversed(ghost)))
        if product is None:
            return ([(word, coeff)] if word else []), d
        if source is not None:
            product = product * Element._from_raw(g, field, [(word, 1)] if word else [])
        return [(k, c * coeff) for k, c in product._flat.items()], product._den * d

    def factor(self):
        """'( expr )' as an Element, starred once per prime."""
        tokens = self.tokens
        if tokens[self.i] != "(":
            raise ExpressionSyntaxError(f"expected identifier or '(', got {self.token()!r}")
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
        value = Element._from_raw(self.graph, self.field, *self.expr())
        if tokens[self.i] != ")":
            raise ExpressionSyntaxError(f"expected ')', got {self.token()!r}")
        self.i += 1
        self.depth -= 1
        while tokens[self.i] == "'":
            self.i += 1
            value = value.star()
        return value


def parse_element(graph, text, field=QQ):
    string(text, "an element expression")
    bad = _BAD.search(text)
    if bad:
        raise ExpressionSyntaxError(f"unexpected character {bad[0]!r} at position {bad.start()}")
    parser = _Parser(graph, _tokens(text), field)
    if not parser.tokens[0]:
        raise ExpressionSyntaxError("empty expression")
    raw, den = parser.expr()
    if parser.tokens[parser.i]:
        raise ExpressionSyntaxError(f"trailing input at token {parser.token()!r}")
    return Element._from_raw(graph, field, raw, den)


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
    flat, den = x._flat, x._den
    if not flat:
        return "0"
    text, vindex, eindex = x.field.text, x.graph._vindex, x.graph._eindex.__getitem__
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
        n = flat[k]  # negative only over QQ: F_p stores residues
        mag = text(abs(n), den)
        body = _spell(k) if mag == "1" else f"{mag}*{_spell(k)}"
        sign = ("- " if out else "-") if n < 0 else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)
