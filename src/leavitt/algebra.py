"""Exact elements of the path algebra KE and the Leavitt path algebra L_K(E).

An element is a finitely supported combination of monomials p q* (real path
p, ghost path q, equal ranges). The defining relations:

    (1) s(e) e = e r(e) = e
    (2) r(e) e* = e* s(e) = e*
    (3) e* e' = delta_{e,e'} r(e)
    (4) v = sum_{s(e)=v} e e*        for every emitting vertex v

(3) and (4) are the Cuntz-Krieger relations. Relations (1)-(3) are handled
structurally by the monomial product; (4) is oriented into a rewrite rule
to obtain canonical normal forms:

    (p f)(q f)*  ->  p q*  -  sum_{e != f, s(e)=s(f)} (p e)(q e)*

where f is the DESIGNATED edge of its source (the last one in declaration
order). A monomial is a basis monomial iff it is not of the left-hand shape.
Each application shortens the only possibly-reducible descendant by two,
so rewriting terminates; distinct monomials rewrite independently, so the
normal form does not depend on the rewrite order (the test suite checks
this with randomized strategies). When f is the only edge out of s(f) the
sum is empty, so a run of such common last edges is stripped in one step.

Elements are immutable and always kept in normal form; equality of elements
is equality of their normal forms.
"""

from __future__ import annotations

from itertools import islice

from .errors import GraphMismatch, PreconditionError
from .fields import QQ
from .graph import Path, _designated_edges, _paths_ending_in, is_acyclic


class Monomial:
    """p q* with r(p) = r(q). Ghost part trivial means a pure path.

    ``Monomial(...)`` checks the graph and the ranges; ``_trusted`` checks
    nothing and serves monomials the kernel derives from valid ones.
    """

    __slots__ = ("real", "ghost")

    def __init__(self, real, ghost):
        if real.graph != ghost.graph:
            raise GraphMismatch("monomial parts over different graphs")
        if real.range != ghost.range:
            raise PreconditionError(
                f"monomial parts must share a range: {real.range!r} vs {ghost.range!r}"
            )
        self.real = real
        self.ghost = ghost

    @classmethod
    def _trusted(cls, real, ghost):
        m = object.__new__(cls)
        m.real, m.ghost = real, ghost
        return m

    @property
    def graph(self):
        return self.real.graph

    @property
    def degree(self):
        return self.real.length - self.ghost.length

    @property
    def total_length(self):
        return self.real.length + self.ghost.length

    @property
    def is_vertex(self):
        return self.real.is_trivial and self.ghost.is_trivial

    @property
    def is_pure_path(self):
        return self.ghost.is_trivial

    def star(self):
        return Monomial._trusted(self.ghost, self.real)

    def is_basis(self):
        """False exactly when both parts end in the same designated edge."""
        real, ghost = self.real.edges, self.ghost.edges
        if not real or not ghost or real[-1] != ghost[-1]:
            return True
        return real[-1] not in _designated_edges(self.graph)

    def sort_key(self):
        return (self.real.sort_key(), self.ghost.sort_key())

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.real == other.real and self.ghost == other.ghost

    def __hash__(self):
        return hash((self.real.source, self.real.edges, self.ghost.source, self.ghost.edges))

    def __repr__(self):
        return f"Monomial({self.real!r}, {self.ghost!r})"


def _reduce_once(m, coeff):
    """One application of the rewrite rule to a non-basis monomial.

    Returns (shorter_term, irreducible_terms): the shorter descendant may
    need further rewriting, the siblings end in a non-designated edge and
    are basis monomials already. An edge that is the only one out of its
    source has no siblings, so a run of such common last edges is stripped
    in one cut.
    """
    g = m.graph
    real, ghost = m.real, m.ghost
    f = g.edges[g._eindex[real.edges[-1]]]
    exits, at, k = g._out[f.src], f.src, 1
    if len(exits) == 1:
        n = min(real.length, ghost.length)
        while k < n and real.edges[-1 - k] == ghost.edges[-1 - k]:
            src = g.edges[g._eindex[real.edges[-1 - k]]].src
            if len(g._out[src]) != 1:
                break
            at, k = src, k + 1

    def cut(tail, end):
        return Monomial._trusted(
            Path._trusted(g, real.source, real.edges[:-k] + tail, end),
            Path._trusted(g, ghost.source, ghost.edges[:-k] + tail, end),
        )

    siblings = [(cut((e.name,), e.dst), -coeff) for e in exits if e != f]
    return (cut((), at), coeff), siblings


def normalize_terms(graph, terms, chooser=None):
    """Rewrite a raw term list to the canonical basis-monomial combination.

    ``terms`` is an iterable of (Monomial, coefficient). ``chooser`` picks
    which pending term to rewrite next (given the current list); the
    default works the list as a stack, last in first out, which keeps it as
    short as a depth-first walk of the rewrite tree. Any chooser yields the
    same result -- the confluence tests exercise this with randomized
    choosers.
    """
    result = {}
    pending = list(terms)
    designated = _designated_edges(graph)
    while pending:
        m, c = pending.pop() if chooser is None else pending.pop(chooser(pending))
        if not c:
            continue
        real, ghost = m.real.edges, m.ghost.edges  # the test of Monomial.is_basis
        if not real or not ghost or real[-1] != ghost[-1] or real[-1] not in designated:
            acc = result.get(m)
            acc = c if acc is None else acc + c
            if acc:
                result[m] = acc
            else:
                del result[m]
        else:
            shorter, siblings = _reduce_once(m, c)
            pending.append(shorter)
            pending.extend(siblings)
    return result


def _monomial_product(a, b):
    """(p q*)(r s*) as a list of at most one raw term.

    Nonzero only when one of q, r is a prefix of the other; the Cuntz-Krieger
    relation (3) cancels the overlap.
    """
    q, r = a.ghost, b.real
    n = min(len(q.edges), len(r.edges))
    if q.source != r.source or q.edges[:n] != r.edges[:n]:
        return []
    if n == len(q.edges):  # r = q t: the product is (p t) s*
        p = a.real
        pt = Path._trusted(p.graph, p.source, p.edges + r.edges[n:], r.range)
        return [Monomial._trusted(pt, b.ghost)]
    s = b.ghost  # q = r t: the product is p (s t)*
    st = Path._trusted(s.graph, s.source, s.edges + q.edges[n:], q.range)
    return [Monomial._trusted(a.real, st)]


class Element:
    """Normal-form element of L_K(E) over an exact field."""

    __slots__ = ("graph", "field", "terms")

    def __init__(self, graph, field, raw_terms, _normal=False):
        self.graph = graph
        self.field = field
        if _normal:
            self.terms = dict(raw_terms)
        else:
            if isinstance(raw_terms, dict):
                raw_terms = raw_terms.items()
            self.terms = normalize_terms(graph, raw_terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, graph, field=QQ):
        return cls(graph, field, {}, _normal=True)

    # Vertices, paths and sums of distinct vertices are normal forms already.

    @classmethod
    def vertex(cls, graph, v, field=QQ):
        t = Path.trivial(graph, v)
        return cls(graph, field, {Monomial._trusted(t, t): field.one()}, _normal=True)

    @classmethod
    def edge(cls, graph, name, field=QQ):
        e = graph.edge(name)
        p, t = Path._trusted(graph, e.src, (name,), e.dst), Path._trusted(graph, e.dst, (), e.dst)
        return cls(graph, field, {Monomial._trusted(p, t): field.one()}, _normal=True)

    @classmethod
    def ghost_edge(cls, graph, name, field=QQ):
        return cls.edge(graph, name, field).star()

    @classmethod
    def from_path(cls, path, field=QQ):
        t = Path.trivial(path.graph, path.range)
        return cls(path.graph, field, {Monomial(path, t): field.one()}, _normal=True)

    @classmethod
    def from_monomial(cls, monomial, field=QQ, coeff=None):
        c = field.one() if coeff is None else coeff
        return cls(monomial.graph, field, [(monomial, c)])

    @classmethod
    def identity(cls, graph, field=QQ):
        """Sum of all vertex idempotents (the unit when E0 is finite)."""
        ts = (Path.trivial(graph, v) for v in graph.vertices)
        return cls(graph, field, {Monomial._trusted(t, t): field.one() for t in ts}, _normal=True)

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def monomials(self):
        return [m for m, _ in self.sorted_terms()]

    def coefficient(self, monomial):
        return self.terms.get(monomial, self.field.zero())

    def support_size(self):
        return len(self.terms)

    def real_degree(self):
        """Maximal real path length across the normal form (0 for zero)."""
        return max((m.real.length for m in self.terms), default=0)

    def ghost_degree(self):
        """Maximal ghost path length across the normal form (0 for zero)."""
        return max((m.ghost.length for m in self.terms), default=0)

    def total_degree(self):
        return max((m.total_length for m in self.terms), default=0)

    def _check_compatible(self, other):
        if not isinstance(other, Element):
            raise GraphMismatch(f"cannot combine Element with {type(other).__name__}")
        if self.graph != other.graph:
            raise GraphMismatch("elements over different graphs")
        if self.field != other.field:
            raise GraphMismatch("elements over different fields")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            acc = c if acc is None else acc + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return Element(self.graph, self.field, terms, _normal=True)

    def __neg__(self):
        return Element(
            self.graph, self.field, {m: -c for m, c in self.terms.items()}, _normal=True
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return Element.zero(self.graph, self.field)
        return Element(
            self.graph, self.field, {m: c * scalar for m, c in self.terms.items()}, _normal=True
        )

    def __rmul__(self, scalar):
        if isinstance(scalar, Element):
            return NotImplemented
        return self.scale(self.field.from_int(scalar) if isinstance(scalar, int) else scalar)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        raw = []
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                for m in _monomial_product(ma, mb):
                    raw.append((m, ca * cb))
        return Element(self.graph, self.field, raw)

    def star(self):
        """The involution p q* -> q p*, extended linearly."""
        return Element(
            self.graph,
            self.field,
            {m.star(): c for m, c in self.terms.items()},
            _normal=True,
        )

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.field == other.field
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        from .expressions import format_element

        return f"<Element {format_element(self)}>"


# ---------------------------------------------------------------------------
# Module operations


def homogeneous_components(x):
    """Split by Z-degree l(p) - l(q); the parts sum back to x."""
    parts = {}
    for m, c in x.terms.items():
        parts.setdefault(m.degree, {})[m] = c
    return {
        n: Element(x.graph, x.field, terms, _normal=True)
        for n, terms in sorted(parts.items())
    }


def is_in_path_algebra(x):
    """True iff the normal form uses pure paths only.

    Sound and complete: pure paths are irreducible, and the rewrite rule
    removes every eliminable ghost (e.g. the full sum ee* collapses to its
    vertex), so an element lies in KE exactly when no ghost survives.
    """
    return all(m.is_pure_path for m in x.terms)


def paths_up_to(g, length):
    """All paths of length <= bound, deterministic order (by sort key)."""
    levels = islice(_paths_ending_in(g, g.vertices), max(length, 0) + 1)
    out = [p for level in levels for p in level]
    out.sort(key=Path.sort_key)
    return out


def basis_monomials_up_to(g, d):
    """All basis monomials with l(p) + l(q) <= d, sorted by total length then key."""
    if d < 0:
        raise PreconditionError("degree bound must be nonnegative")
    by_range = {}
    for p in paths_up_to(g, d):
        by_range.setdefault(p.range, []).append(p)
    out = []
    for _, group in sorted(by_range.items(), key=lambda kv: g.vertex_index(kv[0])):
        for p in group:
            for q in group:
                if p.length + q.length <= d:
                    m = Monomial(p, q)
                    if m.is_basis():
                        out.append(m)
    out.sort(key=lambda m: (m.total_length, m.sort_key()))
    return out


def full_basis(g):
    """All basis monomials of a finite acyclic graph.

    Path lengths are bounded by the vertex count, so the enumeration bound
    2*(|E0| - 1) is exhaustive.
    """
    if not is_acyclic(g):
        raise PreconditionError("full_basis requires an acyclic graph")
    return basis_monomials_up_to(g, 2 * max(len(g.vertices) - 1, 0))
