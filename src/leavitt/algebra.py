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
The siblings (p e)(q e)* are basis monomials and p q* is shorter by two, so
rewriting terminates; each term expands in one loop over the designated last
edges its parts share. Distinct monomials rewrite independently, so the
normal form does not depend on the order the terms are taken in (the test
suite checks this with randomized strategies).

Elements are immutable and always kept in normal form; equality of elements
is equality of their normal forms. An element stores its normal form as
{key: integer} over one denominator ``_den``, in its field's canonical
encoding (``fields``), a key being the flat tuple (real source, real edges,
ghost source, ghost edges). So parsing, products, sums and printing build no
Path, no Monomial and no scalar, and the kernel adds ints. A ``Fraction`` or
``PrimeFieldElement`` is built only where a caller reads a coefficient:
``terms`` (a new dict on each read, keyed by Monomial), ``coefficient``, and
the matrix, window and Laurent images.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import GraphMismatch, PreconditionError, charge, size
from .fields import QQ, common_denominator
from .graph import Path, _designated_edges, _path_counts, _path_edges, _paths_ending_in, is_acyclic

MAX_BASIS_PAIRS = 1 << 20  # candidate pairs of paths of one basis enumeration
MAX_PRODUCT_PAIRS = 1 << 20  # pairs of terms one product multiplies before it rewrites
MAX_PATH_EDGES = 1 << 25  # edges in all the paths of one paths_up_to listing


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


def _key(m):
    """A monomial's stored key: (real source, real edges, ghost source, ghost edges)."""
    return (m.real.source, m.real.edges, m.ghost.source, m.ghost.edges)


def _range(g, key):
    """r(p) of a stored key (p's source, p, q's source, q); r(q) is the same."""
    real = key[1]
    return g.edges[g._eindex[real[-1]]].dst if real else key[0]


def _monomial(g, key):
    """The Monomial of a stored key; both parts end at r(p)."""
    source, real, ghost_source, ghost = key
    at = _range(g, key)
    real, ghost = Path._trusted(g, source, real, at), Path._trusted(g, ghost_source, ghost, at)
    return Monomial._trusted(real, ghost)


def _normal_form(g, terms, modulus=0):
    """The normal form {key: coefficient} of an iterable of (key, coefficient).

    It takes each term c p q* once. While p and q end in the same designated
    edge, the edge is cut, and each of its siblings e
    (``graph._designated_edges``) adds -c (p e)(q e)*, a basis key, for what
    is left of p and q; c then goes to what remains. A run of edges without
    siblings is one slice. A sum is dropped when it is 0 or a multiple of the
    prime modulus given. Another order of the terms gives the same result."""
    result = {}
    designated = _designated_edges(g)
    for term in terms:
        key, c = term
        if not c:
            continue
        source, real, ghost_source, ghost = key
        if real and ghost and real[-1] == ghost[-1] and real[-1] in designated:
            i, j, basis, neg = len(real), len(ghost), [], -c
            while i and j and real[i - 1] == ghost[j - 1] and real[i - 1] in designated:
                i, j = i - 1, j - 1
                siblings = designated[real[i]]
                if siblings:
                    p, q = real[:i], ghost[:j]
                    for e in reversed(siblings):  # last declared first, as the tests pin
                        basis.append(((source, p + (e,), ghost_source, q + (e,)), neg))
            basis.append(((source, real[:i], ghost_source, ghost[:j]), c))
        else:
            basis = (term,)
        for k, c in basis:
            acc = result.get(k)
            if acc is not None:
                c += acc
                if not (c % modulus if modulus else c):
                    del result[k]
                    continue
            result[k] = c
    return result


class Element:
    """Normal-form element of L_K(E) over an exact field: the normal form of
    (Monomial, coefficient) pairs, or of a dict of them, each coefficient an int,
    a Fraction or a scalar of the field; ``_of`` takes a stored form as it is."""

    __slots__ = ("graph", "field", "_flat", "_den")

    def __init__(self, graph, field, raw_terms):
        terms = raw_terms.items() if isinstance(raw_terms, dict) else raw_terms
        raw, den = field.encode_terms(terms)
        if any(m.graph != graph for m, _ in raw):
            raise GraphMismatch("monomial over a different graph than the element")
        x = Element._from_raw(graph, field, [(_key(m), n) for m, n in raw], den)
        self.graph, self.field, self._flat, self._den = graph, field, x._flat, x._den

    @classmethod
    def _of(cls, graph, field, flat, den=1):
        """The element whose stored, canonical normal form is ``flat`` over ``den``."""
        x = object.__new__(cls)
        x.graph, x.field, x._flat, x._den = graph, field, flat, den
        return x

    @classmethod
    def _from_raw(cls, graph, field, raw, den=1):
        """The normal form of a raw list of (key, integer) over den, taken last first."""
        flat = _normal_form(graph, reversed(raw), field.characteristic)
        return cls._of(graph, field, *field.canonical(flat, den))

    @property
    def terms(self):
        """{Monomial: coefficient}, a new dict on each read."""
        g, scalar, den = self.graph, self.field.scalar, self._den
        return {_monomial(g, k): scalar(n, den) for k, n in self._flat.items()}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, graph, field=QQ):
        return cls._of(graph, field, {})

    # Vertices, paths and sums of distinct vertices are normal forms already.

    @classmethod
    def vertex(cls, graph, v, field=QQ):
        graph.vertex_index(v)
        return cls._of(graph, field, {(v, (), v, ()): 1})

    @classmethod
    def edge(cls, graph, name, field=QQ):
        e = graph.edge(name)
        return cls._of(graph, field, {(e.src, (name,), e.dst, ()): 1})

    @classmethod
    def from_path(cls, path, field=QQ):
        return cls._of(path.graph, field, {(path.source, path.edges, path.range, ()): 1})

    @classmethod
    def from_monomial(cls, monomial, field=QQ):
        return cls._from_raw(monomial.graph, field, [(_key(monomial), 1)])

    @classmethod
    def identity(cls, graph, field=QQ):
        """Sum of all vertex idempotents (the unit when E0 is finite)."""
        return cls._of(graph, field, {(v, (), v, ()): 1 for v in graph.vertices})

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self._flat

    def monomials(self):
        return sorted(self.terms, key=Monomial.sort_key)

    def coefficient(self, monomial):
        n = self._flat.get(_key(monomial)) if monomial.graph == self.graph else None
        return self.field.zero() if n is None else self.field.scalar(n, self._den)

    def support_size(self):
        return len(self._flat)

    def real_degree(self):
        """Maximal real path length across the normal form (0 for zero)."""
        return max((len(k[1]) for k in self._flat), default=0)

    def ghost_degree(self):
        """Maximal ghost path length across the normal form (0 for zero)."""
        return max((len(k[3]) for k in self._flat), default=0)

    def total_degree(self):
        return max((len(k[1]) + len(k[3]) for k in self._flat), default=0)

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
        # the kernel takes self's terms first, in order, then other's
        parts = [(list(reversed(x._flat.items())), x._den) for x in (other, self)]
        return Element._from_raw(self.graph, self.field, *common_denominator(parts))

    def __neg__(self):
        flat = {k: -n for k, n in self._flat.items()}
        return Element._of(self.graph, self.field, *self.field.canonical(flat, self._den))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """x times an int, a Fraction or a scalar of x's field."""
        n, d = self.field.coerce(scalar)
        flat = {k: c * n for k, c in self._flat.items()} if n else {}
        return Element._of(self.graph, self.field, *self.field.canonical(flat, self._den * d))

    def __mul__(self, other):
        """(p q*)(r s*) is nonzero only when one of q, r is a prefix of the
        other; relation (3) cancels the overlap. The right factor's terms are
        indexed by s(r); numerators multiply over the product of the dens, and
        the kernel takes the pairs as they are made, with no list of them,
        then its integer sums are put in canonical form. More than
        MAX_PRODUCT_PAIRS pairs of terms are refused before any is multiplied."""
        self._check_compatible(other)
        pairs = len(self._flat) * len(other._flat)
        charge(pairs, MAX_PRODUCT_PAIRS, "{count} pairs of terms exceed the bound {bound}")
        by_source = {}  # each source's terms, last first
        for (source, real, ghost_source, ghost), n in reversed(other._flat.items()):
            by_source.setdefault(source, []).append((real, len(real), ghost_source, ghost, n))
        flat = _normal_form(self.graph, _pair_products(self._flat, by_source))
        den = self._den * other._den
        return Element._of(self.graph, self.field, *self.field.canonical(flat, den))

    def star(self):
        """The involution p q* -> q p*, extended linearly."""
        flat = {(gs, ge, rs, re): c for (rs, re, gs, ge), c in self._flat.items()}
        return Element._of(self.graph, self.field, flat, self._den)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        same = self.graph == other.graph and self.field == other.field
        return same and self._den == other._den and self._flat == other._flat

    __hash__ = None

    def __repr__(self):
        from .expressions import format_element

        return f"<Element {format_element(self)}>"


def _pair_products(left, by_source):
    """The nonzero products (p q*)(r s*) of the factors' terms, last first."""
    for (source, p, ghost_source, q), n in reversed(left.items()):
        k = len(q)
        for r, j, s_source, s, m in by_source.get(ghost_source, ()):
            if k <= j:
                if r[:k] == q:  # r = q t: the product is (p t) s*
                    yield (source, p + r[k:], s_source, s), n * m
            elif q[:j] == r:  # q = r t: the product is p (s t)*
                yield (source, p, s_source, s + q[j:]), n * m


# ---------------------------------------------------------------------------
# Module operations


def homogeneous_components(x):
    """Split by Z-degree l(p) - l(q); the parts sum back to x."""
    parts = {}
    for k, c in x._flat.items():
        parts.setdefault(len(k[1]) - len(k[3]), {})[k] = c
    return {n: Element._of(x.graph, x.field, *x.field.canonical(flat, x._den))
            for n, flat in sorted(parts.items())}


def is_in_path_algebra(x):
    """True iff the normal form uses pure paths only.

    Sound and complete: pure paths are irreducible, and the rewrite rule
    removes every eliminable ghost (e.g. the full sum ee* collapses to its
    vertex), so an element lies in KE exactly when no ghost survives.
    """
    return not any(k[3] for k in x._flat)


def paths_up_to(g, length):
    """All paths of length <= bound, deterministic order (by sort key). Paths
    of more than MAX_PATH_EDGES edges in all are refused before any is built."""
    size(length, 0, "path length bound must be nonnegative")
    charge(_path_edges(_path_counts(g, g.vertices, backwards=True), length, MAX_PATH_EDGES),
           MAX_PATH_EDGES, "paths of length <= {length} exceed {bound} edges", length=length)
    levels = zip(range(length + 1), _paths_ending_in(g, g.vertices))
    out = [p for _, level in levels for p in level]
    out.sort(key=Path.sort_key)
    return out


def basis_monomials_up_to(g, d):
    """All basis monomials with l(p) + l(q) <= d, by total length then key.
    Off the backward levels, paths of lengths a and b <= d - a into one vertex pair.
    More than MAX_BASIS_PAIRS such pairs are refused before any is built."""
    size(d, 0, "degree bound must be nonnegative")
    charge(_basis_pair_count(g, d), MAX_BASIS_PAIRS,
           "path pairs of total length <= {d} exceed the bound {bound}", d=d)
    by_range, out = {}, []  # each path with its sort key, made once per path
    for a, level in zip(range(d + 1), _paths_ending_in(g, g.vertices)):
        for p in level:
            by_range.setdefault(p.range, {}).setdefault(a, []).append((p, p.sort_key()))
    for lengths in by_range.values():
        for a, ps in lengths.items():
            for b, qs in lengths.items():  # lengths ascend
                if a + b > d:
                    break
                out += [((a + b, kp, kq), m) for p, kp in ps for q, kq in qs
                        if (m := Monomial._trusted(p, q)).is_basis()]
    out.sort(key=itemgetter(0))  # (m.total_length, m.sort_key()), flattened
    return [m for _, m in out]


def _basis_pair_count(g, d):
    """The pairs (p, q) with r(p) = r(q) and l(p) + l(q) <= d, counted before
    any path is built, and only until they pass MAX_BASIS_PAIRS. The counts
    are those of the paths of each length k into each vertex; sums[v][j + 1]
    counts those of length <= j. A path of length k pairs both ways round with
    those of length <= min(k, d - k) into its range, less the pairs of two
    paths of length k counted twice."""
    sums, pairs = {v: [0] for v in g.vertices}, 0
    for k, level in zip(range(d + 1), _path_counts(g, g.vertices)):
        for v, n in level.items():
            s = sums[v]
            s += [s[-1]] * (k + 1 - len(s))  # lengths with no path into v
            s.append(s[-1] + n)
            pairs += n * (2 * s[min(k, d - k) + 1] - (n if 2 * k <= d else 0))
        if pairs > MAX_BASIS_PAIRS:
            break
    return pairs


def full_basis(g):
    """All basis monomials of a finite acyclic graph.

    Path lengths are bounded by the vertex count, so the enumeration bound
    2*(|E0| - 1) is exhaustive.
    """
    if not is_acyclic(g):
        raise PreconditionError("full_basis requires an acyclic graph")
    return basis_monomials_up_to(g, 2 * max(len(g.vertices) - 1, 0))
