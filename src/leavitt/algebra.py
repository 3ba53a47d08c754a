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
{key: coefficient}, a key being the flat tuple (real source, real edges,
ghost source, ghost edges), so parsing, products, sums and printing build no
Path or Monomial. Its ``terms``, the same form keyed by Monomial, is a new
dict built from the stored form on each read, so no caller can change the
element through it.
"""

from __future__ import annotations

from .errors import GraphMismatch, LimitExceeded, PreconditionError
from .fields import QQ
from .graph import Path, _designated_edges, _path_counts, _paths_ending_in, is_acyclic

MAX_BASIS_PAIRS = 1 << 20  # candidate pairs of paths of one basis enumeration
MAX_PRODUCT_PAIRS = 1 << 20  # pairs of terms one product multiplies before it rewrites


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


def _normal_form(g, pending):
    """The normal form {key: coefficient} of a raw list of (key, coefficient).

    It pops each term c p q* once and pushes nothing back. While p and q end
    in the same designated edge, the edge is cut, and each of its siblings e
    (``graph._designated_edges``) adds -c (p e)(q e)*, a basis key, for what
    is left of p and q; c then goes to what remains. A run of edges without
    siblings is one slice. A list whose ``pop`` takes another term yields the
    same result (the confluence tests pop at random)."""
    result = {}
    designated = _designated_edges(g)
    while pending:
        key, c = term = pending.pop()
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
            acc = c if acc is None else acc + c
            if acc:
                result[k] = acc
            else:
                del result[k]
    return result


class Element:
    """Normal-form element of L_K(E) over an exact field: the normal form of
    (Monomial, coefficient) pairs, or of a dict of them; ``_of`` takes a
    stored form as it is."""

    __slots__ = ("graph", "field", "_flat")

    def __init__(self, graph, field, raw_terms):
        terms = raw_terms.items() if isinstance(raw_terms, dict) else raw_terms
        raw = []
        for m, c in terms:
            if m.graph != graph:
                raise GraphMismatch("monomial over a different graph than the element")
            raw.append((_key(m), c))
        self.graph, self.field = graph, field
        self._flat = _normal_form(graph, raw)

    @classmethod
    def _of(cls, graph, field, flat):
        """The element whose stored normal form is ``flat``, taken as is."""
        x = object.__new__(cls)
        x.graph, x.field, x._flat = graph, field, flat
        return x

    @classmethod
    def _from_raw(cls, graph, field, raw):
        """The normal form of a raw list of (key, coefficient)."""
        return cls._of(graph, field, _normal_form(graph, raw))

    @property
    def terms(self):
        """{Monomial: coefficient}, a new dict built from the stored form on
        each read."""
        return {_monomial(self.graph, k): c for k, c in self._flat.items()}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, graph, field=QQ):
        return cls._of(graph, field, {})

    # Vertices, paths and sums of distinct vertices are normal forms already.

    @classmethod
    def vertex(cls, graph, v, field=QQ):
        graph.vertex_index(v)
        return cls._of(graph, field, {(v, (), v, ()): field.one()})

    @classmethod
    def edge(cls, graph, name, field=QQ):
        e = graph.edge(name)
        return cls._of(graph, field, {(e.src, (name,), e.dst, ()): field.one()})

    @classmethod
    def from_path(cls, path, field=QQ):
        return cls._of(path.graph, field, {(path.source, path.edges, path.range, ()): field.one()})

    @classmethod
    def from_monomial(cls, monomial, field=QQ):
        return cls._from_raw(monomial.graph, field, [(_key(monomial), field.one())])

    @classmethod
    def identity(cls, graph, field=QQ):
        """Sum of all vertex idempotents (the unit when E0 is finite)."""
        one = field.one()
        return cls._of(graph, field, {(v, (), v, ()): one for v in graph.vertices})

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self._flat

    def monomials(self):
        return sorted(self.terms, key=Monomial.sort_key)

    def coefficient(self, monomial):
        zero = self.field.zero()
        return self._flat.get(_key(monomial), zero) if monomial.graph == self.graph else zero

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
        # the stack pops self's terms first, in order, then other's
        raw = [*reversed(other._flat.items()), *reversed(self._flat.items())]
        return Element._from_raw(self.graph, self.field, raw)

    def __neg__(self):
        return Element._of(self.graph, self.field, {k: -c for k, c in self._flat.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return Element.zero(self.graph, self.field)
        return Element._of(self.graph, self.field, {k: c * scalar for k, c in self._flat.items()})

    def __mul__(self, other):
        """(p q*)(r s*) is nonzero only when one of q, r is a prefix of the
        other; relation (3) cancels the overlap. The right factor's terms are
        indexed by s(r), and coefficients multiply and rewrite as integers
        over the factors' common denominators (``field.scaled``). More than
        MAX_PRODUCT_PAIRS pairs of terms are refused before any is multiplied."""
        self._check_compatible(other)
        pairs = len(self._flat) * len(other._flat)
        if pairs > MAX_PRODUCT_PAIRS:
            raise LimitExceeded(f"{pairs} pairs of terms exceed the bound {MAX_PRODUCT_PAIRS}")
        left, d_left = self.field.scaled(self._flat.values())
        right, d_right = self.field.scaled(other._flat.values())
        by_source = {}
        for (source, real, ghost_source, ghost), n in zip(other._flat, right):
            by_source.setdefault(source, []).append((real, len(real), ghost_source, ghost, n))
        raw = []
        for (source, p, ghost_source, q), n in zip(self._flat, left):
            k = len(q)
            for r, j, s_source, s, m in by_source.get(ghost_source, ()):
                if k <= j:
                    if r[:k] == q:  # r = q t: the product is (p t) s*
                        raw.append(((source, p + r[k:], s_source, s), n * m))
                elif q[:j] == r:  # q = r t: the product is p (s t)*
                    raw.append(((source, p, s_source, s + q[j:]), n * m))
        d, flat = d_left * d_right, _normal_form(self.graph, raw)
        # the integer sums become scalars in place; over F_p some vanish
        from_fraction, vanished = self.field.from_fraction, []
        for k, n in flat.items():
            flat[k] = c = from_fraction(n, d)
            if not c:
                vanished.append(k)
        for k in vanished:
            del flat[k]
        return Element._of(self.graph, self.field, flat)

    def star(self):
        """The involution p q* -> q p*, extended linearly."""
        flat = {(gs, ge, rs, re): c for (rs, re, gs, ge), c in self._flat.items()}
        return Element._of(self.graph, self.field, flat)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.field == other.field
            and self._flat == other._flat
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
    for k, c in x._flat.items():
        parts.setdefault(len(k[1]) - len(k[3]), {})[k] = c
    return {n: Element._of(x.graph, x.field, flat) for n, flat in sorted(parts.items())}


def is_in_path_algebra(x):
    """True iff the normal form uses pure paths only.

    Sound and complete: pure paths are irreducible, and the rewrite rule
    removes every eliminable ghost (e.g. the full sum ee* collapses to its
    vertex), so an element lies in KE exactly when no ghost survives.
    """
    return not any(k[3] for k in x._flat)


def paths_up_to(g, length):
    """All paths of length <= bound, deterministic order (by sort key)."""
    levels = zip(range(max(length, 0) + 1), _paths_ending_in(g, g.vertices))
    out = [p for _, level in levels for p in level]
    out.sort(key=Path.sort_key)
    return out


def basis_monomials_up_to(g, d):
    """All basis monomials with l(p) + l(q) <= d, by total length then key.
    Off the backward levels, paths of lengths a and b <= d - a into one vertex pair.
    More than MAX_BASIS_PAIRS such pairs are refused before any is built."""
    if d < 0:
        raise PreconditionError("degree bound must be nonnegative")
    if _basis_pair_count(g, d) > MAX_BASIS_PAIRS:
        raise LimitExceeded(f"path pairs of total length <= {d} exceed the bound {MAX_BASIS_PAIRS}")
    by_range, out = {}, []
    for a, level in zip(range(d + 1), _paths_ending_in(g, g.vertices)):
        for p in level:
            by_range.setdefault(p.range, {}).setdefault(a, []).append(p)
    for lengths in by_range.values():
        for a, ps in lengths.items():
            for b, qs in lengths.items():  # lengths ascend
                if a + b > d:
                    break
                out += [m for p in ps for q in qs if (m := Monomial._trusted(p, q)).is_basis()]
    out.sort(key=lambda m: (m.total_length, m.sort_key()))
    return out


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
