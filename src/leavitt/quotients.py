"""Graded-ideal machinery: quotient graphs, socle membership, restriction
graphs, and the constructive right-denominator search.

For a hereditary saturated H, the quotient graph E/H keeps the vertices
outside H and the edges whose range survives; the induced morphism pi keeps
a term exactly when its range lies outside H, then renormalizes in E/H.
Membership in the graded ideal I(H) is decided as membership in ker(pi):
normal-form monomials of I(H) elements can have ranges outside H (rewriting
at a vertex with edges leaving H moves ranges), so the ranges alone would
be wrong, while the renormalized kernel test is exact.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Element, _range, is_in_path_algebra
from .errors import PreconditionError, charge, size
from .graph import (
    Graph,
    Path,
    hereditary_saturated_closure,
    line_points,
    _as_members,
    _closure_of,
    _graph_fact,
    _hereditary,
    _path_counts,
    _path_edges,
    _paths_ending_in,
    _saturated,
)


MAX_ENTRY_EDGES = 1 << 21  # edges in all the entry paths of one restriction graph


def _require_hereditary(g, H):
    members = _as_members(g, H)
    if not _hereditary(g, members):
        raise PreconditionError("H is not hereditary")
    return members


def quotient_graph(g, H):
    """E/H: drop H and every edge with range in H.

    Hereditarity guarantees surviving edges have surviving sources, so the
    graph is well-formed for any hereditary H; the induced MORPHISM below
    additionally needs H saturated. With H empty the graph itself is
    returned.
    """
    return _quotient_of(g, _require_hereditary(g, H))


def _quotient_of(g, members):
    """E/H for the members of an H already known to be hereditary."""
    if not members:
        return g
    vertices = [v for v in g.vertices if v not in members]
    edges = [e for e in g.edges if e.dst not in members]
    name = f"{g.name}_mod_" + "_".join(v for v in g.vertices if v in members)
    return Graph(name, vertices, edges)


def quotient_morphism(x, H):
    """pi(x) in L_K(E/H): kill H and edges into H, renormalize in E/H.

    H must be saturated as well as hereditary, otherwise killing H breaks
    relation (4) at a vertex feeding only into H and the generator map is
    no algebra morphism at all. Both are checked, by the rules of
    is_hereditary and is_saturated, before E/H is built. The designated
    edges of E/H generally differ from those of E, so the image is
    rewritten in the target before being returned.
    """
    g = x.graph
    members = _require_hereditary(g, H)
    if not _saturated(g, members):
        raise PreconditionError("H is not saturated")
    return _quotient_image(x, _quotient_of(g, members))


def _quotient_image(x, target):
    """pi(x) in L_K(target), for target = E/H with H hereditary saturated;
    the caller vouches for H. A term p q* survives iff r(p) lies outside H:
    a vertex of H reaches only H, so a path ending outside H never meets it."""
    if target == x.graph:
        return x
    g, kept = x.graph, target._vindex
    raw = [(k, c) for k, c in x._flat.items() if _range(g, k) in kept]
    return Element._from_raw(target, x.field, raw, x._den)


def in_graded_ideal(x, H):
    """Membership in I(H), the graded ideal generated by the vertices of H."""
    return quotient_morphism(x, H).is_zero()


@_graph_fact
def socle_quotient(g):
    """(H, E/H) for H the hereditary saturated closure of the line points,
    so that Soc(L_K(E)) = I(H): H generates the socle."""
    H = hereditary_saturated_closure(g, line_points(g))
    return H, _quotient_of(g, H)


def in_socle(x):
    """Membership in Soc(L_K(E)) = I(closure of the line points). The
    closure is hereditary and saturated by construction, so the image is
    taken without checking it again."""
    return _quotient_image(x, socle_quotient(x.graph)[1]).is_zero()


# ---------------------------------------------------------------------------
# Restriction graph


class RestrictionGraph:
    """The graph HE built from a nonempty hereditary saturated H.

    Vertices are H plus one fresh vertex per path entering H from outside
    (source outside H, interior ranges outside H, final range inside);
    edges are the E-edges starting in H plus one fresh edge from each
    path-vertex to its range. Fresh names are ``path:<edges joined by .>``
    and ``bar:<same>``: collision-free and human-readable.

    H needs to be nonempty and hereditary; saturation is not required (the
    construction and the embedding below are sound without it, and the
    realized ideal I(H) coincides with I(closure(H))).

    The path family is infinite whenever a cycle feeds H, so construction
    takes a length bound; ``complete`` records whether the bound exhausted
    the family (no qualifying path of length bound+1 exists, which rules
    out all longer ones since qualifying paths are suffix-closed).
    """

    __slots__ = ("source", "H", "graph", "entry_paths", "bound", "complete", "_path_for", "_quotient")

    def __init__(self, source, H, graph, entry_paths, bound, complete):
        self.source = source
        self.H = H
        self.graph = graph
        self.entry_paths = entry_paths
        self.bound = bound
        self.complete = complete
        # fresh vertex name -> entry path, for the embedding
        self._path_for = {self.vertex_for(p): p for p in entry_paths}
        # E/closure(H), whose kernel is I(H) = I(closure(H)), for the embedding's check
        self._quotient = _quotient_of(source, _closure_of(source, H))

    @staticmethod
    def vertex_for(path):
        return "path:" + ".".join(path.edges)

    @staticmethod
    def bar_edge_for(path):
        return "bar:" + ".".join(path.edges)

    def __repr__(self):
        return f"RestrictionGraph({self.graph.name!r}, complete={self.complete})"


def _entry_paths(g, members, length):
    """Qualifying paths of length <= bound (s outside H, interior outside, r
    inside), grown backwards from H, and whether none has length bound+1.
    They are counted first, and refused past MAX_ENTRY_EDGES edges in all
    before any is built. The sort fixes their order, whatever the order of members."""
    outside = lambda w: w not in members
    counts = _path_counts(g, members, backwards=True, keep=outside)
    charge(_path_edges(counts, length, MAX_ENTRY_EDGES), MAX_ENTRY_EDGES,
           "entry paths of length <= {length} exceed {bound} edges", length=length)
    complete = next(counts, None) is None
    levels = _paths_ending_in(g, members, keep=outside)
    next(levels)  # the trivial paths
    out = [p for _, level in zip(range(length), levels) for p in level]
    out.sort(key=lambda p: (p.length, p.sort_key()))
    return out, complete


def restriction_graph(g, H, bound):
    members = _require_hereditary(g, H)
    if not members:
        raise PreconditionError("restriction graph needs a nonempty H")
    size(bound, 1, "length bound must be at least 1")
    paths, complete = _entry_paths(g, members, bound)
    h_order = [v for v in g.vertices if v in members]
    vertices = h_order + [RestrictionGraph.vertex_for(p) for p in paths]
    edges = [(e.name, e.src, e.dst) for e in g.edges if e.src in members]
    edges += [
        (RestrictionGraph.bar_edge_for(p), RestrictionGraph.vertex_for(p), p.range)
        for p in paths
    ]
    built = Graph(f"{g.name}_restrict", vertices, edges)
    return RestrictionGraph(g, members, built, tuple(paths), bound, complete)


def restriction_embedding(rg, y):
    """Image in L_K(E) of an element over the restriction graph.

    Generator images: u in H -> u; path-vertex for alpha -> alpha alpha*;
    E-edge -> itself; bar edge for alpha -> alpha. So each monomial maps to
    one monomial: a path from the path-vertex for alpha to alpha followed
    by its E-edges after the bar edge (its trivial path to alpha on both
    sides), every other path to itself. The image always lands in I(H)
    (the embedding realizes I(H) inside L_K(E)); this is asserted because
    it is cheap and any failure would mean a bug.
    """
    if y.graph != rg.graph:
        raise PreconditionError("element is not over this restriction graph")
    path_for = rg._path_for

    def image(source, edges):
        alpha = path_for.get(source)
        return (source, edges) if alpha is None else (alpha.source, alpha.edges + edges[1:])

    raw = [(image(rs, re) + image(gs, ge), c) for (rs, re, gs, ge), c in y._flat.items()]
    total = Element._from_raw(rg.source, y.field, raw, y._den)
    assert _quotient_image(total, rg._quotient).is_zero(), "embedding image escaped I(H)"
    return total


# ---------------------------------------------------------------------------
# Right denominators


# Search transcript for an algebra-of-right-quotients denominator.
DenominatorWitness = namedtuple("DenominatorWitness", "r mu extensions p_times_r q_times_r")


def _mu_candidates(p):
    """Paths mu that can make p*mu a nonzero path-algebra element.

    A monomial (a b*) mu is nonzero only when mu is a prefix or an extension
    of the ghost path b, so ghost paths of the normal form, their prefixes,
    and their edge extensions up to the ghost degree exhaust the search
    space. Ghost paths are tried longest first, then extensions breadth
    first with edges in declaration order.
    """
    g = p.graph
    bound = p.ghost_degree()
    ghosts = sorted(
        {Path._trusted(g, k[2], k[3], _range(g, k)) for k in p._flat},
        key=lambda q: (-q.length, q.sort_key()),
    )
    seen = set()
    for q in ghosts:
        for cut in range(q.length, -1, -1):
            at = q.range if cut == q.length else g.edges[g._eindex[q.edges[cut]]].src
            prefix = Path._trusted(g, q.source, q.edges[:cut], at)
            if prefix not in seen:
                seen.add(prefix)
                yield prefix
    frontier = list(ghosts)
    while frontier:
        nxt = []
        for q in frontier:
            if q.length >= bound:
                continue
            for e in g._out[q.range]:
                ext = Path._trusted(g, q.source, q.edges + (e.name,), e.dst)
                if ext not in seen:
                    seen.add(ext)
                    yield ext
                nxt.append(ext)
        frontier = nxt


def denominator_search(p, q):
    """The constructive procedure behind the right-quotient property.

    Stage 1 finds a path mu with p*mu a nonzero element of KE. Stage 2
    extends mu by edges h1, h2, ... (first out-edge in declaration order)
    until q*mu*h1...hj lands in KE; each extension strictly lowers the
    ghost degree of the running product, so the loop stops within the
    ghost degree of q.
    """
    if p.is_zero():
        raise PreconditionError("right denominator needs p != 0")
    if p.graph != q.graph or p.field != q.field:
        raise PreconditionError("p and q must live over one graph and field")

    g = p.graph
    mu = None
    for candidate in _mu_candidates(p):
        image = p * Element.from_path(candidate, p.field)
        if not image.is_zero() and is_in_path_algebra(image):
            mu = candidate
            break
    if mu is None:
        raise PreconditionError("no denominator path found; p should admit one")

    extensions = []
    current = mu
    q_image = q * Element.from_path(current, p.field)
    while not is_in_path_algebra(q_image):
        # q*mu not in KE forces r(mu) to emit (a sink would have killed
        # every surviving ghost), so the first out-edge always exists.
        h = g._out[current.range][0]
        extensions.append(h.name)
        current = Path._trusted(g, current.source, current.edges + (h.name,), h.dst)
        q_image = q * Element.from_path(current, p.field)

    r = Element.from_path(current, p.field)
    return DenominatorWitness(r, mu, tuple(extensions), p * r, q_image)


def right_denominator(p, q):
    """r in KE with p*r != 0 and q*r in KE."""
    return denominator_search(p, q).r
