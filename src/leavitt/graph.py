"""Directed graphs, the graph DSL, and the structure analyzers.

A graph here is a finite row-finite directed graph (E0, E1, r, s) with
named vertices and edges. Declaration order is significant: it breaks ties
everywhere a canonical choice is needed (designated edges for normal forms,
cycle rotations, report ordering), so graphs preserve it exactly.

Graphs are immutable after construction and every analyzer is a pure
function, so instances can be shared freely across threads. The facts
that depend on the graph alone (strongly connected components, line
points, the socle quotient, the matrix decomposition, the Toeplitz
pattern) are computed on first use and kept in the graph's memo; see
``_graph_fact``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import wraps

from .errors import (
    DuplicateIdentifier,
    GraphMismatch,
    GraphSyntaxError,
    LimitExceeded,
    PreconditionError,
    UnknownIdentifier,
)

Edge = namedtuple("Edge", ["name", "src", "dst"])

# The identifier syntax; expressions read graph identifiers with it too.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
IDENT_RE = re.compile(IDENT + "$")

MAX_CYCLES = 1 << 17  # cycles one listing holds before it is refused


class Graph:
    """Finite directed graph with declaration-ordered vertices and edges."""

    __slots__ = ("name", "vertices", "edges", "_vindex", "_eindex", "_out", "_in", "_memo")

    def __init__(self, name, vertices, edges):
        self.name = name
        self.vertices = _names(vertices, "a graph's vertex list")
        self.edges = tuple(map(_edge, edges))
        self._vindex = {}
        for v in self.vertices:
            if v in self._vindex:
                raise DuplicateIdentifier(f"vertex {v!r} declared twice")
            self._vindex[v] = len(self._vindex)
        self._eindex = {}
        for e in self.edges:
            if e.name in self._eindex or e.name in self._vindex:
                raise DuplicateIdentifier(f"identifier {e.name!r} declared twice")
            if e.src not in self._vindex:
                raise UnknownIdentifier(f"edge {e.name!r}: undeclared source {e.src!r}")
            if e.dst not in self._vindex:
                raise UnknownIdentifier(f"edge {e.name!r}: undeclared range {e.dst!r}")
            self._eindex[e.name] = len(self._eindex)
        # Adjacency indices precomputed once; analyzers are called repeatedly.
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._memo = {}  # derived facts, filled by _graph_fact below

    # -- lookups -----------------------------------------------------------

    def vertex_index(self, v):
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownIdentifier(f"unknown vertex {v!r} in graph {self.name!r}") from None

    def edge_index(self, name):
        try:
            return self._eindex[name]
        except KeyError:
            raise UnknownIdentifier(f"unknown edge {name!r} in graph {self.name!r}") from None

    def edge(self, name):
        return self.edges[self.edge_index(name)]

    def out_edges(self, v):
        self.vertex_index(v)
        return self._out[v]

    def in_edges(self, v):
        self.vertex_index(v)
        return self._in[v]

    def sinks(self):
        return tuple(v for v in self.vertices if not self._out[v])

    # -- equality is structural; the name is metadata ----------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return other is self or (self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({self.name!r}, {len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_dsl(self):
        """The text parse_graph reads back; a name that is no identifier is refused."""
        for name in (self.name, *self.vertices, *(e.name for e in self.edges)):
            if not (isinstance(name, str) and IDENT_RE.fullmatch(name)):
                raise PreconditionError(f"name {name!r} is no DSL identifier")
        lines = [f"graph {self.name}"]
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e.name} {e.src} {e.dst}" for e in self.edges]
        return "\n".join(lines) + "\n"


def parse_graph(text):
    """Parse the line-oriented graph DSL.

    ``graph <name>`` header, then ``vertex <id>`` and ``edge <id> <src> <dst>``
    lines in any interleaving; ``#`` starts a comment. Declaration order is
    preserved.
    """
    name = None
    vertices = {}  # insertion-ordered, with constant-time endpoint checks
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        keyword = words[0]
        if name is None:
            if keyword != "graph" or len(words) != 2:
                raise GraphSyntaxError("expected 'graph <name>' header", lineno, 1)
            _check_ident(words[1], lineno, raw)
            name = words[1]
            continue
        if keyword == "vertex":
            if len(words) != 2:
                raise GraphSyntaxError("expected 'vertex <id>'", lineno, 1)
            _check_ident(words[1], lineno, raw)
            if words[1] in seen:
                raise DuplicateIdentifier(f"line {lineno}: identifier {words[1]!r} declared twice")
            seen.add(words[1])
            vertices[words[1]] = None
        elif keyword == "edge":
            if len(words) != 4:
                raise GraphSyntaxError("expected 'edge <id> <src> <dst>'", lineno, 1)
            for w in words[1:]:
                _check_ident(w, lineno, raw)
            if words[1] in seen:
                raise DuplicateIdentifier(f"line {lineno}: identifier {words[1]!r} declared twice")
            for endpoint in words[2:]:
                if endpoint not in vertices:
                    raise UnknownIdentifier(
                        f"line {lineno}: undeclared endpoint {endpoint!r} for edge {words[1]!r}"
                    )
            seen.add(words[1])
            edges.append((words[1], words[2], words[3]))
        elif keyword == "graph":
            raise GraphSyntaxError("duplicate 'graph' header", lineno, 1)
        else:
            raise GraphSyntaxError(f"unknown keyword {keyword!r}", lineno, 1)
    if name is None:
        raise GraphSyntaxError("empty graph source: missing 'graph <name>' header", 1, 1)
    return Graph(name, vertices, edges)


def _check_ident(word, lineno, raw):
    if not IDENT_RE.match(word):
        # a whole token before the comment: a substring could lie inside an earlier token
        code = raw.split("#", 1)[0]
        col = next(t.start() for t in re.finditer(r"\S+", code) if t.group() == word) + 1
        raise GraphSyntaxError(f"bad identifier {word!r}", lineno, col)


# ---------------------------------------------------------------------------
# Paths, cycles, walks


class Path:
    """Directed path: consecutive edges, or a single vertex (trivial path).

    ``Path(...)`` checks every edge and stores the range, ``append``/``concat``
    check the new junction only, and ``_trusted`` (for parts that compose by
    construction, as in the rewriting kernel) checks nothing.
    """

    __slots__ = ("graph", "source", "edges", "range")

    def __init__(self, graph, source, edges=()):
        self.graph = graph
        self.source = source
        self.edges = _names(edges, "a path's edge sequence")
        graph.vertex_index(source)
        at = source
        for name in self.edges:
            e = graph.edge(name)
            if e.src != at:
                raise PreconditionError(
                    f"edges do not compose: {name!r} starts at {e.src!r}, expected {at!r}"
                )
            at = e.dst
        self.range = at

    @classmethod
    def _trusted(cls, graph, source, edges, range_):
        p = object.__new__(cls)
        p.graph, p.source, p.edges, p.range = graph, source, edges, range_
        return p

    @classmethod
    def trivial(cls, graph, vertex):
        return cls(graph, vertex, ())

    @classmethod
    def from_edges(cls, graph, edge_names):
        names = _names(edge_names, "a path's edge sequence")
        if not names:
            raise PreconditionError("from_edges needs at least one edge; use Path.trivial")
        return cls(graph, graph.edge(names[0]).src, names)

    @property
    def length(self):
        return len(self.edges)

    @property
    def is_trivial(self):
        return not self.edges

    def concat(self, other):
        if other.graph != self.graph:
            raise GraphMismatch("paths over different graphs")
        if other.source != self.range:
            raise PreconditionError(
                f"paths do not compose: {self.range!r} then {other.source!r}"
            )
        return Path._trusted(self.graph, self.source, self.edges + other.edges, other.range)

    def append(self, edge_name):
        return self.concat(Path(self.graph, self.graph.edge(edge_name).src, (edge_name,)))

    def sort_key(self):
        g = self.graph
        return (g._vindex[self.source], *map(g._eindex.__getitem__, self.edges))

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.source == other.source
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.source, self.edges))

    def __repr__(self):
        if self.is_trivial:
            return f"Path({self.source!r})"
        return f"Path({'.'.join(self.edges)})"


class Cycle:
    """Closed path whose edge sources are pairwise distinct.

    ``Cycle(...)`` checks that; ``_trusted`` checks nothing and serves the
    cycles the search in ``cycles`` closes and the rotations ``canonical``
    makes.
    """

    __slots__ = ("path",)

    def __init__(self, path):
        if path.is_trivial or path.range != path.source:
            raise PreconditionError("not a closed path")
        sources = [path.graph.edge(e).src for e in path.edges]
        if len(set(sources)) != len(sources):
            raise PreconditionError("closed path revisits a source: not a cycle")
        self.path = path

    @classmethod
    def _trusted(cls, path):
        c = object.__new__(cls)
        c.path = path
        return c

    @property
    def graph(self):
        return self.path.graph

    @property
    def edges(self):
        return self.path.edges

    def vertices(self):
        return tuple(self.graph.edge(e).src for e in self.edges)

    def canonical(self):
        """Rotate so the least source vertex (declaration order) comes first."""
        g, sources = self.graph, self.vertices()
        start = min(sources, key=g._vindex.__getitem__)
        k = sources.index(start)
        return Cycle._trusted(Path._trusted(g, start, self.edges[k:] + self.edges[:k], start))

    def __eq__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.canonical().path == other.canonical().path

    def __hash__(self):
        return hash(self.canonical().path)

    def __repr__(self):
        return f"Cycle({'.'.join(self.edges)})"


# Path in the underlying undirected graph: items are (edge_name, forward)
# pairs that compose once edge direction is forgotten.
Walk = namedtuple("Walk", "graph source items range")


def _undirected_parents(g, u):
    """Breadth-first search from u in the underlying undirected graph: each
    vertex reached, in the order reached, mapped to the (previous vertex,
    edge name, forward) step that reached it first; u maps to None."""
    parents, queue = {u: None}, [u]
    for x in queue:
        for e in g._out[x]:
            if e.dst not in parents:
                parents[e.dst] = (x, e.name, True)
                queue.append(e.dst)
        for e in g._in[x]:
            if e.src not in parents:
                parents[e.src] = (x, e.name, False)
                queue.append(e.src)
    return parents


def walk_between(g, u, w):
    """A shortest undirected walk from u to w, or None if they are
    disconnected: the steps of ``_undirected_parents`` back from w."""
    g.vertex_index(u)
    g.vertex_index(w)
    parents = _undirected_parents(g, u)
    if w not in parents:
        return None
    items, at = [], w
    while parents[at]:
        at, name, forward = parents[at]
        items.append((name, forward))
    return Walk(g, u, tuple(reversed(items)), w)


# ---------------------------------------------------------------------------
# Vertex sets


class VertexSet(frozenset):
    """Subset of E0: the frozenset of its members, iterated in declaration
    order. It holds no graph, so a graph's memo can keep it."""

    __slots__ = ("_ordered",)

    def __new__(cls, graph, names):
        members = _as_members(graph, names)
        vs = super().__new__(cls, members)
        vs._ordered = tuple(filter(members.__contains__, graph.vertices))
        return vs

    @property
    def members(self):
        """The set itself; callers such as the benchmark read ``H.members``."""
        return self

    def ordered(self):
        return self._ordered

    def __iter__(self):
        return iter(self._ordered)

    def __reduce__(self):
        # frozenset's would call VertexSet(members), which lacks the graph;
        # this builds the set from the order and then sets the slot
        return frozenset.__new__, (VertexSet, self._ordered), (None, {"_ordered": self._ordered})

    def __repr__(self):
        return f"VertexSet({list(self._ordered)})"


def _names(X, what="a vertex set"):
    """The names in X (a vertex set, or a path's edges), in the caller's
    order. A string is refused: it would be read as the names of its
    characters."""
    if isinstance(X, str):
        raise PreconditionError(f"{what} is a collection of names, not the string {X!r}")
    return tuple(X)


def _edge(e):
    """e as an Edge, which it may be already (an edge of another graph),
    else read as a collection of three names (name, source, range)."""
    if isinstance(e, Edge):
        return e
    names = _names(e, "an edge")
    if len(names) != 3:
        raise PreconditionError(f"an edge is three names (name, source, range), not {names!r}")
    return Edge._make(names)


def _as_members(g, X):
    """The names of X as a frozenset, checked against g by one subset test.
    Only when that fails are they looked up in X's order, so the first
    unknown name is the one reported."""
    names = _names(X)
    members = frozenset(names)
    if not g._vindex.keys() >= members:
        for v in names:
            g.vertex_index(v)
    return members


# ---------------------------------------------------------------------------
# Analyzers


def _graph_fact(compute):
    """Declare compute(g) a fact of g: computed on first use, then kept in
    g's memo under the decorated function itself.

    No caller mutates a stored value, so every caller can share it. Two
    threads may both miss and both compute; each stores an equal value with
    one atomic dict assignment, so the race is benign and graphs stay safe
    to share. A compute that raises stores nothing.
    """
    @wraps(compute)
    def fact(g):
        try:
            return g._memo[fact]
        except KeyError:
            value = g._memo[fact] = compute(g)
            return value

    return fact


def _reach(g, sources, backwards=False, keep=None):
    """Every vertex reached from the sources (included) along directed edges,
    or against them when backwards: the vertices that reach some source.
    With keep, the walk enters only the vertices w for which keep(w) holds."""
    adjacent = g._in if backwards else g._out
    reached = set(sources)
    stack = list(reached)
    while stack:
        for e in adjacent[stack.pop()]:
            w = e.src if backwards else e.dst
            if w not in reached and (keep is None or keep(w)):
                reached.add(w)
                stack.append(w)
    return reached


def _path_counts(g, sources, backwards=False, keep=None):
    """The multiplicity twin of _reach: one dict {vertex: number of paths} per
    length 0, 1, ..., stopping at the first empty length. Forwards a length
    counts the paths from the sources that end at each vertex; backwards, the
    paths from each vertex into the sources. With keep, the paths step only
    onto the vertices w for which keep(w) holds."""
    adjacent, end = (g._in, 1) if backwards else (g._out, 2)  # Edge = (name, src, dst)
    level = dict.fromkeys(sources, 1)
    while level:
        yield level
        counts = {}
        for v, n in level.items():
            for e in adjacent[v]:
                w = e[end]
                if keep is None or keep(w):
                    counts[w] = counts.get(w, 0) + n
        level = counts


def _paths_ending_in(g, targets, keep=None):
    """The paths into the targets, one list per length, trivial paths first;
    it stops at the first empty length. Each length grows the previous one
    backwards by an edge, e . p; with keep, only through sources w for which
    keep(w) holds. Sorting a length stably by its first edge, when the
    previous one is in edge order, leaves it in full edge-index order."""
    level = [Path._trusted(g, v, (), v) for v in targets]
    while level:
        yield level
        level = [
            Path._trusted(g, e.src, (e.name,) + p.edges, p.range)
            for p in level
            for e in g._in[p.source]
            if keep is None or keep(e.src)
        ]
        level.sort(key=lambda p: g._eindex[p.edges[0]])


def tree(g, v):
    """T(v): every vertex reachable from v by a directed path, v included."""
    return tree_of_set(g, (v,))


def tree_of_set(g, X):
    return VertexSet(g, _reach(g, _as_members(g, X)))


def connects_to(g, u, w):
    """True iff there is a directed path from u to w (trivial path included)."""
    g.vertex_index(u)
    g.vertex_index(w)
    return w in _reach(g, (u,))


@_graph_fact
def bifurcations(g):
    """Vertices emitting at least two edges."""
    return VertexSet(g, (v for v in g.vertices if len(g._out[v]) >= 2))


@_graph_fact
def _designated_edges(g):
    """The rewrite rule's table: the name of each designated edge, one per
    vertex that is not a sink, mapped to the names of its siblings (the other
    edges out of its source, in declaration order)."""
    return {es[-1].name: tuple(e.name for e in es[:-1]) for es in g._out.values() if es}


def cycles(g):
    """All cycles, one representative per rotation class, for the report.

    A representative starts at its least vertex s in declaration order (its
    canonical rotation); only a vertex on a cycle starts a search. An
    iterative depth-first search from s closes a cycle on each edge back to
    s. It takes Johnson's (1975) start order, entering only vertices
    declared after s that reach s through such vertices, and his blocking:
    a vertex whose search closed no cycle waits until one it leads to
    closes one, so between two cycles the search walks the graph about
    once. Their number can grow exponentially: the listing is refused when
    it would close cycle MAX_CYCLES + 1, before sorting. The
    representatives are sorted by edge indices; no other analyzer
    enumerates them.
    """
    index = g._vindex
    found = []
    for start in filter(vertex_on_a_cycle(g).__contains__, g.vertices):
        first = index[start]
        # vertices the path may enter: declared after start, reaching start
        # through such vertices, not on the path and not blocked
        free = _reach(g, (start,), backwards=True, keep=lambda w: index[w] > first)
        waiting = {}  # Johnson's B-lists: vertex -> blocked vertices it frees
        path, stack = [], [[start, iter(g._out[start]), False]]  # frame: vertex, edges, closed
        while stack:
            for name, _, dst in stack[-1][1]:
                if dst == start:
                    if len(found) == MAX_CYCLES:
                        raise LimitExceeded(f"cycles exceed the bound {MAX_CYCLES}")
                    found.append((start, (*path, name)))  # a refused listing builds no Cycle
                    stack[-1][2] = True
                elif dst in free:
                    free.remove(dst)
                    path.append(name)
                    stack.append([dst, iter(g._out[dst]), False])
                    break
            else:
                v, _, closed = stack.pop()
                if stack:
                    path.pop()
                if closed:  # free v, then each blocked vertex waiting on a freed one
                    free.add(v)
                    release = waiting.pop(v, None)
                    while release:
                        u = release.pop()
                        if u not in free:
                            free.add(u)
                            release.update(waiting.pop(u, ()))
                    if stack:
                        stack[-1][2] = True
                else:
                    for e in g._out[v]:
                        waiting.setdefault(e.dst, set()).add(v)
    found.sort(key=lambda c: tuple(map(g._eindex.__getitem__, c[1])))
    return tuple(Cycle._trusted(Path._trusted(g, s, es, s)) for s, es in found)


def cycle_has_exit(g, cycle):
    """True iff some edge leaves the cycle: s(e) on the cycle, e not in it."""
    if not isinstance(cycle, Cycle):
        raise PreconditionError("cycle_has_exit expects a Cycle")
    if cycle.graph != g:
        raise PreconditionError("cycle belongs to a different graph")
    edge_set = set(cycle.edges)
    for v in cycle.vertices():
        for e in g._out[v]:
            if e.name not in edge_set:
                return True
    return False


@_graph_fact
def vertex_on_a_cycle(g):
    """Vertices on some cycle, as a frozenset: those of the strongly
    connected components with more than one vertex, and the sources of
    loops."""
    on = {e.src for e in g.edges if e.src == e.dst}
    for comp in strongly_connected_components(g):
        if len(comp) > 1:
            on |= comp
    return frozenset(on)


@_graph_fact
def line_points(g):
    """Vertices u whose tree T(u) has no bifurcations and meets no cycle:
    by backwards reachability, those reaching no bifurcation and no vertex
    on a cycle."""
    blocked = bifurcations(g) | vertex_on_a_cycle(g)
    return VertexSet(g, set(g.vertices) - _reach(g, blocked, backwards=True))


def is_hereditary(g, X):
    """v >= w and v in X imply w in X; equivalently, X is all it reaches."""
    return _hereditary(g, _as_members(g, X))


def _hereditary(g, members):
    """is_hereditary for members already checked against g."""
    return _reach(g, members) == members


def is_saturated(g, X):
    """Every emitting vertex feeding only into X lies in X."""
    return _saturated(g, _as_members(g, X))


def _saturated(g, members):
    """is_saturated for members already checked against g."""
    for v in g.vertices:
        es = g._out[v]
        if es and all(e.dst in members for e in es) and v not in members:
            return False
    return True


def hereditary_saturated_closure(g, X):
    """Least hereditary saturated superset, in time linear in the graph."""
    return _closure_of(g, _as_members(g, X))


def _closure_of(g, members):
    """The closure of members already checked against g.

    Start from their tree, which is hereditary. Saturation adds an
    emitting vertex once all of its edges land in the set, so each vertex
    outside counts its edges that do not yet; a vertex joining decrements
    the counts of the sources of its incoming edges, and a count reaching
    0 adds that source. Adding such vertices keeps the set hereditary.
    """
    closure = _reach(g, members)
    missing = {}
    ready = []
    for v in g.vertices:
        if v not in closure and g._out[v]:
            missing[v] = sum(e.dst not in closure for e in g._out[v])
            if not missing[v]:
                ready.append(v)
    closure.update(ready)
    while ready:
        for e in g._in[ready.pop()]:
            u = e.src
            if u not in closure:
                missing[u] -= 1
                if not missing[u]:
                    closure.add(u)
                    ready.append(u)
    return VertexSet(g, closure)


@_graph_fact
def strongly_connected_components(g):
    """The components as a tuple of frozensets, by Kosaraju's algorithm: an
    iterative depth-first search lists the vertices as it finishes them;
    from the last finished back, each vertex not yet placed takes as its
    component the unplaced vertices that reach it. So each component comes
    before every component it reaches."""
    finished, seen = [], set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(g._out[root]))]
        while work:
            for e in work[-1][1]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    work.append((e.dst, iter(g._out[e.dst])))
                    break
            else:
                finished.append(work.pop()[0])
    placed, comps = set(), []
    for v in reversed(finished):
        if v not in placed:
            comp = _reach(g, (v,), backwards=True, keep=lambda w: w not in placed)
            placed |= comp
            comps.append(frozenset(comp))
    return tuple(comps)


def is_path_algebra_semiprime(g):
    """Path-return criterion: the path algebra is semiprime iff every path
    has a return path, iff (composing returns) every edge lies inside one
    strongly connected component. Those components refine the connected
    ones, so that holds iff each connected component is strongly connected,
    that is, iff there are as many of either."""
    return len(strongly_connected_components(g)) == len(connected_components(g))


def socle_is_essential(g):
    """True iff every vertex connects to a line point: backwards
    reachability from the line points covers every vertex."""
    return len(_reach(g, line_points(g), backwards=True)) == len(g.vertices)


@_graph_fact
def connected_components(g):
    """Partition into undirected components, each an induced subgraph; the
    vertices ``_undirected_parents`` reaches from a vertex not yet labelled
    make up its component.

    Components are ordered by their least vertex in declaration order, and
    carry vertices and edges in the parent graph's declaration order.
    """
    comp_of = {}
    parts = []  # (vertices, edges) of each component
    for v in g.vertices:
        if v not in comp_of:
            comp_of.update(dict.fromkeys(_undirected_parents(g, v), len(parts)))
            parts.append(([], []))
    for v in g.vertices:
        parts[comp_of[v]][0].append(v)
    for e in g.edges:
        parts[comp_of[e.src]][1].append(e)
    return tuple(Graph(f"{g.name}_c{i}", vs, es) for i, (vs, es) in enumerate(parts))


def is_acyclic(g):
    return not vertex_on_a_cycle(g)


def is_acyclic_no_bifurcation(g):
    return is_acyclic(g) and not bifurcations(g)


def analyzer_report(g):
    """The full structural report, deterministic, JSON-ready."""
    return {
        "semiprime_path_algebra": is_path_algebra_semiprime(g),
        "line_points": list(line_points(g).ordered()),
        "socle_essential": socle_is_essential(g),
        "cycles": [list(c.edges) for c in cycles(g)],
        "bifurcations": list(bifurcations(g).ordered()),
        "components": [
            {"vertices": list(c.vertices), "edges": [e.name for e in c.edges]}
            for c in connected_components(g)
        ],
    }


# ---------------------------------------------------------------------------
# Builders for the infinite families, truncated.
#
# The infinite graphs behind these builders cannot be represented directly;
# each builder takes an explicit truncation parameter and documents which
# analyzer outputs are stable under it and which carry a boundary artifact.


def line_graph(n):
    """The graph line<n>: an oriented line x1 -> x2 -> ... -> xn."""
    if n < 1:
        raise PreconditionError("line_graph needs n >= 1")
    vertices = [f"x{i}" for i in range(1, n + 1)]
    edges = [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(1, n)]
    return Graph(f"line{n}", vertices, edges)


def single_loop_graph():
    """The graph R1: one vertex with one loop."""
    return Graph("R1", ["v"], [("e", "v", "v")])


def ladder_graph(columns):
    """The graph ladder<columns>, truncating the two-row ladder u_i -> v_i (sinks), u_i -> u_{i+1}.

    The infinite graph has line points exactly {v_i}. A finite truncation
    cannot reproduce that on the nose: it ends with a tail vertex
    u_{columns+1} (a sink, hence an artifact line point). The tail keeps
    every u_i bifurcated, which is what makes {v_1..v_k} hereditary and
    saturated -- stable under this truncation -- while the line-point set
    gains exactly the tail artifact.
    """
    if columns < 1:
        raise PreconditionError("ladder_graph needs at least one column")
    vertices = []
    edges = []
    for i in range(1, columns + 1):
        vertices += [f"u{i}", f"v{i}"]
        edges.append((f"e{i}", f"u{i}", f"v{i}"))
        edges.append((f"f{i}", f"u{i}", f"u{i + 1}"))
    vertices.append(f"u{columns + 1}")
    return Graph(f"ladder{columns}", vertices, edges)


def comb_graph(spokes):
    """The graph comb<spokes>, truncating the infinite comb: spokes p_i fire into one sink w.

    Connectivity, line points and the one-block matrix decomposition are
    stable under the truncation (only the number of spokes grows).
    """
    if spokes < 1:
        raise PreconditionError("comb_graph needs at least one spoke")
    vertices = [f"p{i}" for i in range(1, spokes + 1)] + ["w"]
    edges = [(f"s{i}", f"p{i}", "w") for i in range(1, spokes + 1)]
    return Graph(f"comb{spokes}", vertices, edges)
