"""Shared corpus graphs, random generators, and independent oracles."""

import random
import re
from collections import Counter
from itertools import accumulate, pairwise, product
from math import gcd, lcm

import pytest

import leavitt as L
from leavitt import Element, Graph, LaurentPoly, Matrix, Monomial, Path, PreconditionError
from leavitt import graph as graph_module, quotients as quotients_module
from leavitt.algebra import _key, _monomial, _normal_form, _range
from leavitt.expressions import MAX_NESTING, _spell
from leavitt.errors import ExpressionSyntaxError, LimitExceeded, UnknownIdentifier
from leavitt.graph import IDENT, _as_members, _reach, vertex_on_a_cycle
from leavitt.matrices import _nonzero, add_entry
from leavitt.quotients import _entry_paths
from leavitt.toeplitz import (
    MAX_DEGREE,
    MAX_SANDWICH_WINDOW,
    MAX_WINDOW,
    MatrixWindow,
    _canonical,
)

TOEPLITZ_DSL = "graph T\nvertex v\nvertex w\nedge e v v\nedge f v w\n"
A2_DSL = "graph A2\nvertex u\nvertex w\nedge f u w\n"
P1_DSL = "graph P1\nvertex v\n"
TWO_A2_DSL = (
    "graph TwoA2\n"
    "vertex u1\nvertex w1\nvertex u2\nvertex w2\n"
    "edge f1 u1 w1\nedge f2 u2 w2\n"
)
# u -> w, then w -> z1 (edge b) and w -> z2 (edge c, designated at w):
# the graph where (a b) b* - a annihilates every ghost-path candidate and
# the denominator search must take the edge-extension branch.
FORK_DSL = (
    "graph Fork\n"
    "vertex u\nvertex w\nvertex z1\nvertex z2\n"
    "edge a u w\nedge b w z1\nedge c w z2\n"
)


@pytest.fixture
def toeplitz():
    return L.parse_graph(TOEPLITZ_DSL)


def loop_designated_toeplitz():
    """The canonical Toeplitz graph with f declared first: the loop e is the
    designated edge at v, so f f* is a normal form, and its window cell
    (1, 1) lies on the diagonal run of v."""
    return Graph("T", ["v", "w"], [("f", "v", "w"), ("e", "v", "v")])


@pytest.fixture
def a2():
    return L.parse_graph(A2_DSL)


@pytest.fixture
def p1():
    return L.parse_graph(P1_DSL)


@pytest.fixture
def r1():
    return L.single_loop_graph()


@pytest.fixture
def line3():
    return L.line_graph(3)


@pytest.fixture
def fork():
    return L.parse_graph(FORK_DSL)


def corpus_graphs():
    """The graphs every bulk property test runs over."""
    return [
        L.parse_graph(P1_DSL),
        L.parse_graph(A2_DSL),
        L.single_loop_graph(),
        L.parse_graph(TOEPLITZ_DSL),
        L.line_graph(3),
        L.parse_graph(TWO_A2_DSL),
        L.parse_graph(FORK_DSL),
        L.ladder_graph(2),
        L.comb_graph(3),
    ]


def small_corpus_graphs():
    """Corpus members with at most 5 vertices (exhaustive-subset oracles)."""
    return [g for g in corpus_graphs() if len(g.vertices) <= 5]


def random_graph(rng, max_vertices=6, max_edges=10):
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_edges)
    edges = [
        (f"e{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(m)
    ]
    return Graph(f"rnd{n}_{m}", vertices, edges)


def deep_graphs(n=1100):
    """A directed n-cycle and an n-vertex line with a loop at its last vertex:
    paths longer than the interpreter's recursion limit."""
    vertices = [f"x{i}" for i in range(1, n + 1)]
    ring = [(f"a{i}", f"x{i}", f"x{i % n + 1}") for i in range(1, n + 1)]
    looped = ring[:-1] + [("l", f"x{n}", f"x{n}")]
    return [Graph(f"cycle{n}", vertices, ring), Graph(f"looped{n}", vertices, looped)]


def declared_both_ways(n):
    """An n-vertex line and an n-cycle, each declared along its edges and
    against them: x1 -> ... -> xn, the line from its sink (x(i+1) -> x(i)),
    and the cycles x(i) -> x(i+1) -> ... -> x1 and x(i+1) -> x(i) -> ... -> xn."""
    vertices = [f"x{i}" for i in range(1, n + 1)]
    forward = [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(1, n)]
    backward = [(f"a{i}", f"x{i + 1}", f"x{i}") for i in range(1, n)]
    return [
        Graph(f"line{n}", vertices, forward),
        Graph(f"sinkline{n}", vertices, backward),
        Graph(f"cycle{n}", vertices, forward + [("z", f"x{n}", "x1")]),
        Graph(f"backcycle{n}", vertices, backward + [("z", "x1", f"x{n}")]),
    ]


def count_vertex_checks(monkeypatch):
    """(lookups, checks), filled as the code runs: the names that
    Graph.vertex_index looks up, and the size of each vertex set that
    ``graph._as_members`` checks, patched where graph and quotients call it."""
    lookups, checks = [], []
    lookup = L.Graph.vertex_index
    monkeypatch.setattr(L.Graph, "vertex_index", lambda g, v: lookups.append(v) or lookup(g, v))

    def counted(g, X):
        members = _as_members(g, X)
        checks.append(len(members))
        return members

    for module in (graph_module, quotients_module):
        monkeypatch.setattr(module, "_as_members", counted)
    return lookups, checks


def diamond_chain(k):
    """k diamonds d(i-1) -> a(i), b(i) -> d(i) in a row: 2^(k+2) - 3 paths
    into the one sink dk."""
    vertices, edges = [f"d{i}" for i in range(k + 1)], []
    for i in range(1, k + 1):
        vertices += [f"a{i}", f"b{i}"]
        for top, mid in (("p", "a"), ("q", "b")):
            edges += [(f"{top}{i}", f"d{i - 1}", f"{mid}{i}"), (f"{top}{i}x", f"{mid}{i}", f"d{i}")]
    return Graph(f"diamonds{k}", vertices, edges)


def raw_monomials(g, max_len=3):
    """Spanning-set monomials (not necessarily basis) up to the length bound."""
    by_range = {}
    for p in L.paths_up_to(g, max_len):
        by_range.setdefault(p.range, []).append(p)
    out = []
    for group in by_range.values():
        for p in group:
            for q in group:
                if p.length + q.length <= max_len:
                    out.append(Monomial(p, q))
    return out


def random_raw_terms(g, rng, pool, size=4, field=L.QQ):
    terms = []
    for _ in range(rng.randint(1, size)):
        m = rng.choice(pool)
        c = field.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms.append((m, c))
    return terms


def random_element(g, rng, pool, size=4, field=L.QQ):
    return Element(g, field, random_raw_terms(g, rng, pool, size, field))


class RandomStack(list):
    """A list whose ``pop()`` removes a random index: ``_normal_form``, fed
    its pops, takes whole terms off it in a random order instead of as a stack. Each
    term's rewrite steps run in one loop, so the orders that interleave the
    steps of different terms are covered by ``reference_normalize_terms``
    (which pops the front) and ``one_edge_normalize_terms``."""

    def __init__(self, items, rng):
        super().__init__(items)
        self.rng = rng

    def pop(self):
        return super().pop(self.rng.randrange(len(self)))


def random_order_normal_form(g, terms, rng):
    """{Monomial: coefficient} of (Monomial, coefficient) terms, rewritten
    through ``_normal_form`` in a random order: each term it takes is popped
    off a ``RandomStack``."""
    stack = RandomStack([(_key(m), c) for m, c in terms], rng)
    flat = _normal_form(g, (stack.pop() for _ in range(len(stack))))
    return {_monomial(g, k): c for k, c in flat.items()}


def random_nonzero_element(g, rng, pool, size=4, field=L.QQ):
    for _ in range(50):
        x = random_element(g, rng, pool, size, field)
        if not x.is_zero():
            return x
    raise AssertionError("could not sample a nonzero element")


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately separate from the implementations)


def reachability(g):
    """reach[u][w] with trivial paths included (Floyd-Warshall)."""
    vs = list(g.vertices)
    reach = {u: {w: u == w for w in vs} for u in vs}
    for e in g.edges:
        reach[e.src][e.dst] = True
    for k in vs:
        for i in vs:
            if reach[i][k]:
                for j in vs:
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def nontrivial_reachability(g):
    """reach via at least one edge."""
    reach = reachability(g)
    out = {u: {w: False for w in g.vertices} for u in g.vertices}
    for e in g.edges:
        for u in g.vertices:
            for w in g.vertices:
                if reach[u][e.src] and reach[e.dst][w]:
                    out[u][w] = True
    return out


def simple_paths(g):
    """All paths with pairwise-distinct vertices, plus single edges."""
    out = [Path.from_edges(g, [e.name]) for e in g.edges]

    def extend(path, seen):
        for e in g.out_edges(path.range):
            if e.dst not in seen:
                longer = path.append(e.name)
                out.append(longer)
                extend(longer, seen | {e.dst})

    for v in g.vertices:
        for e in g.out_edges(v):
            if e.dst != v:
                extend(Path.from_edges(g, [e.name]), {v, e.dst})
    return out


def cycles_oracle(g):
    """Edge tuples of all cycles, each rotated to start at its least vertex:
    the loops, and every simple path closed by an edge back to its source."""
    closed = [(e.name,) for e in g.edges if e.src == e.dst]
    for p in simple_paths(g):
        if p.source != p.range:
            closed += [p.edges + (e.name,) for e in g.out_edges(p.range) if e.dst == p.source]
    found = set()
    for edges in closed:
        starts = [g.vertex_index(g.edge(e).src) for e in edges]
        k = starts.index(min(starts))
        found.add(edges[k:] + edges[:k])
    return found


def complete_digraph(n):
    """K_n with loops: an edge from each vertex to each, n^2 edges."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}_{j}", a, b) for i, a in enumerate(vs) for j, b in enumerate(vs)]
    return Graph(f"K{n}", vs, edges)


def diamond_return(k):
    """A 2-cycle s -> x -> s, and k diamonds in a row from x back to x: every
    vertex reaches s, but a path from s into the diamonds never closes at s.
    A search from s without blocking walks all 2^k paths through the
    diamonds before the search from x closes its first cycle."""
    chain = diamond_chain(k)
    edges = [("t", "s", "x"), ("r", "x", "s"), ("i", "x", "d0"), ("o", f"d{k}", "x")]
    edges += [(e.name, e.src, e.dst) for e in chain.edges]
    return Graph(f"return{k}", ["s", "x", *chain.vertices], edges)


# ---------------------------------------------------------------------------
# Cycle searches that count their work. counting_cycles is graph.cycles as it
# stands (Johnson's start order, one reachability set per start, no blocked
# set), verbatim but for the bound and the counts; johnson_cycles is Johnson's
# search with the blocked set and the B-lists (D. B. Johnson, "Finding all the
# elementary circuits of a directed graph", SIAM J. Comput. 4 (1975)), read
# edge by edge so that parallel edges and loops give one cycle each. Both
# return the (start, edges) pairs sorted as cycles sorts them, and the DFS
# pushes of each stretch between two closed cycles, the stretches before the
# first and after the last included.


def _sorted_with_gaps(g, found, marks, pushes):
    found.sort(key=lambda c: tuple(map(g.edge_index, c[1])))
    bounds = [0, *marks, pushes]
    return found, [b - a for a, b in zip(bounds, bounds[1:])]


def counting_cycles(g):
    index = g._vindex
    found, marks, pushes = [], [], 0
    for start in g.vertices:
        first = index[start]
        free = _reach(g, (start,), backwards=True, keep=lambda w: index[w] > first)
        stack, pushes = [(start, None, iter(g._out[start]))], pushes + 1
        while stack:
            for e in stack[-1][2]:
                if e.dst == start:
                    found.append((start, tuple(frame[1] for frame in stack[1:]) + (e.name,)))
                    marks.append(pushes)
                elif e.dst in free:
                    free.remove(e.dst)
                    stack.append((e.dst, e.name, iter(g._out[e.dst])))
                    pushes += 1
                    break
            else:
                free.add(stack.pop()[0])
    return _sorted_with_gaps(g, found, marks, pushes)


def johnson_cycles(g):
    index = g._vindex
    found, marks, pushes = [], [], 0
    for s in g.vertices:
        # the strongly connected component of s among the vertices from s on
        later = set(g.vertices[index[s]:]).__contains__
        component = _reach(g, (s,), keep=later) & _reach(g, (s,), backwards=True, keep=later)
        blocked, b_lists, path = set(), {v: set() for v in component}, []

        def unblock(u):
            blocked.discard(u)
            while b_lists[u]:
                w = b_lists[u].pop()
                if w in blocked:
                    unblock(w)

        def circuit(v):
            nonlocal pushes
            pushes += 1
            blocked.add(v)
            closed = False
            for e in g._out[v]:
                if e.dst == s:
                    found.append((s, (*path, e.name)))
                    marks.append(pushes)
                    closed = True
                elif e.dst in component and e.dst not in blocked:
                    path.append(e.name)
                    closed |= circuit(e.dst)
                    path.pop()
            if closed:
                unblock(v)
            else:
                for e in g._out[v]:
                    if e.dst in component:
                        b_lists[e.dst].add(v)
            return closed

        circuit(s)
    return _sorted_with_gaps(g, found, marks, pushes)


def toeplitz_oracle(g):
    """E(n, F) shape read off the cycle list: one cycle, a loop, with no other
    edge into its vertex and at least one connector out of it."""
    cs = L.cycles(g)
    if len(cs) != 1 or len(cs[0].edges) != 1:
        return False
    v = g.edge(cs[0].edges[0]).src
    into = [e for e in g.edges if e.dst == v]
    out = [e for e in g.edges if e.src == v]
    return len(into) == 1 and len(out) >= 2


def reference_laurent_quotient(x):
    """The Laurent image as the quotient morphism onto E/F0 gives it: the
    image normalised in the one-loop graph, its terms summed by degree."""
    F0 = L.recognize_toeplitz(x.graph).subgraph.vertices
    image = L.LaurentPoly({}, x.field)
    for m, c in L.quotient_morphism(x, F0).terms.items():
        image = image + L.LaurentPoly({m.degree: c}, x.field)
    return image


def semiprime_oracle(g):
    reach = reachability(g)
    return all(reach[p.range][p.source] for p in simple_paths(g))


def line_points_oracle(g):
    reach = reachability(g)
    loops = nontrivial_reachability(g)
    result = set()
    for u in g.vertices:
        reachable = [w for w in g.vertices if reach[u][w]]
        if all(len(g.out_edges(w)) <= 1 and not loops[w][w] for w in reachable):
            result.add(u)
    return result


def socle_essential_oracle(g):
    reach = reachability(g)
    lp = line_points_oracle(g)
    return all(any(reach[v][u] for u in lp) for v in g.vertices)


def subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def hereditary_oracle(g, X):
    reach = reachability(g)
    return all(w in X for v in X for w in g.vertices if reach[v][w])


def saturated_oracle(g, X):
    for v in g.vertices:
        es = g.out_edges(v)
        if es and all(e.dst in X for e in es) and v not in X:
            return False
    return True


def closure_oracle(g, X):
    """Intersection of every hereditary saturated superset (exhaustive)."""
    X = frozenset(X)
    best = frozenset(g.vertices)
    for S in subsets(g.vertices):
        if X <= S and hereditary_oracle(g, S) and saturated_oracle(g, S):
            best = best & S
    return best


def reference_closure(g, X):
    """The saturation fixpoint, one rescan of every vertex per stage: stage 0
    is the tree of X, each later stage adds the emitting vertices all of
    whose ranges lie in the previous one."""
    current = L.tree_of_set(g, X).members
    while True:
        added = {
            v
            for v in g.vertices
            if v not in current
            and g.out_edges(v)
            and all(e.dst in current for e in g.out_edges(v))
        }
        if not added:
            return current
        current = current | added


def components_oracle(g):
    """Vertex blocks of the undirected components, by union-find: each block
    in declaration order, blocks ordered by their first vertex."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        parent[find(e.src)] = find(e.dst)
    blocks = {}
    for v in g.vertices:
        blocks.setdefault(find(v), []).append(v)
    return [tuple(b) for b in blocks.values()]


# ---------------------------------------------------------------------------
# Dense reference kernel: the dense elimination that the sparse Matrix
# replaced, on lists of rows of field scalars.


def dense_mul(a, b, ncols, field):
    z = field.zero()
    cols = [[r[j] for r in b] for j in range(ncols)]
    out = []
    for r in a:
        row = []
        for c in cols:
            acc = z
            for x, y in zip(r, c):
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def dense_rref(rows, ncols, field):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = field.one() / rows[lead][col]
        rows[lead] = [a * inv for a in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return rows, pivots


def dense_rank_factorization(rows, ncols, field):
    reduced, pivots = dense_rref(rows, ncols, field)
    C = [[r[j] for j in pivots] for r in rows]
    return C, reduced[: len(pivots)]


def dense_inverse(rows, field):
    n = len(rows)
    z, o = field.zero(), field.one()
    aug = [list(r) + [o if i == j else z for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = dense_rref(aug, 2 * n, field)
    if pivots != list(range(n)):
        raise L.NotGroupInvertible("matrix is singular")
    return [r[n:] for r in reduced]


def dense_group_inverse(rows, field):
    """C (RC)^-2 R over dense rows; raises NotGroupInvertible like Matrix."""
    n = len(rows[0]) if rows else 0
    C, R = dense_rank_factorization(rows, n, field)
    r = len(R)
    core_inv = dense_inverse(dense_mul(R, C, r, field), field)
    left = dense_mul(dense_mul(C, core_inv, r, field), core_inv, r, field)
    return dense_mul(left, R, n, field)


# ---------------------------------------------------------------------------
# All-rows reference Matrix: the storage that the nonzero-row Matrix
# replaced, one dict per row in a tuple, every result rebuilt through
# from_row_dicts. Verbatim but for its name and imports, and for the methods
# no test calls any more, which are dropped: zero, the integer-rows
# constructor, __getitem__, __sub__, __neg__, scale and __hash__.


class ReferenceMatrix:
    """Immutable exact matrix: a tuple of row dicts {column: nonzero scalar}.

    ``Matrix(rows, field, ncols)`` takes dense rows (lists of scalars) and
    drops their zeros; ``ncols`` matters only when there are no rows.
    ``row_dicts`` is the stored form. ``rows`` is a read-only dense view,
    built anew on every access, for printing and tests.
    """

    __slots__ = ("row_dicts", "nrows", "ncols", "field")

    def __init__(self, rows, field=L.QQ, ncols=None):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise L.PreconditionError("ragged matrix")
        self.row_dicts = tuple({j: a for j, a in enumerate(r) if a} for r in rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols or 0
        self.field = field

    @classmethod
    def from_row_dicts(cls, rows, ncols, field=L.QQ):
        """The matrix with these {column < ncols: scalar} rows, zeros dropped."""
        m = cls.__new__(cls)
        m.row_dicts = tuple({j: a for j, a in r.items() if a} for r in rows)
        m.nrows = len(m.row_dicts)
        m.ncols = ncols
        m.field = field
        return m

    @classmethod
    def identity(cls, n, field=L.QQ):
        o = field.one()
        return cls.from_row_dicts([{i: o} for i in range(n)], n, field)

    @property
    def rows(self):
        z = self.field.zero()
        return tuple(tuple(r.get(j, z) for j in range(self.ncols)) for r in self.row_dicts)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.row_dicts):
            for j, a in r.items():
                cols[j][i] = a
        return ReferenceMatrix.from_row_dicts(cols, self.nrows, self.field)

    def __add__(self, other):
        self._match(other)
        out = [dict(r) for r in self.row_dicts]
        for row, rb in zip(out, other.row_dicts):
            for j, b in rb.items():
                _add(row, j, b)
        return ReferenceMatrix.from_row_dicts(out, self.ncols, self.field)

    def __mul__(self, other):
        if not isinstance(other, ReferenceMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise L.PreconditionError(f"shape mismatch: {self.shape} * {other.shape}")
        right = other.row_dicts
        out = []
        for r in self.row_dicts:
            acc = {}
            for k, a in r.items():
                for j, b in right[k].items():
                    _add(acc, j, a * b)
            out.append(acc)
        return ReferenceMatrix.from_row_dicts(out, other.ncols, self.field)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not any(self.row_dicts)

    def _match(self, other):
        if self.shape != other.shape:
            raise L.PreconditionError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, ReferenceMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and self.row_dicts == other.row_dicts
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"

    # -- elimination -----------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list).

        Gauss-Jordan over the nonzeros; ``where[j]`` is the set of rows with
        a nonzero in column j. A column with none never gains one, since a
        row operation writes only into the pivot row's columns. The pivot
        of a column is the first row at or after ``lead`` that holds it.
        """
        rows = [dict(r) for r in self.row_dicts]
        where = {j: set(col) for j, col in enumerate(self.transpose().row_dicts) if col}
        pivots = []
        lead = 0
        for col in sorted(where):
            pivot_row = min((i for i in where[col] if i >= lead), default=None)
            if pivot_row is None:
                continue
            rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
            for j in rows[lead].keys() ^ rows[pivot_row].keys():
                where[j] ^= {lead, pivot_row}
            inv = self.field.one() / rows[lead][col]
            prow = rows[lead] = {j: a * inv for j, a in rows[lead].items()}
            for i in where[col] - {lead}:
                row = rows[i]
                factor = row[col]
                for j, b in prow.items():
                    a = row[j] - factor * b if j in row else -factor * b
                    if a:
                        row[j] = a
                        where[j].add(i)
                    else:
                        del row[j]
                        where[j].discard(i)
            pivots.append(col)
            lead += 1
            if lead == self.nrows:
                break
        return ReferenceMatrix.from_row_dicts(rows, self.ncols, self.field), pivots

    def rank(self):
        return len(self.rref()[1])

    def rank_factorization(self):
        """C (nrows x r) and R (r x ncols) with self == C R."""
        reduced, pivots = self.rref()
        r = len(pivots)
        position = {j: k for k, j in enumerate(pivots)}
        C = [{position[j]: a for j, a in row.items() if j in position} for row in self.row_dicts]
        R = ReferenceMatrix.from_row_dicts(reduced.row_dicts[:r], self.ncols, self.field)
        return ReferenceMatrix.from_row_dicts(C, r, self.field), R

    def inverse(self):
        if self.nrows != self.ncols:
            raise L.PreconditionError("only square matrices invert")
        n = self.nrows
        aug = [{**r, n + i: self.field.one()} for i, r in enumerate(self.row_dicts)]
        reduced, pivots = ReferenceMatrix.from_row_dicts(aug, 2 * n, self.field).rref()
        if pivots != list(range(n)):
            raise L.NotGroupInvertible("matrix is singular")
        inv = [{j - n: a for j, a in r.items() if j >= n} for r in reduced.row_dicts]
        return ReferenceMatrix.from_row_dicts(inv, n, self.field)

    def _corner(self):
        """(S, the S x S corner) for S the sorted rows and columns holding a nonzero."""
        if self.nrows != self.ncols:
            raise L.PreconditionError(f"only square matrices have a group inverse: {self.shape}")
        rows = self.row_dicts
        support = sorted({i for i, r in enumerate(rows) if r}.union(*rows))
        at = {k: n for n, k in enumerate(support)}
        corner = [{at[j]: a for j, a in rows[i].items()} for i in support]
        return support, ReferenceMatrix.from_row_dicts(corner, len(support), self.field)

    def group_inverse(self):
        """The unique b with aba=a, bab=b, ab=ba; exists iff rank(m)=rank(m^2)."""
        support, corner = self._corner()  # b is zero outside it
        try:
            inv = corner.inverse()  # full rank: R = I and C = corner
        except L.NotGroupInvertible:
            C, R = corner.rank_factorization()
            try:
                core_inv = (R * C).inverse()
            except L.NotGroupInvertible:
                raise L.NotGroupInvertible("no group inverse: rank(m^2) < rank(m)") from None
            inv = C * core_inv * core_inv * R
        out = [{}] * self.nrows
        for i, row in zip(support, inv.row_dicts):
            out[i] = {support[j]: a for j, a in row.items()}
        return ReferenceMatrix.from_row_dicts(out, self.ncols, self.field)

    def is_group_invertible(self):
        _, corner = self._corner()
        C, R = corner.rank_factorization()
        return R.nrows == corner.nrows or (R * C).rank() == R.nrows


# ---------------------------------------------------------------------------
# The whole-matrix group inverse that the support-corner one replaced:
# the rank-factorization formula on the full block, whatever its rank.


def whole_matrix_group_inverse(m):
    C, R = m.rank_factorization()
    core = R * C
    try:
        core_inv = core.inverse()
    except L.NotGroupInvertible:
        raise L.NotGroupInvertible("no group inverse: rank(m^2) < rank(m)") from None
    return C * core_inv * core_inv * R


def whole_matrix_is_group_invertible(m):
    C, R = m.rank_factorization()
    return len((R * C).rref()[1]) == R.nrows


# ---------------------------------------------------------------------------
# Validating reference kernel: the monomial layer before paths carried their
# range, with every path rebuilt through the full edge-by-edge check and the
# rewrite worked first in, first out. Monomials are pairs of ReferencePath.


class ReferencePath:
    __slots__ = ("graph", "source", "edges")

    def __init__(self, graph, source, edges=()):
        self.graph = graph
        self.source = source
        self.edges = tuple(edges)
        graph.vertex_index(source)
        at = source
        for name in self.edges:
            e = graph.edge(name)
            if e.src != at:
                raise PreconditionError(
                    f"edges do not compose: {name!r} starts at {e.src!r}, expected {at!r}"
                )
            at = e.dst

    @property
    def range(self):
        if not self.edges:
            return self.source
        return self.graph.edge(self.edges[-1]).dst

    def concat(self, other):
        if other.source != self.range:
            raise PreconditionError("paths do not compose")
        return ReferencePath(self.graph, self.source, self.edges + other.edges)

    def append(self, edge_name):
        return ReferencePath(self.graph, self.source, self.edges + (edge_name,))

    def is_prefix_of(self, other):
        return self.source == other.source and other.edges[: len(self.edges)] == self.edges

    def strip_prefix(self, prefix):
        if not prefix.is_prefix_of(self):
            raise PreconditionError("not a prefix")
        return ReferencePath(self.graph, prefix.range, self.edges[len(prefix.edges):])

    def key(self):
        return (self.source, self.edges)


def reference_monomial(m):
    """A leavitt Monomial as a (real, ghost) pair, each part re-validated."""
    g = m.graph
    return tuple(ReferencePath(g, p.source, p.edges) for p in (m.real, m.ghost))


def reference_key(pair):
    return pair[0].key() + pair[1].key()


def reference_is_basis(pair):
    real, ghost = pair
    if not real.edges or not ghost.edges or real.edges[-1] != ghost.edges[-1]:
        return True
    return real.edges[-1] not in L.graph._designated_edges(real.graph)


def reference_reduce_once(pair, coeff):
    real, ghost = pair
    g = real.graph
    f = g.edge(real.edges[-1])
    p = ReferencePath(g, real.source, real.edges[:-1])
    q = ReferencePath(g, ghost.source, ghost.edges[:-1])
    siblings = [
        ((p.append(e.name), q.append(e.name)), -coeff)
        for e in g.out_edges(f.src)
        if e.name != f.name
    ]
    return ((p, q), coeff), siblings


def reference_normalize_terms(terms):
    """{reference_key: coefficient} of the normal form of (pair, coeff) terms."""
    result = {}
    pending = list(terms)
    while pending:
        pair, c = pending.pop(0)
        if not c:
            continue
        if reference_is_basis(pair):
            k = reference_key(pair)
            acc = result.get(k)
            acc = c if acc is None else acc + c
            if acc:
                result[k] = acc
            else:
                result.pop(k, None)
        else:
            shorter, siblings = reference_reduce_once(pair, c)
            pending.append(shorter)
            pending.extend(siblings)
    return result


def one_edge_reduce_once(m, coeff):
    """The rewrite rule applied to the last edge only, siblings or not: the
    step that the single-exit run cut replaced."""
    g = m.graph
    real, ghost = m.real, m.ghost
    f = g.edge(real.edges[-1])

    def cut(tail, at):
        return Monomial._trusted(
            Path._trusted(g, real.source, real.edges[:-1] + tail, at),
            Path._trusted(g, ghost.source, ghost.edges[:-1] + tail, at),
        )

    siblings = [(cut((e.name,), e.dst), -coeff) for e in g.out_edges(f.src) if e != f]
    return (cut((), f.src), coeff), siblings


def one_edge_normalize_terms(terms):
    """{Monomial: coefficient} of the normal form, one edge per rewrite."""
    result = {}
    pending = list(terms)
    while pending:
        m, c = pending.pop()
        if not c:
            continue
        if m.is_basis():
            acc = result.get(m)
            acc = c if acc is None else acc + c
            if acc:
                result[m] = acc
            else:
                del result[m]
        else:
            shorter, siblings = one_edge_reduce_once(m, c)
            pending.append(shorter)
            pending.extend(siblings)
    return result


def reference_monomial_product(a, b):
    (p, q), (r, s) = a, b
    if q.is_prefix_of(r):
        return [(p.concat(r.strip_prefix(q)), s)]
    if r.is_prefix_of(q):
        return [(p, s.concat(q.strip_prefix(r)))]
    return []


def reference_product(x, y):
    """x * y through the reference kernel, as {reference_key: coefficient}."""
    raw = []
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            for pair in reference_monomial_product(reference_monomial(ma), reference_monomial(mb)):
                raw.append((pair, ca * cb))
    return reference_normalize_terms(raw)


def reference_element(g, field, normal):
    """Element built from a reference normal form through the public,
    validating Path, Monomial and Element constructors."""
    return Element(g, field, [
        (Monomial(Path(g, rs, re), Path(g, gs, ge)), c) for (rs, re, gs, ge), c in normal.items()
    ])


def element_key_terms(x):
    return {
        (m.real.source, m.real.edges, m.ghost.source, m.ghost.edges): c for m, c in x.terms.items()
    }


def path_count_dimension(g):
    """Sum over sinks of (number of paths into the sink)^2."""
    total = 0
    for sink in g.sinks():
        count = 0
        for p in L.paths_up_to(g, len(g.vertices)):
            if p.range == sink:
                count += 1
        total += count * count
    return total


def seeded(label):
    return random.Random(f"leavitt:{label}")


class StoreLog(dict):
    """A graph memo that records every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def logged(g):
    g._memo = StoreLog()
    return g._memo


def reference_sandwich_units(g, window, field, element):
    """The matrix-unit part of sandwich_report from the full window rows of
    reference_window_rows: the failure line of every E_ij, i, j < window - 1,
    whose element(g, i, j, field) does not act as E_ij."""
    failures = []
    for i in range(window - 1):
        for j in range(window - 1):
            x = element(g, i, j, field)
            rows = reference_window_rows(x, window)
            nonzeros = [(a, b, c) for a, row in enumerate(rows) for b, c in row.items() if c]
            if nonzeros != [(i, j, field.one())]:
                failures.append(f"E[{i}][{j}] != window({L.format_element(x)})")
    return failures


# ---------------------------------------------------------------------------
# Reference matrix pictures: to_matrix by expansion into sink units, and the
# Toeplitz window by its shift/rank-one rule, as two separate actions.


def _reference_expand_to_sinks(g, m, coeff, out):
    """Rewrite p q* as the sum of the units (p t)(q t)* over the paths t from
    r(p) to a sink (relation (4) forward), depth-first in edge order."""
    stack = [(m.real.range, ())]
    while stack:
        v, tail = stack.pop()
        es = g.out_edges(v)
        if not es:
            real, ghost = (Path._trusted(g, p.source, p.edges + tail, v) for p in (m.real, m.ghost))
            out.append((Monomial._trusted(real, ghost), coeff))
        stack.extend((e.dst, tail + (e.name,)) for e in reversed(es))


def reference_position_of(decomposition, path):
    """(block number, index) of a sink-ended path, from a {Path: position} map."""
    position = {
        p: (bi, j)
        for bi, block in enumerate(decomposition.blocks)
        for j, p in enumerate(block)
    }
    try:
        return position[path]
    except KeyError:
        raise PreconditionError(f"path {path!r} does not end at a decomposed sink") from None


def reference_to_matrix(x, decomposition):
    if x.graph != decomposition.graph:
        raise PreconditionError("element and decomposition disagree on the graph")
    g = x.graph
    blocks = [[{} for _ in range(n)] for n in decomposition.sizes]
    expanded = []
    for m, c in x.terms.items():
        _reference_expand_to_sinks(g, m, c, expanded)
    for m, c in expanded:
        bi, j = reference_position_of(decomposition, m.real)
        bj, k = reference_position_of(decomposition, m.ghost)
        if bi != bj:
            raise PreconditionError("monomial straddles two blocks; decomposition is stale")
        _add(blocks[bi][j], k, c)
    return L.BlockMatrix(L.Matrix.from_row_dicts(rows, len(rows), x.field) for rows in blocks)


def _add(row, j, c):
    row[j] = row[j] + c if j in row else c


def _reference_basis_index(path, loop_edge, connector, sink):
    """Index of a path among b0 = w, b_{k+1} = e^k f; None if not basis-shaped."""
    if path.is_trivial:
        return 0 if path.source == sink else None
    if path.edges[-1] != connector:
        return None
    if any(e != loop_edge for e in path.edges[:-1]):
        return None
    return len(path.edges)


def _reference_loop_power(path, loop_edge):
    if any(e != loop_edge for e in path.edges):
        return None
    return len(path.edges)


def reference_window_rows(x, window):
    """The Toeplitz window of x as N row dicts: monomials ending at the sink
    act with rank one, monomials ending at the loop vertex as a partial
    shift."""
    d = L.recognize_toeplitz(x.graph)
    if d is None or not d.is_canonical:
        raise PreconditionError("the matrix picture needs the canonical loop-plus-sink graph")
    loop_edge, connector, sink = d.loop_edge, d.connectors[0], d.subgraph.vertices[0]
    if window < 1:
        raise PreconditionError("window size must be positive")
    rows = [{} for _ in range(window)]
    outside = []
    for m, c in x.terms.items():
        if m.real.range == sink:
            i = _reference_basis_index(m.real, loop_edge, connector, sink)
            j = _reference_basis_index(m.ghost, loop_edge, connector, sink)
            if i is None or j is None:
                raise PreconditionError("monomial does not act on the sink module")
            if i >= window or j >= window:
                outside.append((i, j))
            else:
                _add(rows[i], j, c)
        else:
            creal = _reference_loop_power(m.real, loop_edge)
            aghost = _reference_loop_power(m.ghost, loop_edge)
            if creal is None or aghost is None:
                raise PreconditionError("monomial does not act on the sink module")
            for j in range(aghost + 1, window):
                i = j - aghost + creal
                if i < window:
                    _add(rows[i], j, c)
    if outside:  # the least outside support is named, whatever the term order
        raise PreconditionError(
            f"window {window} too small: support at {min(outside)} falls outside"
        )
    return rows


# ---------------------------------------------------------------------------
# The faithful sink-path action, a product oracle on every graph with
# essential socle. There every vertex connects to a line point, so to a sink,
# and L_K(E) acts faithfully on the span of the paths into the sinks: p q*
# sends q t to p t and every other such path to 0. No path into a sink is a
# proper prefix of q, since a sink emits no edge, so nothing else survives.


def sink_paths_up_to(g, length):
    """Every path (source, edges) into a sink with at most ``length`` edges,
    grown backwards from the sinks one edge at a time."""
    emitting = {e.src for e in g.edges}
    level, out = [(w, ()) for w in g.vertices if w not in emitting], []
    for _ in range(length + 1):
        out += level
        level = [(e.src, (e.name, *edges)) for v, edges in level for e in g.edges if e.dst == v]
    return out


def sink_path_action(x, vector):
    """x applied to a vector {(source, edges): coefficient} of paths into the sinks."""
    out = {}
    for m, c in x.terms.items():
        q, k = m.ghost, m.ghost.length
        for (source, edges), a in vector.items():
            if source == q.source and edges[:k] == q.edges:
                _add(out, (m.real.source, m.real.edges + edges[k:]), c * a)
    return {t: c for t, c in out.items() if c}


# ---------------------------------------------------------------------------
# The expression parser as it was before words folded to one monomial: one
# normal-form Element per atom and per product, over a token list built
# before parsing starts. Kept as the oracle for the one-pass parser; it
# shares neither scanner nor fold with it.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/()'])|(?P<bad>\S))"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise L.ExpressionSyntaxError(
                f"unexpected character {m.group('bad')!r} at position {m.start('bad')}"
            )
        value = m.group(kind)
        tokens.append((kind, int(value) if kind == "int" else value))
    return tokens


class _ReferenceParser:
    element = Element  # the algebra the parsed expression is evaluated in

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
            raise L.ExpressionSyntaxError(f"expected {sym!r}, got {value!r}")

    def parse(self):
        result = self.expr()
        if self.pos != len(self.tokens):
            raise L.ExpressionSyntaxError(f"trailing input at token {self.peek()[1]!r}")
        return result

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
                    raise L.ExpressionSyntaxError("expected positive integer denominator")
                coeff = self.field.scalar(numerator, den)
            else:
                coeff = self.field.scalar(numerator)
            if self.peek() == ("sym", "*"):
                self.pos += 1
            elif numerator == 0 and not coeff:
                return self.element.zero(self.graph, self.field)
            else:
                raise L.ExpressionSyntaxError("a scalar must multiply a factor")
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
            if value in self.graph._vindex:
                return self.element.vertex(self.graph, value, self.field)
            if value in self.graph._eindex:
                return self.element.edge(self.graph, value, self.field)
            raise L.UnknownIdentifier(
                f"unknown identifier {value!r} in graph {self.graph.name!r}"
            )
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise L.ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        raise L.ExpressionSyntaxError(f"expected identifier or '(', got {value!r}")


def reference_parse_element(graph, text, field=L.QQ, parser=_ReferenceParser):
    tokens = _tokenize(text)
    if not tokens:
        raise L.ExpressionSyntaxError("empty expression")
    return parser(graph, tokens, field).parse()


# ---------------------------------------------------------------------------
# The expression parser as it was before it read a token list: one scan of
# the text through a position index, one pattern match per scalar prefix and
# per run of generators, then a findall over the run. Kept verbatim (renamed,
# and evaluated in ScalarElement, the scalar-storing elements of its time) as
# the oracle the token-list parser is diffed against.

_SCAN_BAD = re.compile(r"[^\s\dA-Za-z_\-+*/()']")
_SCAN_SPACE = re.compile(r"\s*")
# integer, then '/' and maybe a denominator, then maybe '*'; the caller
# tells the cases apart, so every error keeps its message
_SCAN_SCALAR = re.compile(r"\s*(\d+)\s*(?:(/)\s*(\d+)?\s*)?(\*)?")
# a whole run of generators, then whether a '*' follows it
_SCAN_RUN = re.compile(rf"\s*({IDENT}(?:\s*')*(?:\s*\*\s*{IDENT}(?:\s*')*)*)\s*(\*)?")
_SCAN_GENERATOR = re.compile(rf"({IDENT})((?:\s*')*)")
# the token an error message names: an int, a name or symbol, None at the end
_SCAN_TOKEN = re.compile(rf"\s*(?:(\d+)|({IDENT}|\S))")


class OnePassScanParser:
    def __init__(self, graph, text, field):
        self.graph = graph
        self.text = text
        self.field = field
        self.pos = self.depth = 0

    def next_char(self):
        """The next character that is not whitespace, '' at the end; pos
        moves onto it."""
        pos = self.pos = _SCAN_SPACE.match(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def token(self):
        m = _SCAN_TOKEN.match(self.text, self.pos)
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
        m = _SCAN_SCALAR.match(text, self.pos)
        if not m:
            coeff = field.scalar(sign)
        else:
            numerator, slash, den, star = m.groups()
            numerator = sign * int(numerator)
            if slash:
                if not den or not int(den):
                    raise ExpressionSyntaxError("expected positive integer denominator")
                coeff = field.scalar(numerator, int(den))
            else:
                coeff = field.scalar(numerator)
            self.pos = m.end()
            if not star:
                if numerator == 0 and not coeff:
                    return []
                raise ExpressionSyntaxError("a scalar must multiply a factor")
        # the Element of the factors before the pending run; the run's key,
        # False once it is 0
        product = word = None
        while True:
            m = _SCAN_RUN.match(text, self.pos)
            if m:  # a run ends at the term's end or at a parenthesised factor
                self.pos = m.end()
                word = self.fold(m.start(1), m.end(1))
                if not m[2]:
                    break
                continue
            value = self.factor()
            if word is not None:
                value = ScalarElement._from_raw(g, field, [(word, one())] if word else []) * value
            product, word = value if product is None else product * value, None
            if self.next_char() != "*":
                break
            self.pos += 1
        if product is None:
            return [(word, coeff)] if word else []
        if word is not None:
            product = product * ScalarElement._from_raw(g, field, [(word, one())] if word else [])
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
        for name, primes in _SCAN_GENERATOR.findall(self.text, start, end):
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
        value = ScalarElement._from_raw(self.graph, self.field, self.expr())
        if self.next_char() != ")":
            raise ExpressionSyntaxError(f"expected ')', got {self.token()!r}")
        self.pos += 1
        self.depth -= 1
        while self.next_char() == "'":
            self.pos += 1
            value = value.star()
        return value


def one_pass_scan_parse_element(graph, text, field=L.QQ):
    bad = _SCAN_BAD.search(text)
    if bad:
        raise ExpressionSyntaxError(f"unexpected character {bad[0]!r} at position {bad.start()}")
    parser = OnePassScanParser(graph, text, field)
    if not parser.next_char():
        raise ExpressionSyntaxError("empty expression")
    raw = parser.expr()
    if parser.next_char():
        raise ExpressionSyntaxError(f"trailing input at token {parser.token()!r}")
    return ScalarElement._from_raw(graph, field, raw)



# ---------------------------------------------------------------------------
# The Monomial-keyed kernel as it was before elements stored their normal
# forms as flat edge-tuple keys: the rewrite step, the normaliser, the
# pairwise monomial product, the element arithmetic and the printer, kept
# verbatim (renamed, and the printer's sign test spelt out) as the
# reference the flat kernel is diffed against.


def parent_reduce_once(m, coeff):
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


def parent_normalize_terms(graph, terms, chooser=None):
    result = {}
    pending = list(terms)
    designated = L.graph._designated_edges(graph)
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
            shorter, siblings = parent_reduce_once(m, c)
            pending.append(shorter)
            pending.extend(siblings)
    return result


def parent_monomial_product(a, b):
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


class ParentElement:
    """The element class as it was, over {Monomial: coefficient} terms."""

    __slots__ = ("graph", "field", "terms")

    def __init__(self, graph, field, raw_terms, _normal=False):
        self.graph = graph
        self.field = field
        if _normal:
            self.terms = dict(raw_terms)
        else:
            if isinstance(raw_terms, dict):
                raw_terms = raw_terms.items()
            self.terms = parent_normalize_terms(graph, raw_terms)

    @classmethod
    def zero(cls, graph, field=L.QQ):
        return cls(graph, field, {}, _normal=True)

    @classmethod
    def vertex(cls, graph, v, field=L.QQ):
        t = Path.trivial(graph, v)
        return cls(graph, field, {Monomial._trusted(t, t): field.one()}, _normal=True)

    @classmethod
    def edge(cls, graph, name, field=L.QQ):
        e = graph.edge(name)
        p, t = Path._trusted(graph, e.src, (name,), e.dst), Path._trusted(graph, e.dst, (), e.dst)
        return cls(graph, field, {Monomial._trusted(p, t): field.one()}, _normal=True)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, monomial):
        return self.terms.get(monomial, self.field.zero())

    def real_degree(self):
        return max((m.real.length for m in self.terms), default=0)

    def ghost_degree(self):
        return max((m.ghost.length for m in self.terms), default=0)

    def total_degree(self):
        return max((m.total_length for m in self.terms), default=0)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            acc = c if acc is None else acc + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return ParentElement(self.graph, self.field, terms, _normal=True)

    def __neg__(self):
        return ParentElement(
            self.graph, self.field, {m: -c for m, c in self.terms.items()}, _normal=True
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return ParentElement.zero(self.graph, self.field)
        return ParentElement(
            self.graph, self.field, {m: c * scalar for m, c in self.terms.items()}, _normal=True
        )

    def __mul__(self, other):
        raw = []
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                for m in parent_monomial_product(ma, mb):
                    raw.append((m, ca * cb))
        return ParentElement(self.graph, self.field, raw)

    def star(self):
        return ParentElement(
            self.graph,
            self.field,
            {m.star(): c for m, c in self.terms.items()},
            _normal=True,
        )

    def __eq__(self, other):
        return (
            self.graph == other.graph
            and self.field == other.field
            and self.terms == other.terms
        )


class ParentParser(_ReferenceParser):
    element = ParentElement


def parent_format_monomial(m):
    if not m.total_length:
        return m.real.source
    parts = list(m.real.edges)
    parts += [name + "'" for name in reversed(m.ghost.edges)]
    return "*".join(parts)


def parent_format_element(x):
    if x.is_zero():
        return "0"
    field = x.field
    one, ordered = field.one(), field == L.QQ  # prime-field residues print unsigned
    out = []
    for m, c in x.sorted_terms():
        negative = ordered and c < 0
        mag = -c if negative else c
        body = (
            parent_format_monomial(m) if mag == one
            else f"{mag}*{parent_format_monomial(m)}"
        )
        sign = ("- " if out else "-") if negative else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)


def item_sorting_format_element(x):
    """The printer as it was before it sorted keys: it sorts the (key,
    coefficient) items and builds both edge-index tuples of every term."""
    if x.is_zero():
        return "0"
    vindex, eindex = x.graph._vindex, x.graph._eindex.__getitem__

    def basis_order(item):  # Monomial.sort_key, flattened
        (s, p, t, q), _ = item
        return vindex[s], tuple(map(eindex, p)), vindex[t], tuple(map(eindex, q))

    out = []
    for k, c in sorted(scalar_items(x), key=basis_order):
        text = str(c)  # a sign only over QQ
        mag = text.removeprefix("-")
        body = _spell(k) if mag == "1" else f"{mag}*{_spell(k)}"
        sign = ("- " if out else "-") if mag != text else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# The flat kernel as it was before each term was expanded in one loop: one
# rewrite step per pop, the shorter descendant pushed back onto the stack.
# Kept verbatim (renamed) as the reference the one-loop kernel is diffed
# against, in value and in insertion order.


def stack_reduce_once(g, key):
    """One application of the rewrite rule to a non-basis key: (shorter,
    siblings). The shorter descendant keeps the coefficient and may need
    further rewriting; the siblings negate it and end in a non-designated
    edge, so they are basis keys. An edge that is the only one out of its
    source has no siblings, so a run of such common last edges is one cut."""
    source, real, ghost_source, ghost = key
    edges, eindex, out = g.edges, g._eindex, g._out
    f = edges[eindex[real[-1]]]
    exits, k = out[f.src], 1
    if len(exits) == 1:
        n = min(len(real), len(ghost))
        while k < n and real[-1 - k] == ghost[-1 - k]:
            if len(out[edges[eindex[real[-1 - k]]].src]) != 1:
                break
            k += 1
    p, q = real[:-k], ghost[:-k]
    siblings = [(source, p + (e.name,), ghost_source, q + (e.name,)) for e in exits if e != f]
    return (source, p, ghost_source, q), siblings


def stack_normal_form(g, pending):
    """The normal form {key: coefficient} of a raw list of (key, coefficient),
    which it consumes as a stack, so the list stays as short as a depth-first
    walk of the rewrite tree. A list whose ``pop`` takes another term yields the
    same result (the confluence tests pop at random)."""
    result = {}
    designated = L.graph._designated_edges(g)
    while pending:
        key, c = pending.pop()
        if not c:
            continue
        real, ghost = key[1], key[3]
        if real and ghost and real[-1] == ghost[-1] and real[-1] in designated:
            shorter, siblings = stack_reduce_once(g, key)
            pending.append((shorter, c))
            basis, c = reversed(siblings), -c  # in the order a stack would pop them
        else:
            basis = (key,)
        for k in basis:
            acc = result.get(k)
            acc = c if acc is None else acc + c
            if acc:
                result[k] = acc
            else:
                del result[k]
    return result


def rose(n):
    """One vertex v with n loops e1..en: L_K of it is the Leavitt algebra L(1, n)."""
    return Graph(f"rose{n}", ["v"], [(f"e{i}", "v", "v") for i in range(1, n + 1)])


def rose_feeding_sink(n):
    """u with n loops e1..en and one edge f: u -> w: n^(k-1) paths of length k into w."""
    loops = [(f"e{i}", "u", "u") for i in range(1, n + 1)]
    return Graph(f"rose{n}_to_w", ["u", "w"], loops + [("f", "u", "w")])


def adjacency_path_counts(g, sources, backwards=False, keep=None, up_to=6):
    """An oracle for ``graph._path_counts`` that walks no path: level k is read
    off the k-th power of the adjacency matrix A over exact integers, A[u][v]
    the number of edges u -> v. Forwards it holds sum over s in sources of
    A^k[s][v] at v; backwards, sum over t in sources of A^k[v][t]. A vertex
    w without keep(w) has its column (forwards) or its row (backwards) of A
    zeroed. The levels end at the first empty one, or after length up_to."""
    index = {v: i for i, v in enumerate(g.vertices)}
    rows = [[0] * len(index) for _ in index]
    for e in g.edges:
        rows[index[e.src]][index[e.dst]] += 1
    for w in g.vertices:
        if keep is not None and not keep(w):
            if backwards:
                rows[index[w]] = [0] * len(index)
            else:
                for row in rows:
                    row[index[w]] = 0
    A = Matrix([[L.QQ.scalar(x) for x in r] for r in rows])
    power, levels = Matrix.identity(len(index)), []
    ends = [index[s] for s in set(sources)]
    for _ in range(up_to + 1):
        level, dense = {}, power.rows
        for v, i in index.items():
            n = sum(dense[i][t] if backwards else dense[t][i] for t in ends)
            if n:
                level[v] = n
        if not level:
            break
        levels.append(level)
        power = power * A
    return levels


def rose_power_product(n, k, field=L.QQ):
    """x * x.star() for x = (e1 + ... + en)^k on rose(n): on rose(4) it has
    1, 13, 205, 3,277 and 52,429 terms for k = 0..4."""
    s = "(" + " + ".join(f"e{i}" for i in range(1, n + 1)) + ")"
    x = L.parse_element(rose(n), "*".join([s] * k) or "v", field)
    return x * x.star()


# ---------------------------------------------------------------------------
# Path families as they were built before every family grew backwards from
# its targets: forward enumerations that validate each appended edge, a
# per-vertex walker for bifurcation-free graphs with its own decomposition
# branch, a suffix-stripping loop, and the restriction embedding as element
# products. Kept as oracles; none of them calls the shared enumerator.


def shuffled(g, rng):
    """g with its vertices and its edges declared in a random order."""
    vertices, edges = list(g.vertices), list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(g.name, vertices, edges)


def random_acyclic_graph(rng, max_vertices=6, max_edges=8, bifurcation_free=False):
    """Edges go forward in a random order of the vertices; bifurcation-free
    graphs give each vertex at most one edge. Declarations are shuffled."""
    n = rng.randint(1, max_vertices)
    order = [f"v{i}" for i in range(n)]
    rng.shuffle(order)
    edges = []
    if bifurcation_free:
        for i in range(n - 1):
            if rng.random() < 0.7:
                edges.append((f"e{i}", order[i], order[rng.randrange(i + 1, n)]))
    else:
        for k in range(rng.randint(0, max_edges) if n > 1 else 0):
            i = rng.randrange(n - 1)
            edges.append((f"e{k}", order[i], order[rng.randrange(i + 1, n)]))
    return shuffled(Graph(f"dag{n}_{len(edges)}", order, edges), rng)


def reference_paths_up_to(g, length):
    layers = [[Path.trivial(g, v) for v in g.vertices]]
    for _ in range(length):
        prev = layers[-1]
        layers.append([p.append(e.name) for p in prev for e in g.out_edges(p.range)])
    out = [p for layer in layers for p in layer]
    out.sort(key=Path.sort_key)
    return out


def reference_entry_paths(g, members, length):
    out = []
    frontier = [
        Path.from_edges(g, [e.name])
        for v in g.vertices
        if v not in members
        for e in g.out_edges(v)
    ]
    for _ in range(length):
        nxt = []
        for p in frontier:
            if p.range in members:
                out.append(p)
            else:
                nxt.extend(p.append(e.name) for e in g.out_edges(p.range))
        frontier = nxt
    out.sort(key=lambda p: (p.length, p.sort_key()))
    has_longer = any(p.range in members for p in frontier)
    return out, not has_longer


def reference_reduced_expression(m):
    g = m.graph
    if not L.is_acyclic_no_bifurcation(g):
        raise PreconditionError("reduced expressions need an acyclic bifurcation-free graph")
    real, ghost = m.real.edges, m.ghost.edges
    k, n = 0, min(len(real), len(ghost))
    while k < n and real[-1 - k] == ghost[-1 - k]:
        k += 1
    if not k:
        return m.real, m.ghost
    at = g.edge(real[-k]).src
    return tuple(Path._trusted(g, p.source, p.edges[:-k], at) for p in (m.real, m.ghost))


def reference_paths_to_sink(g, vertices):
    tail = {}
    for v in vertices:
        chain = []
        at = v
        while at not in tail:
            es = g.out_edges(at)
            if not es:
                tail[at] = ((), at)
                break
            chain.append((at, es[0].name))
            at = es[0].dst
        edges, sink = tail[at]
        for u, name in reversed(chain):
            edges = (name,) + edges
            tail[u] = (edges, sink)
    return [Path._trusted(g, v, *tail[v]) for v in vertices]


def reference_paths_into(g, sink, bound=None):
    found = [(sink, ())]
    level = found
    while level and (bound is None or len(found) < bound):
        level = [(e.src, (e.name,) + edges) for v, edges in level for e in g.in_edges(v)]
        level.sort(key=lambda p: tuple(map(g.edge_index, p[1])))
        found.extend(level)
    return [Path._trusted(g, v, edges, sink) for v, edges in found[:bound]]


def reference_matrix_decomposition(g):
    """(kind, [(labels, paths) per block]) from the two-branch construction."""
    if not L.is_acyclic(g):
        raise PreconditionError("matrix decomposition needs an acyclic graph")
    blocks = []
    if L.is_acyclic_no_bifurcation(g):
        for component in L.connected_components(g):
            paths = reference_paths_to_sink(g, component.vertices)
            blocks.append((component.vertices, tuple(paths)))
        return "vertices", blocks
    for sink in g.sinks():
        paths = reference_paths_into(g, sink)
        labels = [".".join(p.edges) if p.edges else sink for p in paths]
        blocks.append((tuple(labels), tuple(paths)))
    return "sink_paths", blocks


def reference_reduced_monomial_basis(g):
    if not L.is_acyclic_no_bifurcation(g):
        raise PreconditionError("reduced monomial basis needs an acyclic bifurcation-free graph")
    out = []
    for component in L.connected_components(g):
        to_sink = dict(zip(component.vertices, reference_paths_to_sink(g, component.vertices)))
        for vj in component.vertices:
            for vk in component.vertices:
                real, ghost = reference_reduced_expression(Monomial(to_sink[vj], to_sink[vk]))
                out.append(Monomial(real, ghost))
    return out


def reference_restriction_embedding(rg, y):
    """Generator images multiplied out: u in H -> u, path-vertex for alpha
    -> alpha alpha*, E-edge -> itself, bar edge for alpha -> alpha."""
    if y.graph != rg.graph:
        raise PreconditionError("element is not over this restriction graph")
    E = rg.source
    field = y.field
    path_for = {}
    for p in rg.entry_paths:
        path_for[rg.vertex_for(p)] = path_for[rg.bar_edge_for(p)] = p

    def vertex_image(v):
        if v in path_for:
            a = Element.from_path(path_for[v], field)
            return a * a.star()
        return Element.vertex(E, v, field)

    def path_image(path):
        acc = vertex_image(path.source)
        for name in path.edges:
            if name in path_for:
                step = Element.from_path(path_for[name], field)
            else:
                step = Element.edge(E, name, field)
            acc = acc * step
        return acc

    total = Element.zero(E, field)
    for m, c in y.terms.items():
        total = total + (path_image(m.real) * path_image(m.ghost).star()).scale(c)
    return total


def reference_mu_candidates(p):
    """The denominator-path candidates with duplicates found by a scan of a
    list of the paths emitted so far."""
    g = p.graph
    bound = p.ghost_degree()
    ghosts = sorted(
        {m.ghost for m in p.terms},
        key=lambda q: (-q.length, q.sort_key()),
    )
    seen = []

    def emit(path):
        if path not in seen:
            seen.append(path)
            return True
        return False

    for q in ghosts:
        for cut in range(q.length, -1, -1):
            at = q.range if cut == q.length else g.edge(q.edges[cut]).src
            prefix = Path._trusted(g, q.source, q.edges[:cut], at)
            if emit(prefix):
                yield prefix
    frontier = list(ghosts)
    while frontier:
        nxt = []
        for q in frontier:
            if q.length >= bound:
                continue
            for e in g.out_edges(q.range):
                ext = q.append(e.name)
                if emit(ext):
                    yield ext
                nxt.append(ext)
        frontier = nxt


# ---------------------------------------------------------------------------
# The sink-path module as it stood before MatrixDecomposition indexed its own
# paths: a verbatim copy of the class, built from a decomposition's blocks,
# and the position_of and to_matrix that forwarded to it.


class PathModule:
    """The left action of L_K(E) on the span of the paths into the sinks of
    a finite acyclic graph.

    The basis is ``paths``, every path into each sink, in one block per sink
    (in order of first appearance) and indexed within its block. p q* sends
    a basis path q t to p t, again a basis path, and every other basis path
    to 0. ``shift`` maps each basis path t at r(P) to the index of P t.
    It is kept once computed (two threads that race store equal dicts), so
    each matrix entry of ``act`` costs one dict lookup.
    """

    __slots__ = ("paths", "sizes", "_index", "_block", "_starting", "_shifts")

    def __init__(self, paths):
        self.paths = tuple(paths)
        blocks, self._index, self._block, self._starting = {}, {}, [], {}
        for k, p in enumerate(self.paths):
            at = blocks.setdefault(p.range, [len(blocks), 0])  # [block, paths so far]
            self._index[p.source, p.edges] = tuple(at)
            at[1] += 1
            self._block.append(at[0])
            self._starting.setdefault(p.source, []).append(k)
        self.sizes = tuple(n for _, n in blocks.values())
        self._shifts = {}

    def position(self, path):
        """(block, index) of a basis path; None for any other path."""
        return self._index.get((path.source, path.edges))

    def shift(self, source, edges, at):
        """{k: index of P . paths[k]} over the basis paths k at r(P) = at, for
        the path P from ``source`` along ``edges``."""
        key = (source, edges)
        out = self._shifts.get(key)
        if out is None:
            index, paths = self._index, self.paths
            out = self._shifts[key] = {
                k: index[source, edges + paths[k].edges][1] for k in self._starting.get(at, ())
            }
        return out

    def act(self, x):
        """x as one Matrix per block: entry (i, j) is the coefficient of the
        i-th path in x times the j-th. A row is made only when an entry lands
        in it, and the constructor drops the sums that cancel."""
        blocks = [{} for _ in self.sizes]
        block, shift = self._block, self.shift
        edges, eindex = x.graph.edges, x.graph._eindex
        for (source, p, ghost_source, q), c in scalar_items(x):
            at = edges[eindex[p[-1]]].dst if p else source
            ghost = shift(ghost_source, q, at)
            for k, i in shift(source, p, at).items():
                j = ghost.get(k)
                if j is not None:
                    add_entry(blocks[block[k]].setdefault(i, {}), j, c)
        return [
            Matrix.from_row_dicts([r.get(i, {}) for i in range(n)], n, x.field)
            for r, n in zip(blocks, self.sizes)
        ]


def parent_path_module(decomposition):
    return PathModule(p for b in decomposition.blocks for p in b)


def parent_position_of(module, decomposition, path):
    """(block number, index) of a sink-ended path."""
    at = module.position(path) if path.graph == decomposition.graph else None
    if at is None:
        raise PreconditionError(f"path {path!r} does not end at a decomposed sink")
    return at


def parent_to_matrix(module, x, decomposition):
    """The block-matrix image of x; a linear and multiplicative bijection."""
    if x.graph != decomposition.graph:
        raise PreconditionError("element and decomposition disagree on the graph")
    return L.BlockMatrix(module.act(x))


# ---------------------------------------------------------------------------
# The quotient rules as they stood before each term was read off its range:
# verbatim copies of the scan over sources and edges, and of the loop test.


def parent_quotient_image(x, target):
    """pi(x) in L_K(target), for target = E/H with H hereditary saturated;
    the caller vouches for H."""
    if target == x.graph:
        return x
    vertices, edges = target._vindex, target._eindex
    raw = [
        (k, c) for k, c in scalar_items(x)
        if k[0] in vertices and k[2] in vertices and all(e in edges for e in k[1] + k[3])
    ]
    return from_scalar_raw(target, x.field, raw)


def parent_laurent_image(x, d):
    """E/F0 is the loop e at v alone, so a term c e^a (e^b)* maps to
    c x^(a - b) and every term that touches F0 maps to 0."""
    v, loop = d.loop_vertex, {d.loop_edge}
    coeffs = {}
    for (source, p, ghost_source, q), c in scalar_items(x):
        if source == ghost_source == v and loop.issuperset(p + q):
            add_entry(coeffs, len(p) - len(q), c)
    return LaurentPoly(coeffs, x.field)


def parent_basis_monomials_up_to(g, d):
    """All basis monomials with l(p) + l(q) <= d, sorted by total length then
    key: a verbatim copy of the enumeration that sorted its range groups and
    re-checked each monomial's shared range."""
    if d < 0:
        raise PreconditionError("degree bound must be nonnegative")
    by_range = {}
    for p in L.paths_up_to(g, d):
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


def parent_strongly_connected_components(g):
    """The components as a tuple of frozensets, in discovery order of
    Tarjan's algorithm, run iteratively: a verbatim copy of the search that
    Kosaraju's two passes over ``_reach`` replaced (without the memo)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g._out[root]))]
        while work:
            v, it = work[-1]
            for e in it:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g._out[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                    comps.append(frozenset(comp))
    return tuple(comps)


def parent_connected_components(g):
    """Partition into undirected components, each an induced subgraph: a
    verbatim copy of the depth-first labelling that the shared undirected
    search replaced.

    Components are ordered by their least vertex in declaration order, and
    carry vertices and edges in the parent graph's declaration order.
    """
    comp_of = {}
    parts = []  # (vertices, edges) of each component
    for v in g.vertices:
        if v in comp_of:
            continue
        comp_of[v] = len(parts)
        parts.append(([], []))
        stack = [v]
        while stack:
            x = stack.pop()
            for e in g._out[x] + g._in[x]:
                for y in (e.src, e.dst):
                    if y not in comp_of:
                        comp_of[y] = comp_of[v]
                        stack.append(y)
    for v in g.vertices:
        parts[comp_of[v]][0].append(v)
    for e in g.edges:
        parts[comp_of[e.src]][1].append(e)
    return tuple(Graph(f"{g.name}_c{i}", vs, es) for i, (vs, es) in enumerate(parts))


# ---------------------------------------------------------------------------
# The vertex sets as they were when a VertexSet held its graph: verbatim
# copies (without the memo) of the wrapper, its member check, the analyzers
# that returned one and the quotient constructions that checked H, kept as
# the oracle for the graph-free VertexSet.


class ParentVertexSet:
    """Subset of E0 attached to a graph, iterated in declaration order."""

    __slots__ = ("graph", "members")

    def __init__(self, graph, members):
        members = frozenset(members)
        for v in members:
            graph.vertex_index(v)
        self.graph = graph
        self.members = members

    def ordered(self):
        return tuple(v for v in self.graph.vertices if v in self.members)

    def __contains__(self, v):
        return v in self.members

    def __iter__(self):
        return iter(self.ordered())

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if isinstance(other, ParentVertexSet):
            return self.graph == other.graph and self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == other
        return NotImplemented

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"VertexSet({list(self.ordered())})"


def parent_as_members(g, X):
    if isinstance(X, ParentVertexSet):
        if X.graph != g:
            raise L.GraphMismatch("vertex set belongs to a different graph")
        return X.members
    members = frozenset(X)
    for v in members:
        g.vertex_index(v)
    return members


def parent_tree(g, v):
    """T(v): every vertex reachable from v by a directed path, v included."""
    g.vertex_index(v)
    return ParentVertexSet(g, _reach(g, (v,)))


def parent_tree_of_set(g, X):
    return ParentVertexSet(g, _reach(g, parent_as_members(g, X)))


def parent_bifurcations(g):
    """Vertices emitting at least two edges."""
    return ParentVertexSet(g, frozenset(v for v in g.vertices if len(g.out_edges(v)) >= 2))


def parent_line_points(g):
    """Vertices u whose tree T(u) has no bifurcations and meets no cycle:
    by backwards reachability, those reaching no bifurcation and no vertex
    on a cycle."""
    blocked = parent_bifurcations(g).members | vertex_on_a_cycle(g)
    return ParentVertexSet(g, frozenset(set(g.vertices) - _reach(g, blocked, backwards=True)))


def parent_is_hereditary(g, X):
    """v >= w and v in X imply w in X; equivalently, every edge with source
    in X has its range in X."""
    members = parent_as_members(g, X)
    return all(e.dst in members for e in g.edges if e.src in members)


def parent_hereditary_saturated_closure(g, X):
    closure = _reach(g, parent_as_members(g, X))
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
    return ParentVertexSet(g, closure)


def parent_require_hereditary(g, H):
    members = parent_as_members(g, H)
    if not parent_is_hereditary(g, members):
        raise PreconditionError("H is not hereditary")
    return members


def parent_quotient_graph(g, H):
    members = parent_require_hereditary(g, H)
    if not members:
        return g
    vertices = [v for v in g.vertices if v not in members]
    edges = [e for e in g.edges if e.dst not in members]
    name = f"{g.name}_mod_" + "_".join(v for v in g.vertices if v in members)
    return Graph(name, vertices, edges)


def parent_restriction_graph(g, H, bound):
    members = parent_require_hereditary(g, H)
    if not members:
        raise PreconditionError("restriction graph needs a nonempty H")
    if bound < 1:
        raise PreconditionError("length bound must be at least 1")
    paths, complete = _entry_paths(g, members, bound)
    h_order = [v for v in g.vertices if v in members]
    vertices = h_order + [L.RestrictionGraph.vertex_for(p) for p in paths]
    edges = [(e.name, e.src, e.dst) for e in g.edges if e.src in members]
    edges += [
        (L.RestrictionGraph.bar_edge_for(p), L.RestrictionGraph.vertex_for(p), p.range)
        for p in paths
    ]
    built = Graph(f"{g.name}_restrict", vertices, edges)
    return L.RestrictionGraph(g, frozenset(members), built, tuple(paths), bound, complete)


# ---------------------------------------------------------------------------
# Products on the canonical Toeplitz graph as infinite matrices, with no
# rewrite kernel: on T every normal-form term is a cell or a diagonal run
# of the action on the paths into the sink, b_0 = w, b_{k+1} = e^k f.


def toeplitz_cells_and_runs(x):
    """x on a canonical Toeplitz graph as ({(a, b): c}, {(s, m): c}). A term
    ending at the sink is c E_(a,b), the cell b_b -> b_a, with a and b the
    lengths of its real and ghost paths; a term e^a (e^b)* ending at the
    loop vertex is c R_(a-b, b+1), the run b_k -> b_(k+a-b) for every
    k >= b + 1. Only the lengths are read: on T a path into the sink is
    b_k and a path into the loop vertex is a power of the loop."""
    sink = L.recognize_toeplitz(x.graph).subgraph.vertices[0]
    cells, runs = {}, {}
    for m, c in x.terms.items():
        a, b = m.real.length, m.ghost.length
        if m.real.range == sink:
            _add(cells, (a, b), c)
        else:
            _add(runs, (a - b, b + 1), c)
    return cells, runs


def compose_cells_and_runs(left, right):
    """The product of two cell-and-run descriptions, term by term:
    E_(a,b) E_(c,d) = [b = c] E_(a,d); R_(s,m) E_(c,d) = [c >= m] E_(c+s,d);
    E_(a,b) R_(t,n) = [b - t >= n] E_(a,b-t);
    R_(s,m) R_(t,n) = R_(s+t, max(n, m-t))."""
    (lcells, lruns), (rcells, rruns) = left, right
    cells, runs = {}, {}
    for (a, b), x in lcells.items():
        for (c, d), y in rcells.items():
            if b == c:
                _add(cells, (a, d), x * y)
        for (t, n), y in rruns.items():
            if b - t >= n:
                _add(cells, (a, b - t), x * y)
    for (s, m), x in lruns.items():
        for (c, d), y in rcells.items():
            if c >= m:
                _add(cells, (c + s, d), x * y)
        for (t, n), y in rruns.items():
            _add(runs, (s + t, max(n, m - t)), x * y)
    return cells, runs


def toeplitz_column(description, k):
    """Column k of the infinite matrix: {row: nonzero scalar}."""
    cells, runs = description
    column = {}
    for (a, b), c in cells.items():
        if b == k:
            _add(column, a, c)
    for (s, m), c in runs.items():
        if k >= m:
            _add(column, k + s, c)
    return {i: c for i, c in column.items() if c}


def toeplitz_run_ends(description):
    """The value each diagonal s takes far to the right: the sum of its
    runs, for the diagonals where that sum is not zero."""
    ends = {}
    for (s, _), c in description[1].items():
        _add(ends, s, c)
    return {s: c for s, c in ends.items() if c}


# ---------------------------------------------------------------------------
# The Toeplitz window and the sandwich report as they stood before the window
# was read in one pass over the terms and the units off one basis builder:
# each unit rebuilt its basis paths, re-checked the graph, and summed each
# diagonal with accumulate. Verbatim but for their names and imports.


def parent_window_rows(x, d, window):
    """The nonzero entries of the N x N window of x, as the rows {row: {column:
    scalar}} a ``Matrix`` stores. A cell (a, b) is the run over column b alone
    and may lie on a longer one (f f* is a normal form when the loop is
    designated), so each diagonal's runs are summed in order of their first
    column, as a step function."""
    if window < 1:
        raise PreconditionError("window size must be positive")
    if window > MAX_WINDOW:
        raise LimitExceeded(f"window {window} exceeds the bound {MAX_WINDOW}")
    g, sink = x.graph, d.subgraph.vertices[0]
    ranks, steps = [], {}
    for key, c in scalar_items(x):
        a, b = len(key[1]), len(key[3])
        step = steps.setdefault(a - b, {})
        if _range(g, key) == sink:
            ranks.append((a, b))
            add_entry(step, b, c)
            c = -c  # the cell's run stops after column b
        add_entry(step, b + 1, c)
    # the least (a, b) outside the window is named, whatever the term order
    outside = [ab for ab in ranks if max(ab) >= window]
    if outside:
        raise PreconditionError(
            f"window {window} too small: support at {min(outside)} falls outside"
        )
    rows = {}
    for shift, step in steps.items():
        end = min(window, window - shift)  # columns k with k, k + shift < N
        starts = sorted(step)
        sums = accumulate(step[k] for k in starts)
        for start, stop, total in zip(starts, starts[1:] + [end], sums):
            if total:
                for k in range(start, min(stop, end)):
                    rows.setdefault(k + shift, {})[k] = total
    return rows


def parent_socle_module_element(g, i, j, field=L.QQ):
    """The element mapping to the matrix unit E_ij: (b_i)(b_j)*, where b_k
    is the sink for k = 0 and e^(k-1) f else."""
    d = _canonical(g)
    if min(i, j) < 0:
        raise PreconditionError("matrix unit indices must be nonnegative")
    w, loop = d.subgraph.vertices[0], (d.loop_edge,)
    b_i, b_j = ((d.loop_vertex, loop * (k - 1) + d.connectors) if k else (w, ()) for k in (i, j))
    return from_scalar_raw(g, field, [(b_i + b_j, field.one())])


def parent_sandwich_report(g, degree_bound, window, field=L.QQ):
    """Window-level check of M_inf(K) <= T' <= RCFM(K).

    (a) socle basis monomials of total length <= d act with finite support;
    (b) every basis monomial's window is row- and column-finite;
    (c) matrix units E_jk for j, k <= N-2 are images of explicit socle
        elements built from the module basis paths.

    Part (a) asks max(i, j) < N - deg(x) - 1 of every cell (i, j), and
    e^(d-1) f is the cell (d, 0) at degree d, so a window N <= 2d + 1
    cannot decide it: the report then lists e^(d-1) f and its star as
    failures, rather than rejecting the window.
    """
    if window > MAX_SANDWICH_WINDOW:
        raise LimitExceeded(f"window {window} exceeds the sandwich bound {MAX_SANDWICH_WINDOW}")
    if degree_bound > MAX_DEGREE:
        raise LimitExceeded(f"degree {degree_bound} exceeds the bound {MAX_DEGREE}")
    d = _canonical(g)
    monomials = L.basis_monomials_up_to(g, degree_bound)
    socle_failures, finiteness_failures = [], []
    for m in monomials:
        x = Element.from_monomial(m, field)
        w = parent_rcfm_representation(x, window)
        if not (w.flags["row_finite_on_window"] and w.flags["col_finite_on_window"]):
            finiteness_failures.append(L.format_monomial(m))
        if L.in_socle(x) and not w.flags["finitely_supported"]:
            socle_failures.append(L.format_monomial(m))
    unit_failures = []
    one = field.one()
    for i, j in product(range(window - 1), repeat=2):
        x = parent_socle_module_element(g, i, j, field)
        if parent_window_rows(x, d, window) != {i: {j: one}}:
            unit_failures.append(f"E[{i}][{j}] != window({L.format_element(x)})")
    return {
        "window": window,
        "degree": degree_bound,
        "monomials_checked": len(monomials),
        "socle_finite_support_failures": socle_failures,
        "row_col_finiteness_failures": finiteness_failures,
        "matrix_unit_failures": unit_failures,
        "pass": not socle_failures and not finiteness_failures and not unit_failures,
    }


def parent_rcfm_representation(x, window):
    """Window of the left-multiplication action of x on L_K(E) w, read off
    parent_window_rows (the flags verbatim)."""
    rows = parent_window_rows(x, _canonical(x.graph), window)
    validity = max(window - x.total_degree(), 0)
    terms = max(x.support_size(), 1)
    columns = Counter(j for row in rows.values() for j in row)
    flags = {
        # nothing at or past the exact region's margin; shifts reach the border
        "finitely_supported": all(max(i, *row) < validity - 1 for i, row in rows.items()),
        "row_finite_on_window": max(map(len, rows.values()), default=0) <= terms,
        "col_finite_on_window": max(columns.values(), default=0) <= terms,
    }
    return MatrixWindow(Matrix._trusted(rows, window, window, x.field), validity, flags)


# ---------------------------------------------------------------------------
# The scalar-storing elements as they were before elements kept integer
# numerators over one denominator: the normal form stored as {key: field
# scalar}, with the operations that stored or read those scalars. Kept
# verbatim (renamed; the kernel call goes to ``stack_normal_form``, which
# matches the one-loop kernel in value and insertion order, and
# ``field.scaled`` to ``parent_scaled``) as the reference the integer
# encoding is diffed against.


def parent_scaled(field, values):
    """(ns, d): each value as an integer n over d, their least common
    denominator; over F_p the residues over 1."""
    if field != L.QQ:
        return [v.residue for v in values], 1
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class ScalarElement:
    """An element stored as {key: field scalar}; ``_of`` takes a stored form
    as it is."""

    __slots__ = ("graph", "field", "_flat")

    @classmethod
    def _of(cls, graph, field, flat):
        x = object.__new__(cls)
        x.graph, x.field, x._flat = graph, field, flat
        return x

    @classmethod
    def _from_raw(cls, graph, field, raw):
        """The normal form of a raw list of (key, coefficient)."""
        return cls._of(graph, field, stack_normal_form(graph, raw))

    @classmethod
    def of(cls, x):
        """The ScalarElement of an Element, its items in stored order."""
        return cls._of(x.graph, x.field, dict(scalar_items(x)))

    def is_zero(self):
        return not self._flat

    def total_degree(self):
        return max((len(k[1]) + len(k[3]) for k in self._flat), default=0)

    def __add__(self, other):
        # the stack pops self's terms first, in order, then other's
        raw = [*reversed(other._flat.items()), *reversed(self._flat.items())]
        return ScalarElement._from_raw(self.graph, self.field, raw)

    def __neg__(self):
        return ScalarElement._of(self.graph, self.field, {k: -c for k, c in self._flat.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return ScalarElement._of(self.graph, self.field, {})
        return ScalarElement._of(self.graph, self.field, {k: c * scalar for k, c in self._flat.items()})

    def __mul__(self, other):
        left, d_left = parent_scaled(self.field, self._flat.values())
        right, d_right = parent_scaled(self.field, other._flat.values())
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
        d, flat = d_left * d_right, stack_normal_form(self.graph, raw)
        # the integer sums become scalars in place; over F_p some vanish
        scalar, vanished = self.field.scalar, []
        for k, n in flat.items():
            flat[k] = c = scalar(n, d)
            if not c:
                vanished.append(k)
        for k in vanished:
            del flat[k]
        return ScalarElement._of(self.graph, self.field, flat)

    def star(self):
        flat = {(gs, ge, rs, re): c for (rs, re, gs, ge), c in self._flat.items()}
        return ScalarElement._of(self.graph, self.field, flat)

    def __eq__(self, other):
        return self.graph == other.graph and self.field == other.field and self._flat == other._flat


def scalar_items(x):
    """x's normal form as (key, field scalar) items, in stored order: a
    ScalarElement's own, or an Element's integers over its denominator as
    its public ``terms`` reads them."""
    if isinstance(x, ScalarElement):
        return list(x._flat.items())
    return [(_key(m), c) for m, c in x.terms.items()]


def from_scalar_raw(g, field, raw):
    """The Element of a raw list of (key, field scalar), through the public
    constructor, which takes the terms last first, as ``_from_raw`` does."""
    return Element(g, field, [(_monomial(g, k), c) for k, c in raw])


def assert_stored_form(x):
    """The stored invariant of an Element: int numerators, none zero, over an
    int den > 0; over QQ gcd(den, numerators) = 1, over F_p residues over 1."""
    den, values = x._den, list(x._flat.values())
    assert type(den) is int and den > 0, den
    assert all(type(n) is int and n for n in values), values
    if x.field == L.QQ:
        assert gcd(den, *values) == 1, (den, values)
    else:
        assert den == 1 and all(0 < n < x.field.p for n in values), (den, values)


def scalar_format_element(x):
    """Basis-ordered canonical string; parse_element inverts it."""
    flat = x._flat
    if not flat:
        return "0"
    vindex, eindex = x.graph._vindex, x.graph._eindex.__getitem__
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
        text = str(flat[k])  # a sign only over QQ
        mag = text.removeprefix("-")
        body = _spell(k) if mag == "1" else f"{mag}*{_spell(k)}"
        sign = ("- " if out else "-") if mag != text else ("+ " if out else "")
        out.append(sign + body)
    return " ".join(out)


def scalar_to_matrix(x, decomposition):
    d = decomposition
    if x.graph != d.graph:
        raise PreconditionError("element and decomposition disagree on the graph")
    sizes = d.sizes
    blocks = [{} for _ in sizes]
    g, index, starting = x.graph, d._index, d._starting
    for key, c in x._flat.items():
        source, p, ghost_source, q = key
        for t in starting[_range(g, key)]:
            b, i = index[source, p + t]
            add_entry(blocks[b].setdefault(i, {}), index[ghost_source, q + t][1], c)
    rows = (_nonzero(r.items()) for r in blocks)
    return L.BlockMatrix(Matrix._trusted(r, n, n, x.field) for r, n in zip(rows, sizes))


def scalar_from_matrix(bm, decomposition, field=None):
    if [m.shape for m in bm.blocks] != [(n, n) for n in decomposition.sizes]:
        raise PreconditionError("block sizes disagree with the decomposition")
    found = bm.blocks[0].field if bm.blocks else field or L.QQ
    if field not in (None, found):
        raise L.GraphMismatch(f"blocks over {found!r}, but the field given is {field!r}")
    raw = []
    for block, mat in zip(decomposition.blocks, bm.blocks):
        paths, rows = block, mat.nonzero_rows
        for j in sorted(rows):  # rows and columns in order, so the raw terms keep their order
            row, p = rows[j], paths[j]
            for k in sorted(row):
                raw.append(((p.source, p.edges, paths[k].source, paths[k].edges), row[k]))
    return ScalarElement._from_raw(decomposition.graph, found, raw)


def scalar_window_rows(x, d, window):
    if window < 1:
        raise PreconditionError("window size must be positive")
    if window > MAX_WINDOW:
        raise LimitExceeded(f"window {window} exceeds the bound {MAX_WINDOW}")
    g, sink, steps, least = x.graph, d.subgraph.vertices[0], {}, None
    for key, c in x._flat.items():
        a, b = len(key[1]), len(key[3])
        step = steps.setdefault(a - b, {})
        if _range(g, key) == sink:
            if max(a, b) >= window:  # the least outside is named, whatever the term order
                least = min(least, (a, b)) if least else (a, b)
            step[b] = step[b] + c if b in step else c
            c = -c  # the cell's run stops after column b
        b += 1
        step[b] = step[b] + c if b in step else c
    if least:
        raise PreconditionError(f"window {window} too small: support at {least} falls outside")
    rows = {}
    for shift, step in steps.items():
        end, total = min(window, window - shift), None  # columns k with k, k + shift < N
        for start, stop in pairwise((*sorted(step), end)):
            total = step[start] if total is None else total + step[start]
            if total:
                for k in range(start, min(stop, end)):
                    rows.setdefault(k + shift, {})[k] = total
    return rows


def scalar_laurent_image(x, d):
    g, v, coeffs = x.graph, d.loop_vertex, {}
    for key, c in x._flat.items():
        if _range(g, key) == v:
            add_entry(coeffs, len(key[1]) - len(key[3]), c)
    return LaurentPoly(coeffs, x.field)


def sort_key_basis_monomials_up_to(g, d):
    """All basis monomials with l(p) + l(q) <= d, by total length then key:
    a verbatim copy of the enumeration that sorted by ``Monomial.sort_key``,
    so by two ``Path.sort_key`` calls per monomial."""
    if d < 0:
        raise PreconditionError("degree bound must be nonnegative")
    if L.algebra._basis_pair_count(g, d) > L.algebra.MAX_BASIS_PAIRS:
        raise LimitExceeded(
            f"path pairs of total length <= {d} exceed the bound {L.algebra.MAX_BASIS_PAIRS}"
        )
    by_range, out = {}, []
    for a, level in zip(range(d + 1), L.graph._paths_ending_in(g, g.vertices)):
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
