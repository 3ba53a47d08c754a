"""Explicit semisimple structure of finite acyclic graphs.

A finite acyclic graph yields L_K(E) isomorphic to a direct sum of matrix
algebras, one block per sink, of size the number of paths into that sink
(trivial path included). Both kinds of decomposition come from these sink
paths: when the graph is additionally bifurcation-free, each undirected
component has a unique sink and every vertex carries a unique path to it,
so the block is indexed by the sources of its paths, the component's
vertices; the matrix units are then the reduced monomials mu_jk.

``MatrixDecomposition`` is the one index of these sink paths behind
``position_of``, ``to_matrix`` and ``from_matrix``. ``to_matrix`` is the
left action on their span: p q* sends a path q t to p t and every other
path to 0.

The isomorphism depends on the index order; here it is pinned to
declaration order (vertices) resp. (length, edge order) for sink paths, so
matrix images are reproducible.
"""

from __future__ import annotations

from itertools import product as cartesian_product

from .algebra import Element, Monomial, _range, full_basis
from .errors import (
    GraphMismatch,
    LimitExceeded,
    NotFoundWithinBounds,
    NotGroupInvertible,
    NotSquareCancellable,
    PreconditionError,
)
from .fields import QQ
from .graph import (
    _graph_fact,
    _path_counts,
    _paths_ending_in,
    is_acyclic,
    is_acyclic_no_bifurcation,
)
from .matrices import BlockMatrix, Matrix, _nonzero, add_entry

MAX_SINK_EDGES = 1 << 25  # edges in all the sink paths of one decomposition
MAX_WITNESS_POOL = 3**7 - 1  # candidate elements of one find_fg_witness search


def reduced_expression(m):
    """The unique shortest (alpha, beta) with m = alpha beta*.

    Only defined over acyclic bifurcation-free graphs, where a common last
    edge f of both parts satisfies f f* = s(f) and can be stripped; what
    remains is reduced and unique. Every edge is the only one out of its
    source there, so the rewrite rule strips the whole common suffix at
    once and the normal form of m is that one monomial.
    """
    g = m.graph
    if not is_acyclic_no_bifurcation(g):
        raise PreconditionError("reduced expressions need an acyclic bifurcation-free graph")
    (reduced,) = Element.from_monomial(m).terms
    return reduced.real, reduced.ghost


def reduced_monomial_basis(g):
    """All reduced monomials: alpha_i^2 of them per component, mu_jk ordered
    by the declaration order of the source/range vertex pair."""
    if not is_acyclic_no_bifurcation(g):
        raise PreconditionError("reduced monomial basis needs an acyclic bifurcation-free graph")
    return [
        Monomial._trusted(*reduced_expression(Monomial._trusted(p, q)))
        for block in matrix_decomposition(g).blocks
        for p in block
        for q in block
    ]


class MatrixDecomposition:
    """Block structure of L_K(E) for finite acyclic E.

    Each block is the tuple of paths realizing its index: entry (j, k) is
    the class of block[j] block[k]*, and ``sizes`` holds the block lengths.
    ``_index`` maps each path (source, edges) to its (block, index), and
    ``_starting`` each vertex to the edges of the paths leaving it.
    """

    __slots__ = ("graph", "kind", "blocks", "sizes", "_index", "_starting")

    def __init__(self, graph, kind, blocks):
        self.graph = graph
        self.kind = kind  # "vertices" | "sink_paths"
        self.blocks = tuple(map(tuple, blocks))
        self.sizes = tuple(map(len, self.blocks))
        self._index, self._starting = {}, {}
        for bi, block in enumerate(self.blocks):
            for j, p in enumerate(block):
                self._index[p.source, p.edges] = (bi, j)
                self._starting.setdefault(p.source, []).append(p.edges)

    def position_of(self, path):
        """(block number, index) of a sink-ended path."""
        at = self._index.get((path.source, path.edges)) if path.graph == self.graph else None
        if at is None:
            raise PreconditionError(f"path {path!r} does not end at a decomposed sink")
        return at

    def describe(self):
        """Each block's size and labels: a path's source for kind "vertices",
        otherwise its edges joined by dots, the sink for the trivial path."""
        by_source = self.kind == "vertices"
        return [
            {"size": len(b), "index": [p.source if by_source else ".".join(p.edges) or p.source
                                       for p in b]}
            for b in self.blocks
        ]


@_graph_fact
def matrix_decomposition(g):
    """The direct-sum decomposition of a finite acyclic graph.

    Each block holds the paths into one sink. Bifurcation-free graphs are
    indexed by their sources, the component vertices (declaration order,
    blocks by first vertex); general acyclic graphs by the paths, sorted
    by length then edge order. Both index the same matrix units p q*, so
    to_matrix/from_matrix below serve either case. Sink paths of more than
    MAX_SINK_EDGES edges in all are refused before any of them is built.
    """
    if not is_acyclic(g):
        raise PreconditionError("matrix decomposition needs an acyclic graph")
    counts = _path_counts(g, g.sinks(), backwards=True)
    edges = sum(k * sum(level.values()) for k, level in enumerate(counts))
    if edges > MAX_SINK_EDGES:
        raise LimitExceeded(f"sink paths of {edges} edges in all exceed the bound {MAX_SINK_EDGES}")
    kind = "vertices" if is_acyclic_no_bifurcation(g) else "sink_paths"
    blocks = []
    for sink in g.sinks():
        paths = [p for level in _paths_ending_in(g, (sink,)) for p in level]
        if kind == "vertices":
            # each vertex of the sink's component has one path to it
            paths.sort(key=lambda p: g._vindex[p.source])
        blocks.append(paths)
    if kind == "vertices":
        blocks.sort(key=lambda b: g._vindex[b[0].source])
    return MatrixDecomposition(g, kind, blocks)


def to_matrix(x, decomposition):
    """The block-matrix image of x; a linear and multiplicative bijection.

    p q* sends each sink path q t to p t and every other one to 0; p and q
    end at one vertex, so their shifts run over the same paths t. A row is
    made only when an entry lands in it, and sums that cancel are dropped;
    every index is the decomposition's own, so the rows are wrapped unchecked."""
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
    return BlockMatrix(Matrix._trusted(r, n, n, x.field) for r, n in zip(rows, sizes))


def from_matrix(bm, decomposition, field=None):
    """Inverse of to_matrix: entry (j,k) of block i pulls back to p_j p_k*.
    The element lies over the blocks' field; a field given must be theirs,
    and with no blocks it is QQ unless given."""
    if [m.shape for m in bm.blocks] != [(n, n) for n in decomposition.sizes]:
        raise PreconditionError("block sizes disagree with the decomposition")
    found = bm.blocks[0].field if bm.blocks else field or QQ
    if field not in (None, found):
        raise GraphMismatch(f"blocks over {found!r}, but the field given is {field!r}")
    raw = []
    for block, mat in zip(decomposition.blocks, bm.blocks):
        paths, rows = block, mat.nonzero_rows
        for j in sorted(rows):  # rows and columns in order, so the raw terms keep their order
            row, p = rows[j], paths[j]
            for k in sorted(row):
                raw.append(((p.source, p.edges, paths[k].source, paths[k].edges), row[k]))
    return Element._from_raw(decomposition.graph, found, raw)


def element_group_inverse(x):
    """Group inverse computed through the matrix image."""
    d = matrix_decomposition(x.graph)
    inv = to_matrix(x, d).group_inverse()
    return from_matrix(inv, d, x.field)


def is_square_cancellable(x):
    """a^2 u = a^2 w implies a u = a w (both sides); equivalent to group
    invertibility of the matrix image in a semisimple artinian algebra."""
    return to_matrix(x, matrix_decomposition(x.graph)).is_group_invertible()


def verify_fg_witness(a, b, q, membership):
    """Check q = a b# with a, b inside the subalgebra cut out by ``membership``.

    A non-square-cancellable b is not a legal witness at all and is reported
    as its own error rather than a plain False.
    """
    d = matrix_decomposition(q.graph)
    if not membership(a) or not membership(b):
        return False
    try:
        b_inv = to_matrix(b, d).group_inverse()
    except NotGroupInvertible:
        raise NotSquareCancellable("witness b is not square-cancellable") from None
    return to_matrix(q, d) == to_matrix(a, d) * b_inv


def find_fg_witness(q, membership, basis=None):
    """Bounded exhaustive search for (a, b) with q = a b#.

    The existence proofs behind the quotient structure are not constructive,
    so the search space must be bounded: combinations of ``basis`` monomials
    (default: the path-algebra part of the full basis, every path of the
    graph) with coefficients -1, 0 and 1. The 3^|basis| - 1 candidates are
    counted first and refused past MAX_WITNESS_POOL; only the members are
    kept. Exhausting them raises NotFoundWithinBounds.
    """
    g, field = q.graph, q.field
    d = matrix_decomposition(g)
    if basis is None:
        n = sum(sum(level.values()) for level in _path_counts(g, g.vertices))
    else:
        n = len(basis)
    # 3^k - 1 > k, so capping n changes no answer and a large n builds no 3^n
    if 3 ** min(n, MAX_WITNESS_POOL) - 1 > MAX_WITNESS_POOL:
        raise LimitExceeded(f"3^{n} - 1 candidate elements exceed the bound {MAX_WITNESS_POOL}")
    if basis is None:
        basis = [m for m in full_basis(g) if m.is_pure_path]
    pool = (
        Element(g, field, [(m, field.from_int(c)) for m, c in zip(basis, coeffs) if c])
        for coeffs in cartesian_product((-1, 0, 1), repeat=n)
        if any(coeffs)
    )
    members = [(x, to_matrix(x, d)) for x in pool if membership(x)]
    qm = to_matrix(q, d)
    for b, bm in members:
        try:
            b_inv = bm.group_inverse()
        except NotGroupInvertible:
            continue
        for a, am in members:
            if qm == am * b_inv:
                return a, b
    raise NotFoundWithinBounds(
        f"no Fountain-Gould witness within {3**n - 1} candidate elements"
    )
