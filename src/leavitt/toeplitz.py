"""The algebraic Toeplitz algebra and its verification reports.

The canonical graph is a loop e at v plus an edge f from v to a sink w. The
generalized family E(n, F) replaces the sink by an acyclic graph F in which every
vertex connects to a line point, and the single edge by n connecting edges out of
the loop vertex. Quotienting by F0 collapses the algebra onto Laurent polynomials
(loop -> x): a term survives iff its range is the loop vertex, and the kernel is
the socle. Every map reads the graph's decomposition from the memoised
``recognize_toeplitz``; a report reads it and the socle quotient once.

The faithful matrix picture acts on the cyclic left module generated by
the sink: its basis is the paths into w, b0 = w, b_{k+1} = e^k f, and p q*
sends q t to p t. So a normal-form term (b_a)(b_b)* ending at w is the one
cell (a, b), and a term e^a (e^b)* is the diagonal run b_k -> b_{k+a-b},
k > b. Windows are read off these cells and runs, at a cost that follows
the terms and the nonzero entries, and are exact restrictions of the
infinite matrix; the validity bound N - deg(x) is the region where window
products agree with the window of the product.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import pairwise, product

from .algebra import Element, _key, _range, basis_monomials_up_to
from .errors import PreconditionError, charge, size
from .expressions import format_element, format_monomial
from .fields import QQ
from .graph import Graph, _graph_fact, _names, is_acyclic, vertex_on_a_cycle
from .matrices import Matrix, _canonical_rows, add_entry
from .quotients import in_socle

# a window holds up to N entries, and the sandwich report checks (N - 1)^2
# units; its part (a) needs N > 2d + 1, so no allowed window decides a
# degree past (N - 2) // 2 = 63
MAX_WINDOW, MAX_SANDWICH_WINDOW = 32_768, 128
MAX_DEGREE = (MAX_SANDWICH_WINDOW - 2) // 2


class LaurentPoly:
    """Element of K[x, x^-1]: finitely supported exponent -> scalar map."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=QQ):
        self.coeffs = {n: c for n, c in dict(coeffs).items() if c}
        self.field = field

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            add_entry(out, n, c)
        return LaurentPoly(out, self.field)

    def __mul__(self, other):
        out = {}
        for n, c in self.coeffs.items():
            for m, d in other.coeffs.items():
                add_entry(out, n + m, c * d)
        return LaurentPoly(out, self.field)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            if n == 0:
                parts.append(str(c))
            else:
                var = "x" if n == 1 else f"x^{n}"
                parts.append(var if c == self.field.one() else f"{c}*{var}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def toeplitz_graph():
    """The graph T: loop e at v, edge f to the sink w (f last-declared: it is
    the designated edge at v, so ee* survives normal forms and ff* rewrites)."""
    return Graph("T", ["v", "w"], [("e", "v", "v"), ("f", "v", "w")])


class ToeplitzDecomposition(
    namedtuple("ToeplitzDecomposition", ["loop_vertex", "loop_edge", "connectors", "subgraph"])
):
    """Loop vertex, loop edge, connecting edges (a tuple), and the subgraph F."""

    __slots__ = ()

    @property
    def is_canonical(self):
        """One connector into a lone vertex: the canonical graph, the only one with a window."""
        return len(self.connectors) == len(self.subgraph.vertices) == 1 and not self.subgraph.edges

    def describe(self):
        return {
            "loop_vertex": self.loop_vertex,
            "loop_edge": self.loop_edge,
            "connectors": list(self.connectors),
            "subgraph_vertices": list(self.subgraph.vertices),
            "subgraph_edges": [e.name for e in self.subgraph.edges],
        }


def build_toeplitz_family(n, F, attach, name=None):
    """E(n, F): fresh loop vertex v with loop e, plus n connectors into F.

    Connector names: "f" when n == 1 (so the canonical graph is the n = 1,
    single-vertex-F instance), else "f1".."fn". F must be acyclic, and must
    not already use the fresh names. Then every vertex of F connects to a
    line point, as the family needs: it reaches a sink, and a sink is a
    line point.
    """
    size(n, 1, "the family needs at least one connecting edge")
    if not is_acyclic(F):
        raise PreconditionError("F must be acyclic")
    attach = _names(attach, "the attachment list")
    if len(attach) != n:
        raise PreconditionError(f"need exactly {n} attachment vertices, got {len(attach)}")
    for a in attach:
        F.vertex_index(a)
    connectors = ["f"] if n == 1 else [f"f{i}" for i in range(1, n + 1)]
    edges = [("e", "v", "v"), *((c, "v", a) for c, a in zip(connectors, attach)), *F.edges]
    return Graph(name or f"T_{n}_{F.name}", ["v", *F.vertices], edges)


@_graph_fact
def recognize_toeplitz(g):
    """Match the E(n, F) pattern exactly; None when it does not fit.

    Required: a unique cycle which is a loop (at v), no other edge entering
    v, at least one edge from v into the rest, and the rest (F) acyclic
    with every vertex connecting to a line point. With v the only vertex on
    a cycle, every cycle is a loop at v and F is acyclic, so the first two
    conditions say that v has in-degree one. The last one then holds
    already: in the finite acyclic F every vertex reaches a sink, and a
    sink is a line point.
    """
    on_cycle = vertex_on_a_cycle(g)
    if len(on_cycle) != 1:
        return None
    (v,) = on_cycle
    if len(g._in[v]) != 1:
        return None
    loop_edge = g._in[v][0].name
    connectors = [e.name for e in g._out[v] if e.name != loop_edge]
    if not connectors:
        return None
    f_edges = [e for e in g.edges if e.src != v]
    subgraph = Graph(f"{g.name}_F", [u for u in g.vertices if u != v], f_edges)
    return ToeplitzDecomposition(v, loop_edge, tuple(connectors), subgraph)


def laurent_quotient(x):
    """Image under L_K(E) -> L_K(E/F0) ~ K[x, x^-1], loop -> x. F0 is
    hereditary, since only the loop enters v, and saturated, since v emits
    the loop, so the quotient morphism exists for every recognized graph."""
    d = recognize_toeplitz(x.graph)
    if d is None:
        raise PreconditionError("graph does not match the Toeplitz pattern")
    return _laurent_image(x, d)


def _laurent_image(x, d):
    """A term survives iff its range is v; only the loop enters v, so it is
    c e^a (e^b)* and maps to c x^(a - b). LaurentPoly drops the zero sums."""
    g, v, coeffs = x.graph, d.loop_vertex, {}
    for key, c in x._flat.items():
        if _range(g, key) == v:
            add_entry(coeffs, len(key[1]) - len(key[3]), c)
    return LaurentPoly({n: x.field.scalar(c, x._den) for n, c in coeffs.items()}, x.field)


def exact_sequence_report(g, degree_bound, field=QQ):
    """Monomial-by-monomial check of 0 -> Soc -> T -> K[x,x^-1] -> 0.

    Over all basis monomials of total length <= d: socle membership must
    coincide with vanishing of the Laurent image (exactness in the middle),
    and every Laurent monomial x^{+-k}, k <= d, must be hit (surjectivity).
    """
    d = recognize_toeplitz(g)
    if d is None:
        raise PreconditionError("graph does not match the Toeplitz pattern")
    size(degree_bound, 0, "degree bound must be nonnegative")
    charge(degree_bound, MAX_DEGREE, "degree {count} exceeds the bound {bound}")
    monomials = basis_monomials_up_to(g, degree_bound)
    mismatches, hit_exponents = [], set()
    for m in monomials:
        x = Element._of(g, field, {_key(m): 1})  # a basis monomial is a normal form
        image = _laurent_image(x, d)
        if in_socle(x) != image.is_zero():
            mismatches.append(format_monomial(m))
        if len(image.coeffs) == 1:
            hit_exponents.update(image.coeffs)
    missing = sorted(set(range(-degree_bound, degree_bound + 1)) - hit_exponents)
    return {
        "degree": degree_bound,
        "monomials_checked": len(monomials),
        "socle_kernel_mismatches": mismatches,
        "surjectivity_missing": [f"x^{k}" for k in missing],
        "pass": not mismatches and not missing,
    }


# ---------------------------------------------------------------------------
# Row-and-column-finite matrix picture


class MatrixWindow(namedtuple("MatrixWindow", ["matrix", "validity_bound", "flags"])):
    """N x N window onto the action on the module basis b0, b1, ...

    Windows of single elements are exact restrictions of the infinite
    matrix; products of windows are exact only for entries (i, j) with
    i, j below the recorded validity bound.
    """

    __slots__ = ()

    def __repr__(self):
        return f"MatrixWindow({self.matrix.nrows}, validity={self.validity_bound})"


def _canonical(g):
    """The decomposition of the canonical graph, the only one with a window."""
    d = recognize_toeplitz(g)
    if d is None or not d.is_canonical:
        raise PreconditionError("the matrix picture needs the canonical loop-plus-sink graph")
    return d


def rcfm_representation(x, window):
    """Window of the left-multiplication action of x on L_K(E) w.

    p q* sends b_j = q t to p t: monomials ending at the sink act with rank
    one, monomials ending at the loop vertex as a partial shift. Any window
    is an exact restriction of the infinite matrix; the validity bound only
    limits where window PRODUCTS agree with product windows. A rank-one
    monomial whose support misses the window entirely is rejected, since
    such a window could not represent the element at all.
    """
    d = _canonical(x.graph)
    size(window, 1, "window size must be positive")
    charge(window, MAX_WINDOW, "window {count} exceeds the bound {bound}")
    return _matrix_window(x, d, window)


def _matrix_window(x, d, window):
    """rcfm_representation of x, for d the canonical graph's decomposition."""
    rows = _window_rows(x, d, window)
    validity, terms = max(window - x.total_degree(), 0), max(x.support_size(), 1)
    columns = Counter(j for row in rows.values() for j in row)
    flags = {
        # nothing at or past the exact region's margin; shifts reach the border
        "finitely_supported": all(max(i, *row) < validity - 1 for i, row in rows.items()),
        "row_finite_on_window": max(map(len, rows.values()), default=0) <= terms,
        "col_finite_on_window": max(columns.values(), default=0) <= terms,
    }
    matrix = Matrix._trusted(rows, _canonical_rows(rows, x._den), window, window, x.field)
    return MatrixWindow(matrix, validity, flags)


def _window_rows(x, d, window):
    """The nonzero entries of the N x N window of x, as rows {row: {column:
    numerator}} over x's denominator, in one pass over the terms. Each diagonal is a
    step function: a run steps in at column b + 1, a cell (a, b) is the run over
    column b alone, and so may lie on a longer one (f f* when e is designated).
    Its callers check the window: at least 1, and within its bound."""
    g, sink, steps, least, numerator = x.graph, d.subgraph.vertices[0], {}, None, x.field.numerator
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
            if entry := numerator(total):
                for k in range(start, min(stop, end)):
                    rows.setdefault(k + shift, {})[k] = entry
    return rows


def _units(g, d, field, rows, columns):
    """(i, j, (b_i)(b_j)*) with coefficient 1, in normal form, for i in rows, j in columns."""
    v, w, loop, f = d.loop_vertex, d.subgraph.vertices[0], (d.loop_edge,), d.connectors
    basis = {k: (v, loop * (k - 1) + f) if k else (w, ()) for k in {*rows, *columns}}
    for i, j in product(rows, columns):
        yield i, j, Element._from_raw(g, field, [(basis[i] + basis[j], 1)])


def socle_module_element(g, i, j, field=QQ):
    """The element mapping to the matrix unit E_ij: (b_i)(b_j)*. A unit that
    needs a window past MAX_WINDOW, i or j >= MAX_WINDOW, lies in no window
    rcfm_representation accepts, and is refused."""
    d = _canonical(g)
    size(i, 0, "matrix unit indices must be nonnegative")
    size(j, 0, "matrix unit indices must be nonnegative")
    charge(max(i, j) + 1, MAX_WINDOW,
           "matrix unit E[{i}][{j}] needs window {count}, past the bound {bound}", i=i, j=j)
    return next(_units(g, d, field, (i,), (j,)))[2]


def sandwich_report(g, degree_bound, window, field=QQ):
    """Window-level check of M_inf(K) <= T' <= RCFM(K).

    (a) socle basis monomials of total length <= d act with finite support;
    (b) every basis monomial's window is row- and column-finite;
    (c) matrix units E_jk for j, k <= N-2 are images of explicit socle
        elements built from the module basis paths.

    Part (a) asks max(i, j) < N - deg(x) - 1 of every cell (i, j), and
    e^(d-1) f is the cell (d, 0) at degree d, so a window N <= 2d + 1
    cannot decide it: the report then lists e^(d-1) f and its star as
    failures, rather than rejecting the window.

    Cost: (N - 1)^2 units, each one kernel normal form of one term plus one
    window of at most two terms; the basis and the socle are read once.
    """
    size(window, 1, "window size must be positive")
    charge(window, MAX_SANDWICH_WINDOW, "window {count} exceeds the sandwich bound {bound}")
    size(degree_bound, 0, "degree bound must be nonnegative")
    charge(degree_bound, MAX_DEGREE, "degree {count} exceeds the bound {bound}")
    d = _canonical(g)
    monomials = basis_monomials_up_to(g, degree_bound)
    socle_failures, finiteness_failures, unit_failures = [], [], []
    for m in monomials:
        x = Element._of(g, field, {_key(m): 1})
        w = _matrix_window(x, d, window)
        if not (w.flags["row_finite_on_window"] and w.flags["col_finite_on_window"]):
            finiteness_failures.append(format_monomial(m))
        if in_socle(x) and not w.flags["finitely_supported"]:
            socle_failures.append(format_monomial(m))
    n = range(window - 1)
    for i, j, x in _units(g, d, field, n, n):
        if x._den != 1 or _window_rows(x, d, window) != {i: {j: 1}}:
            unit_failures.append(f"E[{i}][{j}] != window({format_element(x)})")
    return {
        "window": window,
        "degree": degree_bound,
        "monomials_checked": len(monomials),
        "socle_finite_support_failures": socle_failures,
        "row_col_finiteness_failures": finiteness_failures,
        "matrix_unit_failures": unit_failures,
        "pass": not socle_failures and not finiteness_failures and not unit_failures,
    }
