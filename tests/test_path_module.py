"""The two matrix pictures: to_matrix, the action of p q* on the paths into
the sinks through the one sink-path index of MatrixDecomposition, and the
Toeplitz window read off cells and diagonal runs.

Both are checked against the separate reference actions in conftest, and
the index also against conftest's copy of the former PathModule.
"""

from itertools import product

import pytest

import leavitt as L
from leavitt import Element, Graph, Matrix, Monomial, Path, PreconditionError
from leavitt import toeplitz
from leavitt.graph import _paths_ending_in

from conftest import (
    corpus_graphs,
    loop_designated_toeplitz,
    parent_path_module,
    parent_position_of,
    parent_to_matrix,
    random_acyclic_graph,
    random_element,
    random_graph,
    raw_monomials,
    reference_position_of,
    reference_to_matrix,
    reference_window_rows,
    seeded,
)

FIELDS = [L.QQ, L.GF(7)]


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError as exc:
        return (type(exc), str(exc))


def acyclic_graphs(rng, count):
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng)
        if L.is_acyclic(g):
            graphs.append(g)
    return graphs + [g for g in corpus_graphs() if L.is_acyclic(g)]


def test_to_matrix_matches_the_sink_expansion():
    rng = seeded("path-module-to-matrix")
    for g in acyclic_graphs(rng, 200):
        d = L.matrix_decomposition(g)
        pool = raw_monomials(g)
        for field in FIELDS:
            for _ in range(3):
                x = random_element(g, rng, pool, field=field)
                assert L.to_matrix(x, d) == reference_to_matrix(x, d), (g, x)
        for block in d.blocks:
            for p in block:
                assert d.position_of(p) == reference_position_of(d, p)
        # a graph with the same names and one more edge shares no path
        loop = ("extra", g.vertices[0], g.vertices[0])
        other = Graph("other", g.vertices, list(g.edges) + [loop])
        foreign = Path.trivial(other, g.sinks()[0])
        assert _outcome(d.position_of, foreign) == _outcome(reference_position_of, d, foreign)
        x = Element.vertex(other, other.vertices[0])
        assert _outcome(L.to_matrix, x, d) == _outcome(reference_to_matrix, x, d)


def decomposition_graphs(rng, count):
    """Random acyclic graphs of both decomposition kinds, a long line, a
    comb, the acyclic corpus and the empty graph."""
    graphs = [random_acyclic_graph(rng, bifurcation_free=i % 2 == 0) for i in range(count)]
    graphs += [L.line_graph(64), L.comb_graph(32), Graph("empty", [], [])]
    return graphs + [g for g in corpus_graphs() if L.is_acyclic(g)]


def test_decomposition_index_matches_the_former_path_module():
    rng = seeded("decomposition-index")
    kinds, compared = set(), 0
    for g in decomposition_graphs(rng, 120):
        d = L.matrix_decomposition(g)
        module = parent_path_module(d)
        kinds.add(d.kind)
        pool = raw_monomials(g)
        for field in FIELDS:
            for _ in range(3):
                x = random_element(g, rng, pool, field=field) if pool else Element(g, field, [])
                for _ in range(2):  # the second call reads the shift caches
                    got = L.to_matrix(x, d)
                    assert got == parent_to_matrix(module, x, d) == reference_to_matrix(x, d), x
                    assert repr(got) == repr(parent_to_matrix(module, x, d))
                    assert L.from_matrix(got, d, field) == x
                compared += 1
        for block in d.blocks:
            for p in block:
                for _ in range(2):
                    at = d.position_of(p)
                    assert at == parent_position_of(module, d, p) == reference_position_of(d, p)
        if g.vertices:
            loop = ("extra", g.vertices[0], g.vertices[0])
            other = Graph("other", g.vertices, list(g.edges) + [loop])
            foreign = Path.trivial(other, g.sinks()[0])
            expected = _outcome(parent_position_of, module, d, foreign)
            assert _outcome(d.position_of, foreign) == expected
            x = Element.vertex(other, other.vertices[0])
            expected = _outcome(parent_to_matrix, module, x, d)
            assert _outcome(L.to_matrix, x, d) == expected
    assert kinds == {"vertices", "sink_paths"} and compared > 700


DIAMOND = "graph D\nvertex u\nvertex v\nvertex w\nedge a u w\nedge b u v\nedge c v w\n"


def _stores_no_zero(bm):
    """No block of bm holds an empty row or a zero entry."""
    return all(r and all(r.values()) for m in bm.blocks for r in m.nonzero_rows.values())


def _cancelling_pair(g, rng, field):
    """c p q* - c (p e)(q e)* for a random p q* whose range v emits several
    edges and e one of them that is not designated: both normal forms, and
    their entries at (p e t, q e t) cancel. Returns the element and p e, q e."""
    ranges = [v for v in g.vertices if len(g.out_edges(v)) > 1]
    if not ranges:
        return None
    v = rng.choice(ranges)
    into = [p for p in L.paths_up_to(g, len(g.vertices)) if p.range == v]
    p, q = rng.choice(into), rng.choice(into)
    e = rng.choice(g.out_edges(v)[:-1]).name
    pe, qe = p.append(e), q.append(e)
    c = field.from_int(rng.choice([1, 2, -3]))
    return Element(g, field, [(Monomial(p, q), c), (Monomial(pe, qe), -c)]), pe, qe


def test_to_matrix_drops_the_entries_that_cancel(monkeypatch):
    """to_matrix wraps the rows it builds: sums that cancel on an entry are
    dropped with the rows they empty, as the reference action drops them,
    and no block goes through the validating Matrix.from_row_dicts."""
    built = []
    from_row_dicts = Matrix.from_row_dicts.__func__

    def counted(x, d):
        monkeypatch.setattr(Matrix, "from_row_dicts", classmethod(
            lambda cls, *args, **kw: built.append(args) or from_row_dicts(cls, *args, **kw)))
        try:
            return L.to_matrix(x, d)
        finally:
            monkeypatch.setattr(Matrix, "from_row_dicts", classmethod(from_row_dicts))

    rng = seeded("to-matrix-cancels")
    diamond = L.parse_graph(DIAMOND)
    dd = L.matrix_decomposition(diamond)
    b, i = dd.position_of(Path(diamond, "u", ("a",)))
    cancelled = 0
    for field in FIELDS:
        x = L.parse_element(diamond, "u - a*a'", field)
        assert len(x.terms) == 2
        got = counted(x, dd)
        assert got == reference_to_matrix(x, dd) and _stores_no_zero(got)
        assert i not in got.blocks[b].nonzero_rows  # the (a, a) entry cancels
        assert got.blocks[b].nonzero_rows  # b.c still acts
        for g in [random_acyclic_graph(rng) for _ in range(150)]:
            d = L.matrix_decomposition(g)
            pair = _cancelling_pair(g, rng, field)
            if pair is None:
                continue
            x, pe, qe = pair
            got = counted(x, d)
            assert got == reference_to_matrix(x, d), (g, x)
            assert _stores_no_zero(got), (g, x)
            t = d._starting[pe.range][0]  # a path from r(e) into a sink
            (b, i), (_, j) = d._index[pe.source, pe.edges + t], d._index[qe.source, qe.edges + t]
            assert j not in got.blocks[b].nonzero_rows.get(i, {}), (g, x)
            cancelled += 1
    assert built == [] and cancelled > 100


def test_window_matches_the_shift_rule():
    rng = seeded("path-module-window")
    outside = compared = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        pool = L.basis_monomials_up_to(g, 6)
        for window, field, _ in product(range(-2, 31), FIELDS, range(8)):
            x = random_element(g, rng, pool, size=3, field=field)
            expected = _outcome(reference_window_rows, x, window)
            got = _outcome(lambda: L.rcfm_representation(x, window).matrix)
            if isinstance(expected, tuple):
                assert got == expected, (window, x)
                outside += "too small" in expected[1]
            else:
                assert got == Matrix.from_row_dicts(expected, window, field), (window, x)
                compared += 1
    assert outside > 40 and compared > 800


def _loop_monomial(g, a, b):
    """e^a (e^b)*, a run along the diagonal a - b of the window."""
    return Monomial(Path(g, "v", ("e",) * a), Path(g, "v", ("e",) * b))


def _diagonal_sum(g, rng, field):
    """Several runs e^(a+t) (e^(b+t))* on one diagonal whose coefficients
    sum to zero from the k-th start to the next, and not just after it;
    returns the element, its diagonal and the first column of that stretch."""
    a, b = rng.randint(0, 4), rng.randint(0, 4)
    offsets = sorted(rng.sample(range(8), rng.randint(3, 5)))
    coeffs = [rng.choice([1, -1, 2, 3]) for _ in offsets]
    k = rng.randrange(1, len(offsets) - 1)
    coeffs[k] = -sum(coeffs[:k])
    raw = [(_loop_monomial(g, a + t, b + t), field.from_int(c)) for t, c in zip(offsets, coeffs)]
    return Element(g, field, raw), a - b, b + offsets[k] + 1


def test_window_cells_add_to_the_runs_they_lie_on():
    g = loop_designated_toeplitz()
    d = L.recognize_toeplitz(g)
    assert d.is_canonical
    two, ff = L.QQ.from_int(2), Monomial(Path(g, "v", ("f",)), Path(g, "v", ("f",)))
    x = Element.vertex(g, "v") + Element.from_monomial(ff)
    assert ff in x.terms and toeplitz._window_rows(x, d, 4) == {1: {1: two}, 2: {2: 1}, 3: {3: 1}}
    window = L.rcfm_representation(x, 4)
    assert window.matrix == Matrix.from_row_dicts(reference_window_rows(x, 4), 4, L.QQ)
    assert window.flags["row_finite_on_window"] and window.flags["col_finite_on_window"]
    y = Element.vertex(g, "v") - Element.from_monomial(ff)
    assert toeplitz._window_rows(y, d, 4) == {2: {2: 1}, 3: {3: 1}}


def test_window_cells_match_the_shift_rule():
    rng = seeded("window-cells")
    outside = compared = cancelled = 0
    for g in (L.toeplitz_graph(), loop_designated_toeplitz()):
        d = L.recognize_toeplitz(g)
        pool = L.basis_monomials_up_to(g, 10)
        for window, field, _ in product(range(1, 31), FIELDS, range(6)):
            runs, shift, zero_from = _diagonal_sum(g, rng, field)
            x = runs + random_element(g, rng, pool, size=3, field=field)
            expected = _outcome(reference_window_rows, x, window)
            got = _outcome(toeplitz._window_rows, x, d, window)
            if isinstance(expected, tuple):
                assert got == expected, (window, x)
                outside += "too small" in expected[1]
            else:
                rows = ({j: c for j, c in row.items() if c} for row in expected)
                assert got == {i: row for i, row in enumerate(rows) if row}, x
                compared += 1
                cancelled += zero_from < min(window, window - shift)
    assert outside > 30 and compared > 500 and cancelled > 400


def test_paths_into_lists_the_first_paths_in_length_then_edge_order():
    rng = seeded("paths-into")
    checked = in_blocks = 0
    for g in [random_graph(rng, max_edges=7) for _ in range(300)] + corpus_graphs():
        if not L.is_acyclic(g):
            continue
        d = L.matrix_decomposition(g)
        blocks = {b[0].range: list(b) for b in d.blocks}
        for w in g.sinks():
            every = [p for p in L.paths_up_to(g, len(g.vertices)) if p.range == w]
            every.sort(key=lambda p: (p.length, [g.edge_index(e) for e in p.edges]))
            assert [p for level in _paths_ending_in(g, (w,)) for p in level] == every, (g, w)
            if d.kind == "sink_paths":
                assert blocks[w] == every, (g, w)
                in_blocks += 1
            checked += 1
    assert checked > 100 and in_blocks > 30


@pytest.mark.parametrize("window", [1, 2, 7])
def test_socle_module_elements_are_the_window_units(window):
    g = L.toeplitz_graph()
    basis = sorted((p for p in L.paths_up_to(g, window) if p.range == "w"), key=lambda p: p.length)
    for i in range(window):
        for j in range(window):
            x = L.socle_module_element(g, i, j)
            assert x == Element.from_monomial(Monomial(basis[i], basis[j]))
            rows = reference_window_rows(x, window)
            assert [(a, b) for a, row in enumerate(rows) for b, c in row.items() if c] == [(i, j)]
    with pytest.raises(PreconditionError, match="nonnegative"):
        L.socle_module_element(g, -1, 0)
