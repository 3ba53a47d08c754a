"""The one path-module action behind to_matrix and the Toeplitz window.

Both matrix pictures are checked against the separate reference actions in
conftest, and the action itself against window(x) window(y) = window(xy)
on graphs beyond the canonical one.
"""

import pytest

import leavitt as L
from leavitt import Element, Graph, Matrix, Path, PreconditionError
from leavitt import toeplitz
from leavitt.semisimple import PathModule, _paths_into

from conftest import (
    corpus_graphs,
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
            for p in block["paths"]:
                assert d.position_of(p) == reference_position_of(d, p)
        # a graph with the same names and one more edge shares no path
        loop = ("extra", g.vertices[0], g.vertices[0])
        other = Graph("other", g.vertices, list(g.edges) + [loop])
        foreign = Path.trivial(other, g.sinks()[0])
        assert _outcome(d.position_of, foreign) == _outcome(reference_position_of, d, foreign)
        x = Element.vertex(other, other.vertices[0])
        assert _outcome(L.to_matrix, x, d) == _outcome(reference_to_matrix, x, d)


def test_window_matches_the_shift_rule():
    rng = seeded("path-module-window")
    g = L.toeplitz_graph()
    pool = L.basis_monomials_up_to(g, 6)
    outside = compared = 0
    for window in range(-2, 31):
        for field in FIELDS:
            for _ in range(8):
                x = random_element(g, rng, pool, size=3, field=field)
                expected = _outcome(reference_window_rows, x, window)
                got = _outcome(lambda: L.rcfm_representation(x, window).matrix)
                if isinstance(expected, tuple):
                    assert got == expected, (window, x)
                    outside += "too small" in expected[1]
                else:
                    assert got == Matrix.from_row_dicts(expected, window, field), (window, x)
                    compared += 1
    assert outside > 20 and compared > 400


def _window(module, x):
    (rows,) = module.act(x)
    return Matrix.from_row_dicts(rows, len(rows), x.field)


def _complete_length(g, paths):
    """The greatest length whose paths into the sink all lie in ``paths``."""
    longest = paths[-1].length
    every = [p for p in L.paths_up_to(g, longest) if p.range == paths[0].range]
    held = sum(1 for p in paths if p.length == longest)
    return longest if held == sum(1 for p in every if p.length == longest) else longest - 1


def _family(rng):
    for _ in range(100):
        F = random_graph(rng, max_vertices=4, max_edges=5)
        if L.is_acyclic(F):
            n = rng.randint(1, 3)
            return L.build_toeplitz_family(n, F, [rng.choice(F.vertices) for _ in range(n)])
    raise AssertionError("no acyclic F sampled")


def test_window_products_beyond_the_canonical_graph():
    rng = seeded("path-module-products")
    graphs = [_family(rng) for _ in range(25)] + acyclic_graphs(rng, 25)
    checked = 0
    for g in graphs:
        pool = raw_monomials(g)
        for w in g.sinks():
            paths = _paths_into(g, w, rng.randint(1, 14))
            module = PathModule(paths)
            bound = _complete_length(g, paths)
            for _ in range(4):
                x = random_element(g, rng, pool, size=3)
                y = random_element(g, rng, pool, size=3)
                product = _window(module, x) * _window(module, y)
                wxy = _window(module, x * y)
                for j, r in enumerate(paths):
                    if r.length + y.real_degree() <= bound:
                        checked += 1
                        column = [product[i, j] - wxy[i, j] for i in range(len(paths))]
                        assert not any(column), (g, x, y, r)
    assert checked > 500


def test_paths_into_lists_the_first_paths_in_length_then_edge_order():
    rng = seeded("paths-into")
    for g in [random_graph(rng, max_edges=7) for _ in range(150)] + corpus_graphs():
        for w in g.sinks():
            bound = rng.randint(0, 6)
            limit = len(g.vertices) if L.is_acyclic(g) else bound
            every = [p for p in L.paths_up_to(g, limit) if p.range == w]
            every.sort(key=lambda p: (p.length, [g.edge_index(e) for e in p.edges]))
            assert _paths_into(g, w, bound) == every[:bound], (g, w, bound)
            if L.is_acyclic(g):
                assert _paths_into(g, w) == every, (g, w)
    t = L.toeplitz_graph()
    assert [p.edges for p in _paths_into(t, "w", 4)] == [(), ("f",), ("e", "f"), ("e", "e", "f")]


@pytest.mark.parametrize("window", [1, 2, 7])
def test_socle_module_elements_are_the_window_units(window):
    g = L.toeplitz_graph()
    module = toeplitz._window_module(g, window)
    for i in range(window):
        for j in range(window):
            x = L.socle_module_element(g, i, j)
            assert x == toeplitz._socle_module_element(module, i, j, L.QQ)
            assert module.paths[i].length == i
    with pytest.raises(PreconditionError, match="nonnegative"):
        L.socle_module_element(g, -1, 0)
