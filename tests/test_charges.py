"""Every size bound refuses through errors.charge: no other code in src/
builds a LimitExceeded, and each bounded call charges its bound once with
the count an independent oracle gives (the cycle listing once per cycle it
closes), whether it then answers or is refused."""

import ast
import sys
from pathlib import Path as FilePath

import pytest

import leavitt as L
from leavitt import errors, graph as graph_module
from leavitt.algebra import MAX_BASIS_PAIRS, MAX_PATH_EDGES
from leavitt.semisimple import MAX_WITNESS_POOL

from conftest import (
    complete_digraph,
    corpus_graphs,
    cycles_oracle,
    diamond_return,
    random_acyclic_graph,
    random_element,
    random_graph,
    raw_monomials,
    reachability,
    reference_entry_paths,
    reference_paths_up_to,
    seeded,
)

PRODUCT = "{count} pairs of terms exceed the bound {bound}"
BASIS = "path pairs of total length <= {d} exceed the bound {bound}"
PATHS = "paths of length <= {length} exceed {bound} edges"
CYCLES = "cycles exceed the bound {bound}"
ENTRY = "entry paths of length <= {length} exceed {bound} edges"
SINK = "sink paths of {count} edges in all exceed the bound {bound}"
POOL = "3^{n} - 1 candidate elements exceed the bound {bound}"
DEGREE = "degree {count} exceeds the bound {bound}"
WINDOW = "window {count} exceeds the bound {bound}"
SANDWICH = "window {count} exceeds the sandwich bound {bound}"
UNIT = "matrix unit E[{i}][{j}] needs window {count}, past the bound {bound}"


@pytest.fixture
def charges(monkeypatch):
    """The (message, count) of every charge made while the test runs, each
    passed on to errors.charge: the recorder replaces charge in every module
    of leavitt that holds it, errors included."""
    made, charge = [], errors.charge

    def record(count, bound, message, **fields):
        made.append((message, count))
        charge(count, bound, message, **fields)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "leavitt" and getattr(module, "charge", None) is charge:
            monkeypatch.setattr(module, "charge", record)
    return made


def test_only_charge_builds_a_limit_exceeded():
    """An AST walk over src/leavitt/*.py: the one LimitExceeded(...) call is
    errors.charge's, so every bound refuses through it."""
    built = []
    for path in sorted(FilePath(L.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_charge = {id(node) for top in tree.body if getattr(top, "name", None) == "charge"
                     for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "LimitExceeded" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                built.append((path.name, id(node) in in_charge))
    assert built == [("errors.py", True)]


def _graphs(label, count=40, **sizes):
    rng = seeded(label)
    return corpus_graphs() + [random_graph(rng, **sizes) for _ in range(count)]


def _acyclic_graphs(label, count=40, **sizes):
    rng = seeded(label)
    acyclic = [g for g in corpus_graphs() if L.is_acyclic(g)]
    return acyclic + [random_acyclic_graph(rng, **sizes) for _ in range(count)]


def _basis_pairs(g, d):
    """Pairs of paths of length <= d with one range and total length <= d."""
    by_range = {}
    for p in reference_paths_up_to(g, d):
        by_range.setdefault(p.range, []).append(p.length)
    return sum(a + b <= d for lengths in by_range.values() for a in lengths for b in lengths)


def _edges_of(paths):
    return sum(p.length for p in paths)


def _sink_edges(g):
    sinks = set(g.sinks())
    return _edges_of(p for p in reference_paths_up_to(g, len(g.vertices)) if p.range in sinks)


def test_a_product_charges_the_pairs_of_its_terms(charges):
    rng = seeded("charges:product")
    for g in _graphs("charges:product-graphs", max_vertices=4, max_edges=6):
        pool = raw_monomials(g, 2)
        for field in (L.QQ, L.GF(7)):
            x, y = (random_element(g, rng, pool, 5, field) for _ in range(2))
            charges.clear()
            x * y
            assert charges == [(PRODUCT, len(x.terms) * len(y.terms))]


def test_a_basis_charges_its_pairs_of_paths(charges):
    for g in _graphs("charges:basis", 25, max_vertices=4, max_edges=6):
        for d in range(4):
            charges.clear()
            L.basis_monomials_up_to(g, d)
            assert charges == [(BASIS, _basis_pairs(g, d))], (g, d)
    charges.clear()
    with pytest.raises(L.LimitExceeded):
        L.basis_monomials_up_to(L.toeplitz_graph(), 10**6)
    [(message, count)] = charges  # counted only until past the bound
    assert message == BASIS and count > MAX_BASIS_PAIRS


def test_a_path_listing_charges_its_edges(charges):
    for g in _graphs("charges:paths", 25, max_vertices=4, max_edges=6):
        for length in range(5):
            charges.clear()
            L.paths_up_to(g, length)
            assert charges == [(PATHS, _edges_of(reference_paths_up_to(g, length)))]
    charges.clear()
    with pytest.raises(L.LimitExceeded):
        L.paths_up_to(L.single_loop_graph(), 10**6)
    [(message, count)] = charges
    assert message == PATHS and count > MAX_PATH_EDGES


def test_a_cycle_listing_charges_each_cycle_it_closes(charges, monkeypatch):
    graphs = _graphs("charges:cycles", 60) + [complete_digraph(4), diamond_return(3)]
    for g in graphs:
        charges.clear()
        L.cycles(g)
        assert charges == [(CYCLES, k) for k in range(1, len(cycles_oracle(g)) + 1)], g
    monkeypatch.setattr(graph_module, "MAX_CYCLES", 2)
    charges.clear()
    with pytest.raises(L.LimitExceeded, match="^cycles exceed the bound 2$"):
        L.cycles(complete_digraph(2))  # two loops and a 2-cycle
    assert charges == [(CYCLES, 1), (CYCLES, 2), (CYCLES, 3)]


def test_a_restriction_graph_charges_its_entry_path_edges(charges):
    for g in _graphs("charges:entry", 30, max_vertices=5, max_edges=8):
        reach = reachability(g)
        for v in g.vertices:
            H = {w for w in g.vertices if reach[v][w]}
            for length in (1, 2, 4):
                charges.clear()
                L.restriction_graph(g, H, length)
                paths = reference_entry_paths(g, H, length)[0]
                assert charges == [(ENTRY, _edges_of(paths))], (g, H, length)


def test_a_decomposition_charges_its_sink_path_edges(charges):
    for g in _acyclic_graphs("charges:sinks", max_vertices=6, max_edges=9):
        charges.clear()
        L.matrix_decomposition(g)
        assert charges == [(SINK, _sink_edges(g))], g


def test_a_witness_search_charges_its_candidates(charges):
    """The decomposition, then the 3^n - 1 candidates of the n paths, then,
    if they are within the bound, the full basis the pool is drawn from."""
    for g in _acyclic_graphs("charges:witness", 30, max_vertices=4, max_edges=4):
        n = len(reference_paths_up_to(g, len(g.vertices)))
        q = L.Element.vertex(g, g.vertices[0])
        charges.clear()
        expected = [(SINK, _sink_edges(g)), (POOL, 3**n - 1)]
        if 3**n - 1 > MAX_WITNESS_POOL:
            with pytest.raises(L.LimitExceeded):
                L.find_fg_witness(q, lambda x: False)
        else:
            expected.append((BASIS, _basis_pairs(g, 2 * (len(g.vertices) - 1))))
            with pytest.raises(L.NotFoundWithinBounds):
                L.find_fg_witness(q, lambda x: False)
        assert charges == expected, g


def test_the_toeplitz_maps_charge_their_degree_and_window(charges):
    T = L.toeplitz_graph()
    for d in range(4):
        charges.clear()
        L.exact_sequence_report(T, d)
        assert charges == [(DEGREE, d), (BASIS, _basis_pairs(T, d))]
    for d, window in ((0, 3), (2, 6), (3, 9), (4, 128)):
        charges.clear()
        L.sandwich_report(T, d, window)
        # the sandwich bound covers every window the report builds
        assert charges == [(SANDWICH, window), (DEGREE, d), (BASIS, _basis_pairs(T, d))]
    x = L.parse_element(T, "e*e' + 2*f*f'")
    for window in (1, 5, 40):
        charges.clear()
        L.rcfm_representation(x, window)
        assert charges == [(WINDOW, window)]
    for i, j in ((0, 0), (3, 1), (2, 7), (32_767, 0)):
        charges.clear()
        L.socle_module_element(T, i, j)
        assert charges == [(UNIT, max(i, j) + 1)]
    charges.clear()
    with pytest.raises(L.LimitExceeded):
        L.sandwich_report(T, 64, 129)
    assert charges == [(SANDWICH, 129)]  # the window is charged first, and refuses
