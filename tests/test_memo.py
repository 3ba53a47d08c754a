"""The per-Graph memo of derived facts.

Every memoised analyzer must answer on a graph it has already seen as it
does on a fresh copy, and hand out nothing a caller could mutate into a
later answer.
"""

import gc
import pickle

import pytest

import leavitt as L
from leavitt import Element, Graph, PreconditionError
from leavitt import graph as graph_module
from leavitt import quotients
from leavitt.graph import strongly_connected_components, vertex_on_a_cycle

from conftest import corpus_graphs, logged, random_acyclic_graph, random_graph, seeded


def _paths(block):
    return [(p.source, p.edges, p.range) for p in block["paths"]]


def _decomposition(g):
    try:
        d = L.matrix_decomposition(g)
    except PreconditionError as exc:
        return ("error", str(exc))
    return (d.kind, d.describe(), [_paths(b) for b in d.blocks])


def _socle(g):
    H, target = L.socle_quotient(g)
    return (H, target.name, target.vertices, target.edges)


def _toeplitz(g):
    d = L.recognize_toeplitz(g)
    return None if d is None else d.describe()


# graph fact (its memo key) -> comparable answer of the fact
ANALYZERS = {
    strongly_connected_components: strongly_connected_components,
    vertex_on_a_cycle: vertex_on_a_cycle,
    L.bifurcations: lambda g: L.bifurcations(g).ordered(),
    graph_module._designated_edges: graph_module._designated_edges,
    L.line_points: lambda g: L.line_points(g).ordered(),
    L.socle_quotient: _socle,
    L.matrix_decomposition: _decomposition,
    L.recognize_toeplitz: _toeplitz,
}


def fresh(g):
    return Graph(g.name, g.vertices, g.edges)


def memo_graphs():
    rng = seeded("memo")
    graphs = [random_graph(rng) for _ in range(200)]
    graphs += [g for g in corpus_graphs() if L.is_acyclic(g)]
    graphs.append(L.toeplitz_graph())
    for n, F in ((1, L.line_graph(3)), (2, L.comb_graph(2)), (3, L.line_graph(4))):
        graphs.append(L.build_toeplitz_family(n, F, F.vertices[:n]))
    return graphs


def test_memoised_answers_match_fresh_graphs():
    for g in memo_graphs():
        expected = {fact: f(fresh(g)) for fact, f in ANALYZERS.items()}
        shared = fresh(g)
        for _ in range(2):
            for fact, f in ANALYZERS.items():
                assert f(shared) == expected[fact], (g, fact.__name__)
        assert set(shared._memo) <= set(ANALYZERS), g


def test_memoised_values_are_immutable():
    g = L.toeplitz_graph()
    on = vertex_on_a_cycle(g)
    with pytest.raises(AttributeError):
        on.add("w")
    copy = set(on)
    copy.add("w")
    assert vertex_on_a_cycle(g) == {"v"}
    comps = strongly_connected_components(g)
    assert isinstance(comps, tuple) and all(isinstance(c, frozenset) for c in comps)
    assert isinstance(L.line_points(g).members, frozenset)

    fork = L.parse_graph("graph F\nvertex u\nvertex a\nvertex b\nedge x u a\nedge y u b\n")
    d = L.matrix_decomposition(fork)
    with pytest.raises(TypeError):
        d.blocks[0]["paths"] = ()
    with pytest.raises(AttributeError):
        d.blocks[0]["paths"].append(None)
    assert L.matrix_decomposition(fork) is d
    assert d.describe() == _decomposition(fresh(fork))[1]


def test_memoised_vertex_sets_cannot_be_changed():
    """line_points and bifurcations are kept as they are returned, so their
    public surface is read-only and later answers stay the same."""
    g = L.ladder_graph(3)
    report = L.analyzer_report(g)
    for fact in (L.line_points, L.bifurcations):
        vs = fact(g)
        before = (vs.ordered(), vs.members)
        with pytest.raises(AttributeError):
            vs.members = frozenset({"u1"})
        with pytest.raises(AttributeError):
            vs.members.add("u1")
        with pytest.raises(AttributeError):
            vs.graph = g
        assert fact(g) is vs and (vs.ordered(), vs.members) == before
        assert fact(g) == fact(fresh(g))
    assert L.analyzer_report(g) == report == L.analyzer_report(fresh(g))


def test_a_graph_pickled_after_its_report_unpickles_with_the_same_report():
    for g in (L.ladder_graph(4), L.toeplitz_graph(), L.line_graph(5)):
        report = L.analyzer_report(g)
        L.in_socle(Element.vertex(g, g.vertices[-1]))
        copy = pickle.loads(pickle.dumps(g))
        assert L.line_points in copy._memo and L.bifurcations in copy._memo
        assert L.line_points(copy) == L.line_points(g)
        assert L.line_points(copy).ordered() == L.line_points(g).ordered()
        assert L.analyzer_report(copy) == report
        assert _socle(copy) == _socle(g)


def test_a_graph_pickled_after_its_decomposition_or_toeplitz_reports_keeps_them():
    """Every memoised fact pickles: the matrix decomposition, whose blocks
    stay read-only mappings, the rewrite rule's table of designated edges,
    and the facts behind both Toeplitz reports."""
    rng = seeded("pickle-decomposition")
    a2 = L.parse_graph("graph A2\nvertex u\nvertex w\nedge f u w")
    acyclic = [a2, L.line_graph(5), L.comb_graph(3), L.ladder_graph(2)]
    acyclic += [random_acyclic_graph(rng) for _ in range(10)]
    for g in acyclic:
        d = L.matrix_decomposition(g)
        x = Element.identity(g) * Element.identity(g)
        copy = pickle.loads(pickle.dumps(g))
        assert L.matrix_decomposition in copy._memo and graph_module._designated_edges in copy._memo
        d_copy = L.matrix_decomposition(copy)
        assert d_copy.graph is copy and (d_copy.kind, d_copy.describe()) == (d.kind, d.describe())
        assert [_paths(b) for b in d_copy.blocks] == [_paths(b) for b in d.blocks]
        with pytest.raises(TypeError):
            d_copy.blocks[0]["size"] = 0
        assert graph_module._designated_edges(copy) == graph_module._designated_edges(g)
        assert L.to_matrix(Element.identity(copy), d_copy) == L.to_matrix(x, d)
    g = L.toeplitz_graph()
    reports = L.exact_sequence_report(g, 3), L.sandwich_report(g, 2, 6)
    copy = pickle.loads(pickle.dumps(g))
    assert (L.exact_sequence_report(copy, 3), L.sandwich_report(copy, 2, 6)) == reports


def test_memo_keeps_no_cycle_through_the_graph():
    """Outside the matrix decomposition, whose paths refer to their graph,
    nothing in the memo refers back to it: a dropped graph is freed at
    once, not at the next garbage collection."""
    gc.collect()
    gc.disable()
    try:
        for g in (L.ladder_graph(4), L.toeplitz_graph()):
            L.analyzer_report(g)
            L.in_socle(Element.vertex(g, g.vertices[-1]))
            L.recognize_toeplitz(g)
            del g
            assert gc.collect() == 0
        g = L.toeplitz_graph()
        L.exact_sequence_report(g, 2)
        L.sandwich_report(g, 2, 6)
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_analyzer_report_runs_one_scc_pass():
    g = L.ladder_graph(4)
    log = logged(g)
    L.analyzer_report(g)
    assert log.stored.count(strongly_connected_components) == 1
    L.analyzer_report(g)
    assert log.stored.count(strongly_connected_components) == 1


def test_every_fact_is_computed_once():
    """Two rounds of every query that reads graph facts store each fact at
    most once, and all of them together store exactly the facts that
    ANALYZERS compares with fresh graphs, so no fact escapes that
    comparison."""
    stored = set()
    for g in memo_graphs():
        g = fresh(g)
        log = logged(g)
        for _ in range(2):
            L.analyzer_report(g)
            L.in_socle(Element.vertex(g, g.vertices[-1]))
            if L.is_acyclic(g):
                L.matrix_decomposition(g)
            L.recognize_toeplitz(g)
        assert len(log.stored) == len(set(log.stored)), g
        stored.update(log.stored)
    g = L.toeplitz_graph()
    log = logged(g)
    for _ in range(2):
        L.exact_sequence_report(g, 2)
        L.sandwich_report(g, 2, 6)
    assert len(log.stored) == len(set(log.stored))
    stored.update(log.stored)
    assert stored == set(ANALYZERS)


def test_reports_build_the_socle_quotient_once(monkeypatch):
    closures, quotient_graphs = [], []
    closure, quotient_of = quotients.hereditary_saturated_closure, quotients._quotient_of

    def counted_quotient_of(g, members):
        quotient_graphs.append(g)
        return quotient_of(g, members)

    monkeypatch.setattr(quotients, "hereditary_saturated_closure",
                        lambda g, X: closures.append(g) or closure(g, X))
    monkeypatch.setattr(quotients, "_quotient_of", counted_quotient_of)
    g = L.toeplitz_graph()
    assert L.exact_sequence_report(g, 4)["pass"]
    # one socle quotient for in_socle; the Laurent side builds no graph
    assert len(closures) == 1 and len(quotient_graphs) == 1
    assert L.sandwich_report(g, 3, 8)["pass"]
    assert all(L.in_socle(Element.vertex(g, "w")) for _ in range(5))
    assert len(closures) == 1 and len(quotient_graphs) == 1
