"""Graph DSL and analyzer tests, including the exhaustive-subset oracles."""

import copy
import os
import pickle
import subprocess
import sys
from time import perf_counter

import pytest

import leavitt as L
from leavitt import (
    DuplicateIdentifier,
    GraphSyntaxError,
    LeavittError,
    PreconditionError,
    UnknownIdentifier,
)
from leavitt import graph as graph_module
from leavitt.graph import strongly_connected_components, vertex_on_a_cycle

from conftest import (
    closure_oracle,
    complete_digraph,
    components_oracle,
    corpus_graphs,
    count_vertex_checks,
    counting_cycles,
    cycles_oracle,
    deep_graphs,
    diamond_return,
    hereditary_oracle,
    johnson_cycles,
    line_points_oracle,
    ParentVertexSet,
    parent_bifurcations,
    parent_connected_components,
    parent_hereditary_saturated_closure,
    parent_is_hereditary,
    parent_line_points,
    parent_quotient_graph,
    parent_restriction_graph,
    parent_strongly_connected_components,
    parent_tree,
    parent_tree_of_set,
    reachability,
    rose,
    semiprime_oracle,
    small_corpus_graphs,
    socle_essential_oracle,
    subsets,
    seeded,
    random_graph,
    reference_closure,
)


# -- DSL ---------------------------------------------------------------------


def test_parse_toeplitz(toeplitz):
    assert toeplitz.name == "T"
    assert toeplitz.vertices == ("v", "w")
    assert [e.name for e in toeplitz.edges] == ["e", "f"]
    assert toeplitz.edge("e").src == "v" and toeplitz.edge("e").dst == "v"


def test_parse_a2_and_p1(a2, p1):
    assert a2.vertices == ("u", "w") and len(a2.edges) == 1
    assert p1.vertices == ("v",) and p1.edges == ()


def test_parse_comments_and_blank_lines():
    g = L.parse_graph("# heading\ngraph G # inline\n\nvertex a\n  # mid\nvertex b\nedge e a b\n")
    assert g.vertices == ("a", "b")


def test_parse_errors_carry_position():
    with pytest.raises(GraphSyntaxError) as err:
        L.parse_graph("graph G\nvertex a\nedge e a\n")
    assert "line 3" in str(err.value)
    with pytest.raises(DuplicateIdentifier):
        L.parse_graph("graph G\nvertex a\nvertex a\n")
    with pytest.raises(UnknownIdentifier) as err:
        L.parse_graph("graph G\nvertex a\nedge e a b\n")
    assert "line 3" in str(err.value)
    with pytest.raises(GraphSyntaxError):
        L.parse_graph("vertex a\n")
    with pytest.raises(GraphSyntaxError):
        L.parse_graph("graph G\nvertex 1a\n")


@pytest.mark.parametrize(
    "source, word, line, column",
    [
        ("graph g\nvertex v\nvertex a\nedge a1 v 1\n", "1", 4, 11),
        ("graph g\nvertex v\nvertex a\n\tedge\ta1\tv\t1\n", "1", 4, 12),
        ("graph g\nvertex v\nvertex a\nedge a v x-#c\n", "x-", 4, 10),
        ("graph g\nvertex v\nvertex a\nedge 1 v 1\n", "1", 4, 6),
        ("graph g\nvertex v\nvertex a\nedge vv v v-  # v- again\n", "v-", 4, 11),
        ("graph 1x\n", "1x", 1, 7),
    ],
    ids=["inside-an-earlier-token", "tabs", "touching-a-comment", "first-token",
         "in-the-comment-too", "header"],
)
def test_bad_identifier_column_is_its_whole_token_before_the_comment(source, word, line, column):
    with pytest.raises(GraphSyntaxError) as err:
        L.parse_graph(source)
    assert str(err.value) == f"line {line}, column {column}: bad identifier {word!r}"
    assert (err.value.line, err.value.column) == (line, column)


def test_builders_name_their_graphs():
    assert L.line_graph(3).name == "line3"
    assert L.single_loop_graph().name == "R1"
    assert L.ladder_graph(2).name == "ladder2"
    assert L.comb_graph(2).name == "comb2"
    assert L.toeplitz_graph().name == "T"


def test_dsl_round_trip(toeplitz):
    assert L.parse_graph(toeplitz.to_dsl()) == toeplitz


def test_dsl_round_trips_random_graphs():
    """parse_graph reads to_dsl's text back as the same graph, name included."""
    rng = seeded("dsl-round-trip")
    for _ in range(300):
        g = random_graph(rng)
        back = L.parse_graph(g.to_dsl())
        assert back == g and back.name == g.name and back.to_dsl() == g.to_dsl(), g


def test_equal_graphs_hash_equal_and_share_a_dict_key(toeplitz):
    """The hash is read off the vertices and edges on demand, so equal graphs
    built apart hash equal: under another name, from the DSL text, and in
    another process with another string-hash seed, brought over by pickle."""
    dsl = toeplitz.to_dsl()
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    dump = "import pickle, sys, leavitt; sys.stdout.buffer.write(pickle.dumps(leavitt.parse_graph(sys.argv[1])))"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", dump, dsl], env=env, capture_output=True, check=True)
    others = [
        L.Graph("renamed", toeplitz.vertices, toeplitz.edges),
        L.parse_graph(dsl),
        pickle.loads(done.stdout),
    ]
    facts = {toeplitz: "T"}
    for g in others:
        assert g == toeplitz and g is not toeplitz
        assert hash(g) == hash(toeplitz) == hash((g.vertices, g.edges))
        assert facts[g] == "T"
    assert len({toeplitz, *others}) == 1


# -- trees and connectivity ---------------------------------------------------


def test_tree_examples(toeplitz, a2):
    assert L.tree(toeplitz, "v").ordered() == ("v", "w")
    assert L.tree(toeplitz, "w").ordered() == ("w",)
    assert L.tree(a2, "u").ordered() == ("u", "w")
    with pytest.raises(UnknownIdentifier):
        L.tree(a2, "nope")


def test_connects_to(a2):
    assert L.connects_to(a2, "u", "w")
    assert not L.connects_to(a2, "w", "u")
    for v in a2.vertices:
        assert L.connects_to(a2, v, v)


def test_connects_to_rejects_unknown_vertices_at_either_end(a2):
    """An unknown target used to give False; it is reported as walk_between
    reports it, and an unknown source as before."""
    for u, w, unknown in (("u", "nowhere", "nowhere"), ("nowhere", "u", "nowhere"),
                          ("x", "y", "x")):
        for search in (L.connects_to, L.walk_between):
            with pytest.raises(UnknownIdentifier, match=f"unknown vertex '{unknown}'"):
                search(a2, u, w)


def test_tree_is_least_hereditary_superset():
    for g in small_corpus_graphs():
        for v in g.vertices:
            t = L.tree(g, v).members
            assert hereditary_oracle(g, t)
            smallest = min(
                (S for S in subsets(g.vertices) if v in S and hereditary_oracle(g, S)),
                key=len,
            )
            assert t == smallest


# -- line points, bifurcations, cycles ----------------------------------------


def test_line_points_examples(toeplitz, r1):
    assert L.line_points(toeplitz).ordered() == ("w",)
    assert L.line_points(r1).ordered() == ()
    ladder = L.ladder_graph(4)
    lp = L.line_points(ladder).members
    assert {f"v{i}" for i in range(1, 5)} <= lp
    # tail sink is the documented truncation artifact
    assert lp - {f"v{i}" for i in range(1, 5)} == {"u5"}


def test_bifurcations(toeplitz, a2, p1):
    assert L.bifurcations(toeplitz).ordered() == ("v",)
    assert L.bifurcations(a2).ordered() == ()
    assert L.bifurcations(p1).ordered() == ()


def test_line_point_trees_are_thin_and_end_at_sinks():
    for g in corpus_graphs():
        for u in L.line_points(g):
            t = L.tree(g, u).members
            assert all(len(g.out_edges(w)) <= 1 for w in t)
            # finite graphs: following the unique edges must hit a sink
            assert any(w in g.sinks() for w in t)


def test_socle_essential_stable_under_feeding_line_point_trees():
    # curated regression, not a theorem: adding an edge INTO a line-point
    # tree (keeping the tree bifurcation-free) must not lose essentiality
    cases = [
        # comb: a new spoke into the central sink
        (L.comb_graph(3), "p4", "w"),
        # ladder: a second feeder into the sink v2
        (L.ladder_graph(2), "q1", "v2"),
        # A2: a chain extension feeding the sink w
        (L.parse_graph("graph A2\nvertex u\nvertex w\nedge f u w\n"), "z", "w"),
    ]
    for g, new_vertex, target in cases:
        assert L.socle_is_essential(g)
        grown = L.Graph(
            g.name + "_grown",
            list(g.vertices) + [new_vertex],
            [(e.name, e.src, e.dst) for e in g.edges] + [("extra", new_vertex, target)],
        )
        assert L.socle_is_essential(grown)


def test_cycles_examples(toeplitz, a2, r1):
    cs = L.cycles(toeplitz)
    assert len(cs) == 1 and cs[0].edges == ("e",)
    assert L.cycle_has_exit(toeplitz, cs[0])
    (loop,) = L.cycles(r1)
    assert not L.cycle_has_exit(r1, loop)
    assert L.cycles(a2) == ()


def test_cycles_canonical_rotation_and_multiplicity():
    g = L.parse_graph(
        "graph C\nvertex b\nvertex a\nedge e1 b a\nedge e2 a b\nedge l a a\n"
    )
    cs = L.cycles(g)
    # the 2-cycle rotates to start at b (declared first); the loop is separate
    assert sorted(tuple(c.canonical().edges) for c in cs) == [("e1", "e2"), ("l",)]


def test_a_listing_of_the_bound_is_answered_and_one_more_cycle_refused(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_CYCLES", 3)
    assert [c.edges for c in L.cycles(rose(3))] == [("e1",), ("e2",), ("e3",)]
    with pytest.raises(L.LimitExceeded, match="^cycles exceed the bound 3$"):
        L.cycles(rose(4))


def test_cycle_facts_match_oracles_on_random_graphs():
    rng = seeded("cycles")
    for _ in range(100):
        g = random_graph(rng)
        cs = L.cycles(g)
        expected = sorted(cycles_oracle(g), key=lambda es: [g.edge_index(e) for e in es])
        assert [c.edges for c in cs] == expected
        assert all(c.canonical().edges == c.edges for c in cs)
        on_cycles = {v for c in cs for v in c.vertices()}
        assert vertex_on_a_cycle(g) == on_cycles
        assert L.is_acyclic(g) == (not on_cycles)
        X = frozenset(v for v in g.vertices if rng.random() < 0.5)
        for S in (X, L.tree_of_set(g, X).members):
            assert L.is_hereditary(g, S) == hereditary_oracle(g, S)


def test_cycles_match_johnsons_search_with_blocking():
    """cycles() lists the cycles of Johnson's search with the blocked set and
    the B-lists, in the same sorted order, as does the counting copy of its
    own search: on random graphs, the corpus, complete digraphs with loops
    K_1..K_7 (2,372 cycles) and ladders (acyclic)."""
    rng = seeded("johnson-cycles")
    graphs = [random_graph(rng) for _ in range(150)] + corpus_graphs()
    graphs += [complete_digraph(n) for n in range(1, 8)] + [L.ladder_graph(n) for n in (1, 2, 4, 8)]
    for g in graphs:
        listed = [(c.path.source, c.edges) for c in L.cycles(g)]
        assert johnson_cycles(g)[0] == counting_cycles(g)[0] == listed


def test_blocking_bounds_the_pushes_between_two_cycles_where_the_listing_does_not():
    """On diamond_return(k) the search of cycles() pushes 2^(k+2) + 2k - 1
    vertices between two closed cycles, and Johnson's search 5k + 3: counts,
    so the growth classes are checked exactly."""
    for k in range(1, 9):
        g = diamond_return(k)
        (found, gaps), (listed, johnson_gaps) = counting_cycles(g), johnson_cycles(g)
        assert found == listed == [(c.path.source, c.edges) for c in L.cycles(g)]
        assert len(listed) == 2**k + 1
        assert max(gaps) == 2 ** (k + 2) + 2 * k - 1 and max(johnson_gaps) == 5 * k + 3


def test_cycle_has_exit_rejects_foreign_cycle(toeplitz, r1):
    (loop,) = L.cycles(r1)
    with pytest.raises(PreconditionError):
        L.cycle_has_exit(toeplitz, loop)
    with pytest.raises(PreconditionError):
        L.Cycle(L.Path.from_edges(toeplitz, ["f"]))


def test_a_valid_closed_path_is_a_cycle_equal_to_its_listed_rotation():
    g = L.parse_graph("graph R\nvertex a\nvertex b\nvertex c\nedge x a b\nedge y b c\nedge z c a\n")
    c = L.Cycle(L.Path(g, "b", ["y", "z", "x"]))
    (listed,) = L.cycles(g)
    assert c.edges == ("y", "z", "x") and listed.edges == ("x", "y", "z")
    assert c == listed and hash(c) == hash(listed)
    assert repr(c) == "Cycle(y.z.x)"


# -- hereditary / saturated / closure -----------------------------------------


def test_hereditary_saturated_examples(toeplitz):
    assert L.is_hereditary(toeplitz, {"w"})
    assert L.is_saturated(toeplitz, {"w"})
    assert not L.is_hereditary(toeplitz, {"v"})
    assert L.is_hereditary(toeplitz, set(toeplitz.vertices))
    assert L.is_saturated(toeplitz, set(toeplitz.vertices))


def test_closure_examples(toeplitz):
    assert L.hereditary_saturated_closure(toeplitz, {"w"}).ordered() == ("w",)
    assert L.hereditary_saturated_closure(toeplitz, set()).ordered() == ()
    lad = L.ladder_graph(3)
    c = L.hereditary_saturated_closure(lad, ["v1", "v2", "v3"])
    assert c.ordered() == ("v1", "v2", "v3")


def test_closure_matches_exhaustive_oracle():
    for g in small_corpus_graphs():
        for X in subsets(g.vertices):
            got = L.hereditary_saturated_closure(g, X).members
            assert got == closure_oracle(g, X)
            assert L.is_hereditary(g, got) and L.is_saturated(g, got)
            assert X <= got


def test_closure_matches_fixpoint_on_random_graphs():
    rng = seeded("closure-fixpoint")
    for _ in range(500):
        g = random_graph(rng, max_vertices=12, max_edges=20)
        for _ in range(3):
            X = frozenset(v for v in g.vertices if rng.random() < 0.3)
            assert L.hereditary_saturated_closure(g, X).members == reference_closure(g, X)


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except LeavittError as exc:
        return ("error", type(exc), str(exc))


def _same_vertex_set(new, old):
    assert isinstance(new, L.VertexSet) and isinstance(old, ParentVertexSet)
    assert new.ordered() == old.ordered()
    assert isinstance(new.members, frozenset) and new.members == old.members
    assert tuple(new) == tuple(old) and len(new) == len(old)
    assert new == set(old.members) and new == old.members and not new == {"nowhere"}
    assert hash(new) == hash(old) and repr(new) == repr(old)


def _same_graph(new, old):
    assert (new.name, new.vertices, new.edges) == (old.name, old.vertices, old.edges)


def _same_restriction(new, old):
    _same_graph(new.graph, old.graph)
    assert (new.H, new.bound, new.complete) == (old.H, old.bound, old.complete)
    assert [p.edges for p in new.entry_paths] == [p.edges for p in old.entry_paths]


def _same_outcome(new, old, same):
    if new[0] == "value" and old[0] == "value":
        same(new[1], old[1])
    else:
        assert new == old


def test_vertex_sets_match_the_parent_vertex_sets():
    """The graph-free VertexSet and the functions that return or check one,
    against verbatim copies of the ones whose VertexSet held its graph:
    ordered tuples, members, iteration, len, equality with sets, and the
    error types and messages for a set that is not hereditary and for a set
    with one unknown name."""
    rng = seeded("vertex-sets")
    graphs = [random_graph(rng, max_vertices=8, max_edges=12) for _ in range(200)]
    graphs += corpus_graphs() + deep_graphs()
    kinds = set()
    for g in graphs:
        vertices = rng.sample(g.vertices, min(len(g.vertices), 6))
        for v in vertices:
            _same_vertex_set(L.tree(g, v), parent_tree(g, v))
        _same_vertex_set(L.bifurcations(g), parent_bifurcations(g))
        _same_vertex_set(L.line_points(g), parent_line_points(g))
        seeds = [[], list(g.vertices)]
        seeds += [[v for v in vertices if rng.random() < 0.4] for _ in range(3)]
        for X in seeds:
            new_sets = [X, L.tree_of_set(g, X), L.hereditary_saturated_closure(g, X)]
            old_sets = [X, parent_tree_of_set(g, X), parent_hereditary_saturated_closure(g, X)]
            _same_vertex_set(new_sets[1], old_sets[1])
            _same_vertex_set(new_sets[2], old_sets[2])
            _same_vertex_set(L.VertexSet(g, X), ParentVertexSet(g, X))
            unknown = X[:1] + ["nowhere"] + X[1:]
            new_sets.append(unknown)
            old_sets.append(unknown)
            for H, old_H in zip(new_sets, old_sets):
                assert _outcome(L.is_hereditary, g, H) == _outcome(parent_is_hereditary, g, old_H)
                new = _outcome(L.quotient_graph, g, H)
                old = _outcome(parent_quotient_graph, g, old_H)
                _same_outcome(new, old, _same_graph)
                kinds.add(new[0] if new[0] == "value" else new[2])
                new = _outcome(L.restriction_graph, g, H, 2)
                old = _outcome(parent_restriction_graph, g, old_H, 2)
                _same_outcome(new, old, _same_restriction)
                kinds.add(new[0] if new[0] == "value" else new[2])
            for f, parent in ((L.tree_of_set, parent_tree_of_set),
                              (L.hereditary_saturated_closure, parent_hereditary_saturated_closure),
                              (L.is_hereditary, parent_is_hereditary),
                              (L.VertexSet, ParentVertexSet)):
                assert _outcome(f, g, unknown) == _outcome(parent, g, unknown)
                assert _outcome(f, g, unknown)[0] == "error"
        assert _outcome(L.tree, g, "nowhere") == _outcome(parent_tree, g, "nowhere")
    assert "value" in kinds and "H is not hereditary" in kinds
    assert any(k.startswith("unknown vertex 'nowhere'") for k in kinds)


def test_vertex_sets_are_checked_once_per_call(monkeypatch):
    """On line_graph(200) with H = {x100..x200}, a valid set is checked by one
    subset test and no Graph.vertex_index call. quotient_graph checks H once;
    the closure and the tree check H, then the set they return. restriction_graph
    checks H, then the closure it reduces by, not H again.
    analyzer_report builds its sets from the graph's own vertices."""
    lookups, checks = count_vertex_checks(monkeypatch)

    def count(query):
        g, H = L.line_graph(200), {f"x{i}" for i in range(100, 201)}
        lookups.clear()
        checks.clear()
        query(g, H)
        return len(lookups), checks[:]

    assert count(L.quotient_graph) == (0, [101])
    assert count(L.hereditary_saturated_closure) == (0, [101, 200])
    assert count(L.tree_of_set) == (0, [101, 101])
    assert count(L.is_hereditary) == count(L.is_saturated) == (0, [101])
    assert count(lambda g, H: L.restriction_graph(g, H, 6)) == (0, [101, 200])
    assert count(lambda g, H: L.analyzer_report(g))[0] == 0


def test_unknown_names_are_reported_in_the_callers_order(toeplitz):
    """Of several unknown names, the first one the caller gave is reported,
    whatever the string-hash seed."""
    g = L.ladder_graph(2)
    for names in (["aa", "bb", "cc"], ["cc", "u1", "bb", "aa"], ("bb", "aa")):
        first = next(v for v in names if v not in g.vertices)
        for f in (L.hereditary_saturated_closure, L.tree_of_set, L.is_hereditary,
                  L.is_saturated, L.quotient_graph, L.VertexSet,
                  lambda g, X: L.restriction_graph(g, X, 2)):
            with pytest.raises(UnknownIdentifier, match=f"unknown vertex '{first}'"):
                f(g, names)
            with pytest.raises(UnknownIdentifier, match=f"unknown vertex '{first}'"):
                f(g, iter(names))


def test_a_string_is_not_a_vertex_set(toeplitz):
    """A string used to be read as the set of its characters."""
    line = L.line_graph(12)
    for g, text in ((toeplitz, "vw"), (toeplitz, "w"), (line, "x12")):
        for f in (L.hereditary_saturated_closure, L.tree_of_set, L.is_hereditary,
                  L.is_saturated, L.quotient_graph, L.VertexSet,
                  lambda g, X: L.restriction_graph(g, X, 2)):
            with pytest.raises(PreconditionError, match="not the string"):
                f(g, text)
    assert L.hereditary_saturated_closure(toeplitz, ["w"]) == {"w"}
    assert L.quotient_graph(line, ["x12"]).vertices == line.vertices[:-1]


def test_a_vertex_set_of_another_graph_is_checked_by_its_names(toeplitz, a2):
    """A VertexSet holds no graph: one built on another graph is read as its
    names, as a plain set is."""
    w = L.tree(a2, "w")
    assert L.hereditary_saturated_closure(toeplitz, w) == {"w"}
    assert L.quotient_graph(toeplitz, w).vertices == ("v",)
    with pytest.raises(UnknownIdentifier, match="unknown vertex 'u'"):
        L.quotient_graph(toeplitz, L.tree(a2, "u"))
    assert w == L.line_points(toeplitz) == {"w"} and hash(w) == hash(L.line_points(toeplitz))


def test_a_vertex_set_is_the_frozenset_of_its_members(toeplitz):
    """Set algebra reads a VertexSet as it is, and the set is its own
    members. Iteration, ordered() and repr keep the declaration order."""
    g = L.ladder_graph(3)
    for vs in (L.line_points(g), L.bifurcations(g), L.tree_of_set(g, []),
               L.VertexSet(g, reversed(g.vertices))):
        assert isinstance(vs, frozenset) and vs.members is vs
        assert set(vs) == vs == frozenset(vs.ordered())
        assert tuple(vs) == vs.ordered() == tuple(v for v in g.vertices if v in vs)
        assert repr(vs) == f"VertexSet({list(vs.ordered())})"
    line, forks, tree = L.line_points(toeplitz), L.bifurcations(toeplitz), L.tree(toeplitz, "v")
    assert (line, forks) == ({"w"}, {"v"})
    assert line | forks == tree and tree & line == {"w"} and tree - line == forks
    assert not L.bifurcations(L.line_graph(3)) and not line & forks
    for name in ("__contains__", "__len__", "__eq__", "__hash__"):
        assert name not in vars(L.VertexSet)


def test_a_vertex_set_keeps_its_order_when_pickled_under_another_hash_seed():
    """A frozenset iterates in hash order, which moves with the string-hash
    seed, and unpickles by calling its class on its members. A VertexSet
    pickled in another process, or copied, keeps its declaration order."""
    g = L.line_graph(12)
    line = L.line_points(g)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    dump = ("import pickle, sys, leavitt; "
            "sys.stdout.buffer.write(pickle.dumps(leavitt.line_points(leavitt.line_graph(12))))")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", dump], env=env, capture_output=True, check=True)
    copies = [pickle.loads(done.stdout), copy.copy(line), copy.deepcopy(line)]
    copies += [pickle.loads(pickle.dumps(line, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is L.VertexSet and other == line and hash(other) == hash(line)
        assert other.ordered() == tuple(other) == line.ordered() == g.vertices
        assert repr(other) == repr(line)


def test_closure_is_linear_on_long_lines():
    g = L.line_graph(10000)
    start = perf_counter()
    closure = L.hereditary_saturated_closure(g, ["x10000"])
    assert perf_counter() - start < 1.0
    assert len(closure) == 10000


# -- semiprimeness -------------------------------------------------------------


def test_semiprime_examples(toeplitz, a2, r1):
    assert not L.is_path_algebra_semiprime(a2)
    assert L.is_path_algebra_semiprime(r1)
    assert not L.is_path_algebra_semiprime(toeplitz)


def test_semiprime_agrees_with_path_oracle_on_corpus():
    for g in corpus_graphs():
        assert L.is_path_algebra_semiprime(g) == semiprime_oracle(g)


def test_semiprime_agrees_with_path_oracle_on_random_graphs():
    rng = seeded("semiprime")
    for _ in range(60):
        g = random_graph(rng)
        assert L.is_path_algebra_semiprime(g) == semiprime_oracle(g)


# -- essential socle ------------------------------------------------------------


def test_socle_essential_examples(toeplitz, r1):
    assert L.socle_is_essential(toeplitz)
    assert L.socle_is_essential(L.ladder_graph(3))
    assert not L.socle_is_essential(r1)


def test_socle_essential_matches_definition_on_random_graphs():
    rng = seeded("essential")
    for _ in range(60):
        g = random_graph(rng)
        assert L.socle_is_essential(g) == socle_essential_oracle(g)
        assert L.line_points(g).members == line_points_oracle(g)


# -- components and shape checks -------------------------------------------------


def test_connected_components():
    two = L.parse_graph(
        "graph TwoA2\nvertex u1\nvertex w1\nvertex u2\nvertex w2\nedge f1 u1 w1\nedge f2 u2 w2\n"
    )
    parts = L.connected_components(two)
    assert len(parts) == 2
    assert parts[0].vertices == ("u1", "w1")
    assert [e.name for e in parts[1].edges] == ["f2"]
    assert len(L.connected_components(L.parse_graph("graph T\nvertex v\nvertex w\nedge e v v\nedge f v w"))) == 1
    assert len(L.connected_components(L.comb_graph(4))) == 1
    isolated = L.Graph("iso", [f"v{i}" for i in range(4000)], [])
    parts = L.connected_components(isolated)
    assert [c.vertices for c in parts] == [(v,) for v in isolated.vertices]
    rng = seeded("components")
    for _ in range(200):
        g = random_graph(rng, max_vertices=12, max_edges=10)
        parts = L.connected_components(g)
        assert [c.vertices for c in parts] == components_oracle(g)
        for c in parts:
            assert c.edges == tuple(e for e in g.edges if e.src in c.vertices)


def test_walks(a2):
    w = L.walk_between(a2, "w", "u")
    assert w is not None and w.range == "u"
    assert L.walk_between(a2, "u", "u").items == ()
    two = L.parse_graph("graph D\nvertex a\nvertex b\n")
    assert L.walk_between(two, "a", "b") is None


def test_searches_match_the_parent_searches():
    """Kosaraju's components, the undirected components and the walks
    against verbatim copies of the parent's Tarjan search and component
    labelling, and against the Floyd-Warshall and union-find oracles."""
    rng = seeded("searches")
    randoms = [random_graph(rng, max_vertices=8, max_edges=16) for _ in range(300)]
    assert any(e.src == e.dst for g in randoms for e in g.edges)
    assert any(len({(e.src, e.dst) for e in g.edges}) < len(g.edges) for g in randoms)
    graphs = [(g, True) for g in randoms + corpus_graphs()] + [(g, False) for g in deep_graphs()]
    for g, small in graphs:
        comps = strongly_connected_components(g)
        assert set(comps) == set(parent_strongly_connected_components(g))
        assert sum(map(len, comps)) == len(g.vertices)
        assert frozenset().union(*comps) == frozenset(g.vertices)
        if small:
            reach = reachability(g)
            for c in comps:
                for v in c:
                    assert c == {w for w in g.vertices if reach[v][w] and reach[w][v]}
        new, old = L.connected_components(g), parent_connected_components(g)
        assert [(c.name, c.vertices, c.edges) for c in new] == [
            (c.name, c.vertices, c.edges) for c in old
        ]
        block_of = {v: i for i, b in enumerate(components_oracle(g)) for v in b}
        for _ in range(8):
            u, w = rng.choice(g.vertices), rng.choice(g.vertices)
            walk = L.walk_between(g, u, w)
            if block_of[u] != block_of[w]:
                assert walk is None
                continue
            assert (walk.graph, walk.source, walk.range) == (g, u, w)
            at = u
            for name, forward in walk.items:
                e = g.edge(name)
                assert (e.src if forward else e.dst) == at
                at = e.dst if forward else e.src
            assert at == w


def test_strongly_connected_components_come_in_topological_order():
    """Each component comes before every component it reaches, as the
    docstring says of Kosaraju's order."""
    rng = seeded("scc order")
    for g in [random_graph(rng, max_vertices=8, max_edges=12) for _ in range(200)] + corpus_graphs():
        comps, reach = strongly_connected_components(g), reachability(g)
        for i, c in enumerate(comps):
            assert not any(reach[v][w] for d in comps[:i] for v in c for w in d)


def test_is_acyclic_no_bifurcation(toeplitz, a2, line3):
    assert L.is_acyclic_no_bifurcation(a2)
    assert L.is_acyclic_no_bifurcation(line3)
    assert not L.is_acyclic_no_bifurcation(toeplitz)


def test_analyzer_report_shape(toeplitz):
    report = L.analyzer_report(toeplitz)
    assert list(report) == [
        "semiprime_path_algebra",
        "line_points",
        "socle_essential",
        "cycles",
        "bifurcations",
        "components",
    ]
    assert report["cycles"] == [["e"]]
    assert report["components"] == [{"vertices": ["v", "w"], "edges": ["e", "f"]}]


def test_analyzer_report_on_paths_past_the_recursion_limit():
    cycle, looped = deep_graphs()
    assert L.analyzer_report(cycle)["cycles"] == [[e.name for e in cycle.edges]]
    report = L.analyzer_report(looped)
    assert report["cycles"] == [["l"]]
    assert report["line_points"] == [] and not report["socle_essential"]
