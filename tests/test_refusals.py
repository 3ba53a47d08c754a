"""Refusals of bad input: each raises its LeavittError with its message, and
the CLI exits 2 with that error where a command reaches it, both within a
second: a bound refuses before it builds what it bounds."""

import json
from fractions import Fraction
from time import perf_counter

import pytest

import leavitt as L
from leavitt.cli import main

from conftest import A2_DSL, TOEPLITZ_DSL, complete_digraph, diamond_return, rose, rose_feeding_sink


def _graph(vertices, edges):
    return lambda: L.Graph("G", vertices, edges)


def _dsl(text, kind, message):
    """A refusal of a graph file: by the parser, and by the CLI on that file."""
    return lambda: L.parse_graph(text), kind, message, (text, ["analyze", "{file}"])


def _two_graphs():
    """(x over T, y over A2)."""
    return L.Element.vertex(L.toeplitz_graph(), "v"), L.Element.vertex(L.parse_graph(A2_DSL), "u")


def _foreign_embedding():
    rg = L.restriction_graph(L.toeplitz_graph(), {"w"}, 2)
    return L.restriction_embedding(rg, _two_graphs()[0])


def _rose_cycle():
    rose = L.Graph("rose", ["v"], [("e", "v", "v")])
    return L.Cycle(L.Path(rose, "v", ["e", "e"]))


def _dense(rows):
    return L.Matrix([[L.QQ.scalar(x) for x in r] for r in rows])


def _vertex_times(coefficient, field):
    """The element coefficient * v on T, through the public constructor."""
    T = L.toeplitz_graph()
    v = L.Path.trivial(T, "v")
    return lambda: L.Element(T, field, [(L.Monomial(v, v), coefficient)])


def _rose_restriction(n):
    """Entry paths into w, n loops feeding it, refused by their count alone."""
    g = rose_feeding_sink(n)
    return (
        lambda: L.restriction_graph(g, {"w"}, 12), L.LimitExceeded,
        "entry paths of length <= 12 exceed 2097152 edges",
        (g.to_dsl(), ["restrict", "{file}", "--set", "w", "--truncate", "12"]),
    )


def _rose_product():
    """(S)*(S) on 64 loops feeding w, S the 4,096 words e_i*e_j: 4,096^2
    pairs of terms, refused before the product builds any of them."""
    g = rose_feeding_sink(64)
    s = " + ".join(f"e{i}*e{j}" for i in range(1, 65) for j in range(1, 65))
    text = f"({s})*({s})"
    return (
        lambda: L.parse_element(g, text), L.LimitExceeded,
        "16777216 pairs of terms exceed the bound 1048576", (g.to_dsl(), ["nf", "{file}", text]),
    )


def _cycles_refused(g):
    """A listing refused once it would hold one more cycle than the bound, by
    the analyzer and by the CLI's full report: K_10 with loops (an edge from
    each vertex to each) has 1,112,083 cycles, and diamond_return(30)
    2^30 + 1, all but one through 30 diamonds that a search without blocking
    walks 2^30 ways before the first of them closes."""
    return (
        lambda: L.cycles(g), L.LimitExceeded, "cycles exceed the bound 131072",
        (g.to_dsl(), ["analyze", "{file}"]),
    )


A2 = L.parse_graph(A2_DSL)
NOT_TOEPLITZ = "graph does not match the Toeplitz pattern"

# (call, error type, message, None or (graph file text, CLI arguments with
# "{file}" for that file)); each row reaches a refusal no other test reaches
CASES = {
    "graph-duplicate-vertex": (
        _graph(["v", "v"], []), L.DuplicateIdentifier, "vertex 'v' declared twice", None
    ),
    "graph-edge-named-as-vertex": (
        _graph(["v"], [("v", "v", "v")]), L.DuplicateIdentifier, "identifier 'v' declared twice",
        None,
    ),
    "graph-undeclared-source": (
        _graph(["v"], [("e", "u", "v")]), L.UnknownIdentifier,
        "edge 'e': undeclared source 'u'", None,
    ),
    "graph-undeclared-range": (
        _graph(["v"], [("e", "v", "u")]), L.UnknownIdentifier,
        "edge 'e': undeclared range 'u'", None,
    ),
    "graph-vertices-of-a-string": (
        _graph("vw", []), L.PreconditionError,
        "a graph's vertex list is a collection of names, not the string 'vw'", None,
    ),
    "graph-edge-of-a-string": (
        _graph(["v"], ["eve"]), L.PreconditionError,
        "an edge is a collection of names, not the string 'eve'", None,
    ),
    "graph-edge-of-two-names": (
        _graph(["v"], [("e", "v")]), L.PreconditionError,
        "an edge is three names (name, source, range), not ('e', 'v')", None,
    ),
    "cycles-of-k10": _cycles_refused(complete_digraph(10)),
    "cycles-of-diamond-return-30": _cycles_refused(diamond_return(30)),
    "dsl-vertex-arity": _dsl(
        "graph G\nvertex a b\n", L.GraphSyntaxError, "line 2, column 1: expected 'vertex <id>'"
    ),
    "dsl-duplicate-edge": _dsl(
        "graph G\nvertex a\nedge e a a\nedge e a a\n", L.DuplicateIdentifier,
        "line 4: identifier 'e' declared twice",
    ),
    "dsl-second-header": _dsl(
        "graph G\ngraph H\n", L.GraphSyntaxError, "line 2, column 1: duplicate 'graph' header"
    ),
    "dsl-unknown-keyword": _dsl(
        "graph G\nnode a\n", L.GraphSyntaxError, "line 2, column 1: unknown keyword 'node'"
    ),
    "dsl-empty-source": _dsl(
        "# nothing\n", L.GraphSyntaxError,
        "line 1, column 1: empty graph source: missing 'graph <name>' header",
    ),
    "path-from-no-edges": (
        lambda: L.Path.from_edges(A2, []), L.PreconditionError,
        "from_edges needs at least one edge; use Path.trivial", None,
    ),
    "path-edges-of-a-string": (
        lambda: L.Path(L.toeplitz_graph(), "v", "ef"), L.PreconditionError,
        "a path's edge sequence is a collection of names, not the string 'ef'", None,
    ),
    "path-from-edges-of-a-string": (
        lambda: L.Path.from_edges(L.line_graph(3), "a1"), L.PreconditionError,
        "a path's edge sequence is a collection of names, not the string 'a1'", None,
    ),
    "cycle-revisits-a-source": (
        _rose_cycle, L.PreconditionError, "closed path revisits a source: not a cycle", None
    ),
    "cycle-has-exit-of-a-path": (
        lambda: L.cycle_has_exit(A2, L.Path.from_edges(A2, ["f"])), L.PreconditionError,
        "cycle_has_exit expects a Cycle", None,
    ),
    "line-graph-of-none": (
        lambda: L.line_graph(0), L.PreconditionError, "line_graph needs n >= 1", None
    ),
    "ladder-graph-of-none": (
        lambda: L.ladder_graph(0), L.PreconditionError,
        "ladder_graph needs at least one column", None,
    ),
    "comb-graph-of-none": (
        lambda: L.comb_graph(0), L.PreconditionError, "comb_graph needs at least one spoke", None
    ),
    "ragged-matrix": (
        lambda: L.Matrix([[1, 2], [3]]), L.PreconditionError, "ragged matrix", None
    ),
    "matrix-product-shapes": (
        lambda: _dense([[1, 2, 3]]) * _dense([[1, 2, 3]]), L.PreconditionError,
        "shape mismatch: (1, 3) * (1, 3)", None,
    ),
    "matrix-sum-shapes": (
        lambda: _dense([[1, 2, 3]]) + _dense([[1], [2], [3]]), L.PreconditionError,
        "shape mismatch: (1, 3) vs (3, 1)", None,
    ),
    "block-sum-structure": (
        lambda: L.BlockMatrix([_dense([[1]])]) + L.BlockMatrix([_dense([[1, 0], [0, 1]])]),
        L.PreconditionError, "block structure mismatch", None,
    ),
    "field-tag-prime-not-a-number": (
        lambda: L.field_from_name("fp:x"), L.PreconditionError, "bad field tag 'fp:x'",
        (TOEPLITZ_DSL, ["nf", "--field", "fp:x", "{file}", "v"]),
    ),
    "field-tag-unknown": (
        lambda: L.field_from_name("r"), L.PreconditionError,
        "bad field tag 'r' (expected 'q' or 'fp:<p>')",
        (TOEPLITZ_DSL, ["nf", "--field", "r", "{file}", "v"]),
    ),
    "element-of-a-float": (
        _vertex_times(2.5, L.QQ), L.PreconditionError, "2.5 is not a scalar of QQ", None
    ),
    "element-of-a-scalar-of-another-field": (
        _vertex_times(L.GF(5).one(), L.QQ), L.PreconditionError,
        "PrimeFieldElement(1, 5) is not a scalar of QQ", None,
    ),
    "element-of-a-denominator-zero-mod-p": (
        _vertex_times(Fraction(3, 14), L.GF(7)), L.PreconditionError,
        "denominator 14 is zero in F_7", None,
    ),
    "scale-by-a-scalar-of-another-field": (
        lambda: L.Element.vertex(L.toeplitz_graph(), "v", L.GF(7)).scale(L.GF(5).one()),
        L.PreconditionError, "PrimeFieldElement(1, 5) is not a scalar of GF(7)", None,
    ),
    "element-plus-an-int": (
        lambda: _two_graphs()[0] + 1, L.GraphMismatch, "cannot combine Element with int", None
    ),
    "negative-degree-bound": (
        lambda: L.basis_monomials_up_to(A2, -1), L.PreconditionError,
        "degree bound must be nonnegative", None,
    ),
    "full-basis-of-a-cycle": (
        lambda: L.full_basis(L.toeplitz_graph()), L.PreconditionError,
        "full_basis requires an acyclic graph", None,
    ),
    "basis-pairs-past-the-bound": (
        lambda: L.basis_monomials_up_to(L.toeplitz_graph(), 10**6), L.LimitExceeded,
        "path pairs of total length <= 1000000 exceed the bound 1048576", None,
    ),
    "full-basis-pairs-past-the-bound": (
        lambda: L.full_basis(L.line_graph(2000)), L.LimitExceeded,
        "path pairs of total length <= 3998 exceed the bound 1048576", None,
    ),
    "product-pairs-past-the-bound": _rose_product(),
    "witness-pool-past-the-bound": (
        lambda: L.find_fg_witness(L.Element.vertex(L.line_graph(4), "x1"), L.is_in_path_algebra),
        L.LimitExceeded, "3^10 - 1 candidate elements exceed the bound 2186", None,
    ),
    # refused before any path or unit is built: unbounded, these ran out of memory, or
    # overflowed an index (10^20)
    "paths-of-a-loop-past-the-edge-bound": (
        lambda: L.paths_up_to(L.single_loop_graph(), 10**6), L.LimitExceeded,
        "paths of length <= 1000000 exceed 33554432 edges", None,
    ),
    "paths-of-a-two-loop-rose-past-the-edge-bound": (
        lambda: L.paths_up_to(rose(2), 40), L.LimitExceeded,
        "paths of length <= 40 exceed 33554432 edges", None,
    ),
    "socle-unit-past-every-window": (
        lambda: L.socle_module_element(L.toeplitz_graph(), 10**9, 0), L.LimitExceeded,
        "matrix unit E[1000000000][0] needs window 1000000001, past the bound 32768", None,
    ),
    "socle-unit-past-every-index": (
        lambda: L.socle_module_element(L.toeplitz_graph(), 10**20, 0), L.LimitExceeded,
        "matrix unit E[100000000000000000000][0] needs window 100000000000000000001, past the "
        "bound 32768", None,
    ),
    "entry-paths-of-a-rose-of-8": _rose_restriction(8),
    "entry-paths-of-a-rose-of-64": _rose_restriction(64),
    "embedding-of-another-graph": (
        _foreign_embedding, L.PreconditionError, "element is not over this restriction graph",
        None,
    ),
    "denominator-over-two-graphs": (
        lambda: L.denominator_search(*_two_graphs()), L.PreconditionError,
        "p and q must live over one graph and field", None,
    ),
    "laurent-quotient-off-pattern": (
        lambda: L.laurent_quotient(_two_graphs()[1]), L.PreconditionError, NOT_TOEPLITZ, None
    ),
    "toeplitz-family-attached-by-a-string": (
        lambda: L.build_toeplitz_family(1, L.line_graph(2), "x1"), L.PreconditionError,
        "the attachment list is a collection of names, not the string 'x1'", None,
    ),
    # the window's floor is checked once per call, where the window enters
    "sandwich-window-of-none": (
        lambda: L.sandwich_report(L.toeplitz_graph(), 1, 0), L.PreconditionError,
        "window size must be positive",
        (TOEPLITZ_DSL, ["toeplitz-check", "{file}", "--degree", "1", "--window", "0"]),
    ),
    "window-of-none": (
        lambda: L.rcfm_representation(_two_graphs()[0], 0), L.PreconditionError,
        "window size must be positive", None,
    ),
    "exact-sequence-off-pattern": (
        lambda: L.exact_sequence_report(A2, 2), L.PreconditionError, NOT_TOEPLITZ, None
    ),
    # Graph() takes any names, but the DSL reads identifiers only
    "dsl-of-vertices-that-are-no-identifiers": (
        lambda: L.Graph("G", [1, "x y"], [("e", 1, "x y")]).to_dsl(), L.PreconditionError,
        "name 1 is no DSL identifier", None,
    ),
    "dsl-of-a-graph-name-that-is-no-identifier": (
        lambda: L.Graph("G name", ["v"], []).to_dsl(), L.PreconditionError,
        "name 'G name' is no DSL identifier", None,
    ),
    "dsl-of-a-restriction-graph": (
        lambda: L.restriction_graph(L.toeplitz_graph(), {"w"}, 2).graph.to_dsl(),
        L.PreconditionError, "name 'path:f' is no DSL identifier", None,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_each_refusal_has_its_type_and_message(case, capsys, tmp_path):
    call, kind, message, cli = CASES[case]
    start = perf_counter()
    with pytest.raises(kind) as raised:
        call()
    assert str(raised.value) == message
    assert perf_counter() - start < 1.0
    if cli is not None:
        text, argv = cli
        path = tmp_path / "input.graph"
        path.write_text(text)
        start = perf_counter()
        code = main([str(path) if a == "{file}" else a for a in argv])
        assert perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": kind.__name__, "message": message}}
