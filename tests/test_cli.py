"""CLI: golden outputs, determinism, exit codes, structured errors."""

import ast
import json
from pathlib import Path
from time import perf_counter

import pytest

import leavitt as L
from leavitt import Element, build_toeplitz_family, cli, line_graph
from leavitt.cli import COMMANDS, main
from leavitt.expressions import MAX_NESTING

from conftest import A2_DSL, TOEPLITZ_DSL, deep_graphs, diamond_chain, random_graph, seeded


@pytest.fixture
def tfile(tmp_path):
    path = tmp_path / "T.graph"
    path.write_text(TOEPLITZ_DSL)
    return str(path)


@pytest.fixture
def a2file(tmp_path):
    path = tmp_path / "A2.graph"
    path.write_text(A2_DSL)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_golden(capsys, tfile):
    code, out, err = run_cli(capsys, "analyze", tfile)
    assert code == 0 and err == ""
    assert out == (
        '{"command": "analyze", "graph": "T", "version": "0.1.0", "result": '
        '{"semiprime_path_algebra": false, "line_points": ["w"], '
        '"socle_essential": true, "cycles": [["e"]], "bifurcations": ["v"], '
        '"components": [{"vertices": ["v", "w"], "edges": ["e", "f"]}]}}\n'
    )


# A Toeplitz graph E(2, F) with two connectors: recognized, not canonical.
T2_DSL = "graph T2\nvertex v\nvertex w\nedge e v v\nedge f1 v w\nedge f2 v w\n"

# ((subcommand, graph, further arguments), exit code, exact stdout)
GOLDEN = [
    (
        ("analyze", "T"),
        0,
        (
            '{"command": "analyze", "graph": "T", "version": "0.1.0", '
            '"result": {"semiprime_path_algebra": false, "line_points": ["w"], '
            '"socle_essential": true, "cycles": [["e"]], "bifurcations": ["v"], '
            '"components": [{"vertices": ["v", "w"], "edges": ["e", "f"]}]}}\n'
        ),
    ),
    (
        ("nf", "T", "f*f' + 2*e'"),
        0,
        (
            '{"command": "nf", "graph": "T", "version": "0.1.0", '
            '"result": {"input": "f*f\' + 2*e\'", "normal_form": "v + 2*e\' - e*e\'"}}\n'
        ),
    ),
    (
        ("mul", "T", "e + f", "e'"),
        0,
        (
            '{"command": "mul", "graph": "T", "version": "0.1.0", '
            '"result": {"product": "e*e\'"}}\n'
        ),
    ),
    (
        ("eq", "T", "f*f'", "v - e*e'"),
        0,
        (
            '{"command": "eq", "graph": "T", "version": "0.1.0", '
            '"result": {"equal": true}}\n'
        ),
    ),
    (
        ("decompose", "A2"),
        0,
        (
            '{"command": "decompose", "graph": "A2", "version": "0.1.0", '
            '"result": {"kind": "vertices", "components": [{"size": 2, "index": ["u", '
            '"w"]}]}}\n'
        ),
    ),
    (
        ("group-inverse", "A2", "2*u + w"),
        0,
        (
            '{"command": "group-inverse", "graph": "A2", "version": "0.1.0", '
            '"result": {"inverse": "1/2*u + w"}}\n'
        ),
    ),
    (
        ("group-inverse", "A2", "f"),
        2,
        '',
    ),
    (
        ("socle-member", "T", "w + e*f", "--only", "socle_generators"),
        0,
        '["w"]\n',
    ),
    (
        ("quotient", "T", "--set", "w"),
        0,
        (
            '{"command": "quotient", "graph": "T", "version": "0.1.0", '
            '"result": {"graph": {"name": "T_mod_w", "vertices": ["v"], "edges": [["e", '
            '"v", "v"]]}, "saturated": true, "generator_images": {"v": "v", "w": "0", '
            '"e": "e", "f": "0"}}}\n'
        ),
    ),
    (
        ("quotient", "A2", "--set", "w"),
        0,
        (
            '{"command": "quotient", "graph": "A2", "version": "0.1.0", '
            '"result": {"graph": {"name": "A2_mod_w", "vertices": ["u"], "edges": []}, '
            '"saturated": false, "generator_images": null}}\n'
        ),
    ),
    (
        ("restrict", "A2", "--set", "w", "--truncate", "4"),
        0,
        (
            '{"command": "restrict", "graph": "A2", "version": "0.1.0", '
            '"result": {"graph": {"name": "A2_restrict", "vertices": ["w", "path:f"], '
            '"edges": [["bar:f", "path:f", "w"]]}, "complete": true, '
            '"truncation_bound": 4, "embedding_images": {"w": "w", "path:f": "u", '
            '"bar:f": "f"}}}\n'
        ),
    ),
    (
        ("denominator", "T", "v", "e'"),
        0,
        (
            '{"command": "denominator", "graph": "T", "version": "0.1.0", '
            '"result": {"r": "e", "mu": "v", "extensions": ["e"], "p_times_r": "e", '
            '"q_times_r": "v"}}\n'
        ),
    ),
    (
        ("toeplitz-check", "T", "--degree", "2", "--window", "6"),
        0,
        (
            '{"command": "toeplitz-check", "graph": "T", "version": "0.1.0", '
            '"result": {"recognized": true, "decomposition": {"loop_vertex": "v", '
            '"loop_edge": "e", "connectors": ["f"], "subgraph_vertices": ["w"], '
            '"subgraph_edges": []}, "exact_sequence": {"degree": 2, '
            '"monomials_checked": 11, "socle_kernel_mismatches": [], '
            '"surjectivity_missing": [], "pass": true}, "sandwich": {"window": 6, '
            '"degree": 2, "monomials_checked": 11, "socle_finite_support_failures": [], '
            '"row_col_finiteness_failures": [], "matrix_unit_failures": [], '
            '"pass": true}}}\n'
        ),
    ),
    (
        ("toeplitz-check", "T2", "--degree", "1"),
        0,
        (
            '{"command": "toeplitz-check", "graph": "T2", "version": "0.1.0", '
            '"result": {"recognized": true, "decomposition": {"loop_vertex": "v", '
            '"loop_edge": "e", "connectors": ["f1", "f2"], "subgraph_vertices": ["w"], '
            '"subgraph_edges": []}, "exact_sequence": {"degree": 1, '
            '"monomials_checked": 8, "socle_kernel_mismatches": [], '
            '"surjectivity_missing": [], "pass": true}, "sandwich": {"pass": null, '
            '"note": "matrix picture is defined for the canonical graph only"}}}\n'
        ),
    ),
    (
        ("toeplitz-check", "A2", "--field", "fp:5"),
        0,
        (
            '{"command": "toeplitz-check", "graph": "A2", "version": "0.1.0", '
            '"result": {"recognized": false}}\n'
        ),
    ),
    (
        ("closure", "T", "--set", "w", "--pretty"),
        0,
        (
            'command: closure\ngraph: T\nversion: 0.1.0\nresult:\n  set:\n    - w\n  closure:\n   '
            ' - w\n  hereditary: True\n  saturated: True\n'
        ),
    ),

]


def test_every_command_golden(capsys, tmp_path):
    assert {argv[0] for argv, _, _ in GOLDEN} == set(COMMANDS)
    dsl = {"T": TOEPLITZ_DSL, "A2": A2_DSL, "T2": T2_DSL}
    for (command, graph, *rest), code, stdout in GOLDEN:
        path = tmp_path / f"{graph}.graph"
        path.write_text(dsl[graph])
        got_code, out, err = run_cli(capsys, command, str(path), *rest)
        assert (got_code, out) == (code, stdout), (command, graph, *rest)
        if code == 0:
            assert err == ""
        else:
            assert json.loads(err)["error"]["type"] == "NotGroupInvertible"


def test_byte_identical_across_runs(capsys, tfile):
    commands = [
        ("analyze", tfile),
        ("nf", tfile, "f*f'"),
        ("restrict", tfile, "--set", "w", "--truncate", "3"),
        ("toeplitz-check", tfile, "--degree", "2", "--window", "6"),
        ("denominator", tfile, "v", "e'"),
    ]
    for argv in commands:
        outputs = {run_cli(capsys, *argv)[1] for _ in range(3)}
        assert len(outputs) == 1


def test_nf_examples(capsys, tfile):
    for expr, expected in [("e'*e", "v"), ("e*e' + f*f'", "v"), ("v*w", "0")]:
        code, out, _ = run_cli(capsys, "nf", tfile, expr)
        assert code == 0
        assert json.loads(out)["result"]["normal_form"] == expected


def test_mul_eq(capsys, tfile):
    code, out, _ = run_cli(capsys, "mul", tfile, "f'", "f")
    assert json.loads(out)["result"]["product"] == "w"
    code, out, _ = run_cli(capsys, "eq", tfile, "f*f'", "v - e*e'")
    assert json.loads(out)["result"]["equal"] is True


def test_decompose(capsys, a2file):
    code, out, _ = run_cli(capsys, "decompose", a2file)
    result = json.loads(out)["result"]
    assert result["components"] == [{"size": 2, "index": ["u", "w"]}]


def test_socle_member_and_only(capsys, tfile):
    code, out, _ = run_cli(capsys, "socle-member", tfile, "w", "--only", "member")
    assert code == 0 and json.loads(out) is True
    code, out, _ = run_cli(capsys, "socle-member", tfile, "v", "--only", "member")
    assert json.loads(out) is False


def test_denominator(capsys, tfile):
    code, out, _ = run_cli(capsys, "denominator", tfile, "v", "e'")
    result = json.loads(out)["result"]
    assert result["r"] == "e"
    assert result["q_times_r"] == "v"


def test_quotient_and_closure(capsys, tfile):
    code, out, _ = run_cli(capsys, "quotient", tfile, "--set", "w")
    result = json.loads(out)["result"]
    assert result["graph"]["vertices"] == ["v"]
    assert result["saturated"] is True
    assert result["generator_images"] == {"v": "v", "w": "0", "e": "e", "f": "0"}
    code, out, _ = run_cli(capsys, "closure", tfile, "--set", "w")
    assert json.loads(out)["result"]["closure"] == ["w"]


def test_the_first_unknown_name_of_a_set_is_reported(capsys, tfile):
    """--set is checked in its list order, so the report names the first
    unknown vertex whatever the string-hash seed."""
    for command in ("closure", "quotient", "restrict"):
        for names, first in (("aa,bb,cc", "aa"), ("w,cc,bb", "cc")):
            code, out, err = run_cli(capsys, command, tfile, "--set", names)
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == {
                "type": "UnknownIdentifier",
                "message": f"unknown vertex '{first}' in graph 'T'",
            }


def test_quotient_of_unsaturated_hereditary_set(capsys, a2file):
    # the quotient graph exists; the morphism does not, and says so
    code, out, _ = run_cli(capsys, "quotient", a2file, "--set", "w")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["graph"]["vertices"] == ["u"] and result["graph"]["edges"] == []
    assert result["saturated"] is False
    assert result["generator_images"] is None


@pytest.mark.parametrize("field", ["q", "fp:7"])
def test_quotient_images_are_those_of_the_morphism(capsys, tmp_path, field):
    """quotient reads each generator image off E/H; on random graphs with H
    the closure of a random seed, each is the formatted quotient_morphism
    of its generator. For H the tree of the seed, when it is not saturated,
    the images are null."""
    rng = seeded(f"cli-quotient-images-{field}")
    K = L.field_from_name(field)
    path = tmp_path / "g.graph"
    mapped = unsaturated = 0
    for _ in range(150):
        g = random_graph(rng, max_edges=7)
        path.write_text(g.to_dsl())
        seed = [v for v in g.vertices if rng.random() < 0.3]
        for H in (L.hereditary_saturated_closure(g, seed), L.tree_of_set(g, seed)):
            code, out, _ = run_cli(capsys, "quotient", str(path), "--field", field,
                                   "--set", ",".join(H.ordered()))
            assert code == 0
            images = json.loads(out)["result"]["generator_images"]
            if not L.is_saturated(g, H):
                assert images is None
                unsaturated += 1
                continue
            generators = [Element.vertex(g, v, K) for v in g.vertices]
            generators += [Element.edge(g, e.name, K) for e in g.edges]
            want = [L.format_element(L.quotient_morphism(x, H)) for x in generators]
            assert list(images.values()) == want, (g, H)
            mapped += 1
    assert mapped > 150 and unsaturated > 10


def test_the_cli_imports_only_public_names():
    """Every name cli.py imports from the package is one that leavitt
    exports, and none is private (__version__ aside)."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "leavitt")
        for alias in node.names
    ]
    assert "quotient_graph" in names
    for name in names:
        if name != "__version__":
            assert not name.startswith("_"), name
            assert getattr(L, name, None) is getattr(cli, name), name


def test_restrict(capsys, a2file):
    code, out, _ = run_cli(capsys, "restrict", a2file, "--set", "w", "--truncate", "4")
    result = json.loads(out)["result"]
    assert result["complete"] is True
    assert result["embedding_images"]["path:f"] == "u"


def test_toeplitz_check(capsys, tfile, a2file):
    code, out, _ = run_cli(capsys, "toeplitz-check", tfile, "--degree", "3", "--window", "8")
    result = json.loads(out)["result"]
    assert result["recognized"] is True
    assert result["exact_sequence"]["pass"] is True
    assert result["sandwich"]["pass"] is True
    code, out, _ = run_cli(capsys, "toeplitz-check", a2file)
    assert json.loads(out)["result"]["recognized"] is False


def test_group_inverse_cli(capsys, a2file):
    code, out, _ = run_cli(capsys, "group-inverse", a2file, "2*u + w")
    assert json.loads(out)["result"]["inverse"] == "1/2*u + w"
    code, out, err = run_cli(capsys, "group-inverse", a2file, "f")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "NotGroupInvertible"


def test_field_flag(capsys, tfile):
    # "--" keeps argparse from reading the leading-minus expression as a flag
    code, out, _ = run_cli(capsys, "nf", "--field", "fp:5", "--", tfile, "-v")
    assert json.loads(out)["result"]["normal_form"] == "4*v"


def test_error_paths(capsys, tfile, tmp_path):
    code, out, err = run_cli(capsys, "nf", tfile, "zz")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "UnknownIdentifier"

    code, out, err = run_cli(capsys, "nf", tfile, "(" * 2000 + "v" + ")" * 2000)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ExpressionSyntaxError"
    assert str(MAX_NESTING) in json.loads(err)["error"]["message"]

    code, out, err = run_cli(capsys, "decompose", tfile)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PreconditionError"

    code, out, err = run_cli(capsys, "nf", "--field", "fp:7", tfile, "1/7*v")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "PreconditionError", "message": "denominator 7 is zero in F_7"
    }

    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.graph"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "IOError"

    bad = tmp_path / "bad.graph"
    bad.write_text("graph G\nedge e a b\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UnknownIdentifier"

    code, out, err = run_cli(capsys, "analyze", tfile, "--only", "nope")
    assert code == 2


def test_graph_file_that_is_not_utf8_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"graph G\nvertex v\xff\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "GraphSyntaxError", "message": "not UTF-8: invalid byte at offset 16"
    }


def test_analyze_paths_past_the_recursion_limit(capsys, tmp_path):
    for g in deep_graphs():
        path = tmp_path / f"{g.name}.graph"
        path.write_text(g.to_dsl())
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0 and err == ""
        assert len(json.loads(out)["result"]["cycles"]) == 1


def test_group_inverse_past_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "line.graph"
    path.write_text(line_graph(1100).to_dsl())
    code, out, err = run_cli(capsys, "group-inverse", str(path), "x1")
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == {"inverse": "x1"}


def test_pretty_output(capsys, tfile):
    code, out, _ = run_cli(capsys, "analyze", tfile, "--pretty")
    assert code == 0
    assert out.splitlines()[0] == "command: analyze"
    assert "semiprime_path_algebra: False" in out
    code, out, _ = run_cli(capsys, "socle-member", tfile, "w", "--only", "member", "--pretty")
    assert code == 0 and out == "True\n"


def test_a_huge_toeplitz_window_is_refused_at_once(capsys, tfile):
    """A window past the sandwich bound exits 2 before any unit is checked;
    it used to exit 1 with a MemoryError."""
    start = perf_counter()
    code, out, err = run_cli(
        capsys, "toeplitz-check", tfile, "--degree", "1", "--window", "99999999999999999999"
    )
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "LimitExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("toeplitz-check", "--degree", "100000", "--window", "12"),
        ("restrict", "--set", "w", "--truncate", "100000"),
        ("restrict", "--set", "w", "--truncate", "99999999999999999999"),
    ],
    ids=["degree", "truncate", "truncate-past-maxsize"],
)
def test_a_huge_degree_or_truncation_is_refused_at_once(capsys, tfile, argv):
    """Each exits 2 before its enumeration grows. Each used to exit 1: with a
    MemoryError, or with a ValueError from islice past sys.maxsize."""
    start = perf_counter()
    code, out, err = run_cli(capsys, argv[0], tfile, *argv[1:])
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "LimitExceeded"


def test_a_basis_of_too_many_path_pairs_is_refused_at_once(capsys, tmp_path):
    """E(1, F), F eight diamonds in a row, has 21,454,204 pairs of paths of
    total length <= 40 into one vertex; counting them first exits 2, where
    listing them could exhaust memory and exit 1. Degree 4 still passes."""
    path = tmp_path / "E1d8.graph"
    path.write_text(build_toeplitz_family(1, diamond_chain(8), ["d0"]).to_dsl())
    start = perf_counter()
    code, out, err = run_cli(capsys, "toeplitz-check", str(path), "--degree", "40", "--window", "12")
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "LimitExceeded",
        "message": "path pairs of total length <= 40 exceed the bound 1048576",
    }
    code, out, _ = run_cli(capsys, "toeplitz-check", str(path), "--degree", "4", "--window", "12")
    assert code == 0 and json.loads(out)["result"]["recognized"]


def test_a_decomposition_of_too_many_sink_paths_is_refused_at_once(capsys, tmp_path):
    """18 diamonds in a row have 1,048,573 sink paths of 35,127,306 edges in
    all; counting them first exits 2, where listing them could exhaust memory
    and exit 1."""
    path = tmp_path / "diamonds18.graph"
    path.write_text(diamond_chain(18).to_dsl())
    start = perf_counter()
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "LimitExceeded",
        "message": "sink paths of 35127306 edges in all exceed the bound 33554432",
    }
