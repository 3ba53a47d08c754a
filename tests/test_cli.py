"""CLI: golden outputs, determinism, exit codes, structured errors."""

import json

import pytest

from leavitt import line_graph
from leavitt.cli import main
from leavitt.expressions import MAX_NESTING

from conftest import A2_DSL, TOEPLITZ_DSL, deep_graphs


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


def test_quotient_of_unsaturated_hereditary_set(capsys, a2file):
    # the quotient graph exists; the morphism does not, and says so
    code, out, _ = run_cli(capsys, "quotient", a2file, "--set", "w")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["graph"]["vertices"] == ["u"] and result["graph"]["edges"] == []
    assert result["saturated"] is False
    assert result["generator_images"] is None


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
