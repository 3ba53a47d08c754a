"""Command-line front end: deterministic JSON reports over graph files.

Exit codes: 0 success, 2 bad input or violated precondition, 1 internal
error. Error reports are JSON objects on stderr; the primary stream only
ever carries the report.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import Element
from .errors import GraphSyntaxError, LeavittError
from .expressions import format_element, parse_element
from .fields import field_from_name
from .graph import (
    analyzer_report,
    hereditary_saturated_closure,
    is_hereditary,
    is_saturated,
    parse_graph,
)
from .quotients import (
    denominator_search,
    in_socle,
    quotient_graph,
    restriction_embedding,
    restriction_graph,
    socle_quotient,
)
from .semisimple import element_group_inverse, matrix_decomposition
from .toeplitz import exact_sequence_report, recognize_toeplitz, sandwich_report


def _arg(*flags, **options):
    return flags, options


def _vertex_set(arg):
    return [v for v in arg.split(",") if v]


def _graph_payload(g):
    return {
        "name": g.name,
        "vertices": list(g.vertices),
        "edges": [[e.name, e.src, e.dst] for e in g.edges],
    }


def _generator_images(g, field, image):
    """Formatted image of every vertex, then every edge, of g."""
    images = {v: format_element(image(Element.vertex(g, v, field))) for v in g.vertices}
    for e in g.edges:
        images[e.name] = format_element(image(Element.edge(g, e.name, field)))
    return images


def _nf(g, field, args):
    x = parse_element(g, args.expr, field)
    return {"input": args.expr, "normal_form": format_element(x)}


def _mul(g, field, args):
    x = parse_element(g, args.x, field)
    y = parse_element(g, args.y, field)
    return {"product": format_element(x * y)}


def _eq(g, field, args):
    x = parse_element(g, args.x, field)
    y = parse_element(g, args.y, field)
    return {"equal": x == y}


def _decompose(g, field, args):
    d = matrix_decomposition(g)
    return {"kind": d.kind, "components": d.describe()}


def _group_inverse(g, field, args):
    x = parse_element(g, args.expr, field)
    return {"inverse": format_element(element_group_inverse(x))}


def _socle_member(g, field, args):
    x = parse_element(g, args.expr, field)
    H = socle_quotient(g)[0]
    return {"member": in_socle(x), "socle_generators": list(H)}


def _quotient(g, field, args):
    H = _vertex_set(args.set)
    target = quotient_graph(g, H)
    saturated = is_saturated(g, H)
    images = None
    if saturated:  # the morphism only exists for saturated H
        # a generator survives pi iff it is one of E/H, where it is its own normal form
        kept = {*target.vertices, *(e.name for e in target.edges)}
        names = [*g.vertices, *(e.name for e in g.edges)]
        images = {x: x if x in kept else "0" for x in names}
    return {"graph": _graph_payload(target), "saturated": saturated, "generator_images": images}


def _restrict(g, field, args):
    rg = restriction_graph(g, _vertex_set(args.set), args.truncate)
    return {
        "graph": _graph_payload(rg.graph),
        "complete": rg.complete,
        "truncation_bound": rg.bound,
        "embedding_images": _generator_images(
            rg.graph, field, lambda y: restriction_embedding(rg, y)
        ),
    }


def _denominator(g, field, args):
    p = parse_element(g, args.p, field)
    q = parse_element(g, args.q, field)
    witness = denominator_search(p, q)
    return {
        "r": format_element(witness.r),
        "mu": format_element(Element.from_path(witness.mu, field)),
        "extensions": list(witness.extensions),
        "p_times_r": format_element(witness.p_times_r),
        "q_times_r": format_element(witness.q_times_r),
    }


def _toeplitz_check(g, field, args):
    d = recognize_toeplitz(g)
    if d is None:
        return {"recognized": False}
    return {
        "recognized": True,
        "decomposition": d.describe(),
        "exact_sequence": exact_sequence_report(g, args.degree, field),
        "sandwich": (
            sandwich_report(g, args.degree, args.window, field)
            if d.is_canonical
            else {"pass": None, "note": "matrix picture is defined for the canonical graph only"}
        ),
    }


def _closure(g, field, args):
    X = _vertex_set(args.set)
    closure = hereditary_saturated_closure(g, X)
    return {
        "set": X,
        "closure": list(closure.ordered()),
        "hereditary": is_hereditary(g, closure),
        "saturated": is_saturated(g, closure),
    }


_HS_SET = _arg("--set", required=True, help="comma-separated hereditary saturated vertices")

# subcommand -> (help, its own arguments, handler(graph, field, args) -> result,
# the keys of that result)
COMMANDS = {
    "analyze": ("full structural report", (), lambda g, field, args: analyzer_report(g),
                ("semiprime_path_algebra", "line_points", "socle_essential", "cycles",
                 "bifurcations", "components")),
    "nf": ("normal form of an expression", (_arg("expr"),), _nf, ("input", "normal_form")),
    "mul": ("product of two expressions", (_arg("x"), _arg("y")), _mul, ("product",)),
    "eq": ("equality of two expressions", (_arg("x"), _arg("y")), _eq, ("equal",)),
    "decompose": ("matrix decomposition of an acyclic graph", (), _decompose,
                  ("kind", "components")),
    "group-inverse": ("group inverse of an element", (_arg("expr"),), _group_inverse,
                      ("inverse",)),
    "socle-member": ("socle membership of an element", (_arg("expr"),), _socle_member,
                     ("member", "socle_generators")),
    "quotient": ("quotient graph and generator images", (_HS_SET,), _quotient,
                 ("graph", "saturated", "generator_images")),
    "restrict": (
        "restriction graph for a hereditary saturated set",
        (_HS_SET, _arg("--truncate", type=int, default=6, help="entry-path length bound")),
        _restrict,
        ("graph", "complete", "truncation_bound", "embedding_images"),
    ),
    "denominator": ("right denominator witness for (p, q)", (_arg("p"), _arg("q")), _denominator,
                    ("r", "mu", "extensions", "p_times_r", "q_times_r")),
    "toeplitz-check": (
        "Toeplitz recognition and verification reports",
        (_arg("--degree", type=int, default=4), _arg("--window", type=int, default=12)),
        _toeplitz_check,
        ("recognized", "decomposition", "exact_sequence", "sandwich"),
    ),
    "closure": (
        "hereditary saturated closure of a vertex set",
        (_arg("--set", required=True, help="comma-separated vertices"),),
        _closure,
        ("set", "closure", "hereditary", "saturated"),
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Symbolic computation for path algebras and Leavitt path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graphfile", help="graph DSL file")
        p.add_argument("--field", default="q", help="coefficient field: q or fp:<p>")
        p.add_argument("--only", help="emit a single key of the result")
        p.add_argument("--pretty", action="store_true", help="plain-text rendering")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def run(args):
    with open(args.graphfile, "rb") as fh:
        source = fh.read()
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphSyntaxError(f"not UTF-8: invalid byte at offset {exc.start}") from None
    g = parse_graph(text)
    field = field_from_name(args.field)
    _, _, handler, keys = COMMANDS[args.command]
    _check_only(args, keys)  # before the handler: a key it never returns costs nothing
    result = handler(g, field, args)
    _check_only(args, result)  # toeplitz-check on an unrecognised graph has one key
    return {"command": args.command, "graph": g.name, "version": __version__, "result": result}


class _NoResultKey(Exception):
    """--only names a key that the result lacks: reported as a KeyError, exit 2."""


def _check_only(args, keys):
    if args.only and args.only not in keys:
        raise _NoResultKey(f"no result key {args.only!r}")


def _render_pretty(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _fail(kind, message, code=2):
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except _NoResultKey as exc:
        return _fail("KeyError", str(exc))
    except LeavittError as exc:
        return _fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail("IOError", str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        return _fail("InternalError", f"{type(exc).__name__}: {exc}", 1)

    output = report["result"][args.only] if args.only else report

    if args.pretty:
        print("\n".join(_render_pretty(output)))
    else:
        print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
