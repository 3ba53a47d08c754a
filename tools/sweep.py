"""Doubling sweeps of leavitt: a parent tree against a change tree.

Each point of a sweep is CALLS timed calls in a fresh ``python3`` process
that imports ``leavitt`` from one side's ``src/``. The child first makes one
call at the sweep's smallest size on a graph of its own, to warm the imports,
then times each of the CALLS measured calls with ``time.perf_counter``, as
``timeit.repeat`` does, and keeps their minimum (the point's value) and
their maximum; it reads the growth of ``ru_maxrss`` over them, then makes
the call once more under ``tracemalloc`` for the peak of the memory it
allocates. The calls of a point share their inputs, except in the sweeps
that build a fresh graph per call, where a graph's memo would otherwise
answer every call after the first. In every round both sides run each point,
and the side that runs first alternates from round to round. Every round is
kept; ``best`` is the least value over the rounds, ``spread`` the least and
the greatest time of any call over the rounds, ``per_doubling`` the ratio of
the best values of neighbouring sizes (about 2 for a linear cost, 4 for a
quadratic one, whatever the machine), and ``slope`` the log-log slope
between them: the log of that ratio over the log of the ratio of the sizes
(about 1 for a linear cost, 2 for a quadratic one). ``spreads_overlap``
says, per size, whether the two sides' spreads overlap, in which case the
sweep does not tell them apart there.

The output is one JSON object on stdout, in the ``sweeps`` format of
BENCH_12.json: ``command``, ``inputs``, then one entry per sweep with a
``parent`` and a ``change`` side. The exit status is 1 when a call failed,
or when the two sides' outputs differ at some point.

    python3 tools/sweep.py --parent PARENT_TREE --change . [--rounds 3] [--sizes K]

``--sizes K`` runs only the K smallest sizes of each sweep. The script
needs only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from time import perf_counter

# unit: the unit of a value; per(n): the number of items one call's time is
# divided by; make(L, n): the call to time, with leavitt imported as L
Sweep = namedtuple("Sweep", ["input", "sizes", "unit", "per", "make"])
CALLS = 5  # timed calls per point


def _fresh_graph_per_call(build, compute):
    """make for compute(L, g) on a fresh graph g = build(L, n) per call, all
    built beforehand: one for each timed call and one for the traced one,
    so neither the memo of an earlier call nor the graph is measured."""
    def make(L, n):
        graphs = [build(L, n) for _ in range(CALLS + 1)]
        return lambda: compute(L, graphs.pop())

    return make


def _sandwich(degree):
    def make(L, n):
        g = L.toeplitz_graph()
        return lambda: L.sandwich_report(g, degree, n)

    return make


def _products(field):
    """x * x.star() on the rose of 64 loops e1..e64 at u, e64 designated: x is
    the sum of N two-letter words, each followed by e64^8, with coefficients
    (i + 1)/(i + 2), so each of the N^2 pairs rewrites to 8 * 63 + 1 = 505
    terms, over QQ or over F_p for p = 2^31 - 1."""
    def make(L, n):
        g = L.Graph("rose64", ["u"], [(f"e{i}", "u", "u") for i in range(1, 65)])
        words = (f"e{1 + i % 63}*e{1 + i // 63}" + "*e64" * 8 for i in range(n))
        text = " + ".join(f"{i + 1}/{i + 2}*{w}" for i, w in enumerate(words))
        x = L.parse_element(g, text, L.QQ if field == "qq" else L.GF(2**31 - 1))
        y = x.star()
        return lambda: x * y

    return make


def _sink_first_line(L, n):
    """line_graph(n) declared from its sink: edges x(i+1) -> x(i), x1 first."""
    edges = [(f"a{i}", f"x{i + 1}", f"x{i}") for i in range(1, n)]
    return L.Graph(f"sinkline{n}", [f"x{i}" for i in range(1, n + 1)], edges)


def _roundtrip_line(L, n):
    """x = 3*x(n/2) + x(n/2 + 1) on line_graph(n), decomposed beforehand:
    to_matrix, the group inverse, from_matrix and the printed element."""
    g = L.line_graph(n)
    d = L.matrix_decomposition(g)
    x = L.parse_element(g, f"3*x{n // 2} + x{n // 2 + 1}")
    return lambda: L.format_element(L.from_matrix(L.to_matrix(x, d).group_inverse(), d))


SWEEPS = {
    "sandwich": Sweep(
        "sandwich_report(toeplitz_graph(), 4, N), one call",
        (16, 32, 64, 128), "s", lambda n: 1, _sandwich(4),
    ),
    "sandwich_unit": Sweep(
        "sandwich_report(toeplitz_graph(), 0, N) over its (N - 1)^2 matrix units: at "
        "degree 0 parts (a) and (b) check the two vertices alone, so this is the "
        "cost of one unit of part (c)",
        (16, 32, 64, 128), "us", lambda n: (n - 1) ** 2, _sandwich(0),
    ),
    "products_qq": Sweep(
        "x * x.star() over QQ, x the sum of N words e_a*e_b*e64^8 on the 64-loop rose with "
        "coefficients (i + 1)/(i + 2): N^2 pairs of 505 terms each, the time per output term",
        (1, 2, 4, 8, 16), "us", lambda n: 505 * n * n, _products("qq"),
    ),
    "products_fp": Sweep(
        "the products_qq product over F_p, p = 2^31 - 1, the time per output term",
        (1, 2, 4, 8, 16), "us", lambda n: 505 * n * n, _products("fp"),
    ),
    "decompose_line": Sweep(
        "matrix_decomposition(line_graph(N)) on a fresh graph per call: one block of "
        "N sink paths of lengths 0..N - 1, one call",
        (512, 1024, 2048, 4096), "s", lambda n: 1,
        _fresh_graph_per_call(lambda L, n: L.line_graph(n),
                              lambda L, g: L.matrix_decomposition(g).sizes),
    ),
    "roundtrip_line": Sweep(
        "format_element(from_matrix(to_matrix(x, d).group_inverse(), d)) for "
        "x = 3*x(N/2) + x(N/2 + 1) on line_graph(N), d its decomposition, one call",
        (512, 1024, 2048, 4096), "ms", lambda n: 1, _roundtrip_line,
    ),
    "analyze_reverse_line": Sweep(
        "analyzer_report of an N-vertex line declared from its sink (edges x(i+1) -> x(i)) "
        "on a fresh graph per call: no vertex is on a cycle, one call",
        (512, 1024, 2048, 4096), "s", lambda n: 1,
        _fresh_graph_per_call(_sink_first_line, lambda L, g: L.analyzer_report(g)),
    ),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def child(tree, name, n):
    """Time CALLS calls of sweep ``name`` at size n against tree/src; print
    one JSON line: the least and the greatest value, rss growth in MB, the
    tracemalloc peak, and a digest of the output."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import leavitt as L

    sweep = SWEEPS[name]
    sweep.make(L, sweep.sizes[0])()
    call = sweep.make(L, n)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seconds = []
    for _ in range(CALLS):
        start = perf_counter()
        result = call()
        seconds.append(perf_counter() - start)
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
    text = json.dumps(result, sort_keys=True, default=str)
    result = None
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    scale = SCALE[sweep.unit] / sweep.per(n)
    print(json.dumps({
        "value": min(seconds) * scale,
        "max": max(seconds) * scale,
        "rss_delta_mb": grown / 1024,  # ru_maxrss is in KiB on Linux
        "tracemalloc_peak_mb": peak / 2**20,
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }))


def run_point(tree, name, n):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", tree, name, str(n)],
        capture_output=True, text=True,
    )
    if proc.returncode:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout.splitlines()[-1])


def side_summary(unit, sizes, runs):
    """The BENCH_12 form of one side: best, spread and every round per size."""
    ok = all("error" not in r for rs in runs.values() for r in rs)
    rounds = {f"N{n}": [r.get("value") for r in runs[n]] for n in sizes}
    best = {key: min(v for v in values if v is not None) if ok else None
            for key, values in rounds.items()}
    spread = {f"N{n}": [best[f"N{n}"], max(r["max"] for r in runs[n])] if ok else None
              for n in sizes}
    values = [best[f"N{n}"] for n in sizes]
    ratios = list(zip(values, values[1:], sizes, sizes[1:]))
    return {
        f"best_{unit}": best,
        f"spread_{unit}": spread,
        "per_doubling": [b / a for a, b, _, _ in ratios] if ok else None,
        "slope": [math.log(b / a) / math.log(m / n) for a, b, n, m in ratios] if ok else None,
        "rss_delta_mb_max": {f"N{n}": max(r.get("rss_delta_mb", 0) for r in runs[n]) for n in sizes},
        "tracemalloc_peak_mb": {
            f"N{n}": max(r.get("tracemalloc_peak_mb", 0) for r in runs[n]) for n in sizes
        },
        "all_ok": ok,
        f"rounds_{unit}": rounds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="tree of the parent commit (has src/)")
    parser.add_argument("--change", required=True, help="tree of the change (has src/)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--sizes", type=int, help="run only the K smallest sizes of each sweep")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    out = {
        "command": (
            "python3 tools/sweep.py: one fresh process per point and side (python3 with the "
            "side's src/ on sys.path), after one call at the smallest size to warm imports; "
            f"time.perf_counter around each of {CALLS} calls, the point's value their least, "
            "rss_delta_mb = growth of ru_maxrss over the calls, tracemalloc_peak_mb = the "
            "tracemalloc peak of one more, traced call; "
            f"{args.rounds} rounds alternating which side runs first; 'best' is the least "
            "value over the rounds, 'spread' the least and the greatest call"
        ),
        "inputs": {name: sweep.input for name, sweep in SWEEPS.items()},
    }
    failed = False
    for name, sweep in SWEEPS.items():
        sizes = sweep.sizes[: args.sizes] if args.sizes else sweep.sizes
        runs = {side: {n: [] for n in sizes} for side in trees}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for n in sizes:
                for side in order:
                    runs[side][n].append(run_point(trees[side], name, n))
        entry = {side: side_summary(sweep.unit, sizes, runs[side]) for side in trees}
        ok = entry["parent"]["all_ok"] and entry["change"]["all_ok"]
        entry["results_equal_across_sides"] = ok and all(
            len({r["digest"] for side in trees for r in runs[side][n]}) == 1 for n in sizes
        )
        if ok:
            p, c = entry["parent"][f"best_{sweep.unit}"], entry["change"][f"best_{sweep.unit}"]
            entry["ratio_parent_over_change"] = {k: p[k] / c[k] for k in p}
            p, c = entry["parent"][f"spread_{sweep.unit}"], entry["change"][f"spread_{sweep.unit}"]
            entry["spreads_overlap"] = {k: p[k][0] <= c[k][1] and c[k][0] <= p[k][1] for k in p}
        failed |= not entry["results_equal_across_sides"]
        out[name] = entry
    print(json.dumps(out, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
