"""Benchmark harness for leavitt.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. One closed-loop client in one process: each
op starts when the previous one has finished. A run:

1. runs one untimed warm-up pass, which also runs each workload's
   independent checks (group-inverse identities, CLI exit codes);
2. runs a fixed number of timed passes: S divided by the workload's nominal
   pass cost ``PASS_SECONDS`` (at least MIN_PASSES), the same on every
   commit whatever the speed of the code;
3. before the warm-up and before every timed pass, sets up afresh the
   workload's ``SETUPS`` times (imports leavitt, generates the inputs from
   the seed, builds the graphs and elements) and keeps the last set-up, so
   no pass reuses an object of an earlier one; ``setup_s`` is the median of
   all these set-ups, which are spread over the whole run;
4. after the passes, runs the workload's ``post`` step (the rose4pow4
   product, the comb40 baseline inverse, the in-process CLI replay and
   start-up probes);
5. checks every op's output against reference.json, prints the metrics,
   one per line with its unit, and as its last line one JSON object.

``ops_per_s`` is ops per pass over the median pass wall time. An op's
latency is its median over the timed passes, and the latency percentiles are
taken over the ops of a pass.

Every timing is scaled to a reference machine speed. The shared host the
benchmark was defined on switches between speed regimes up to about 1.6x
apart, lasting from tens of milliseconds to minutes, and the slowdown shows
in CPU time too. So a fixed pure-Python probe (``Speed``) runs between ops,
outside every op's timing: after an op once PROBE_EVERY_S has passed since
the last probe, and PROBE_WINDOW times around each set-up. An op's or a
set-up's time is multiplied by PROBE_REF_S over the mean of the
PROBE_WINDOW probes before it and the PROBE_WINDOW probes after it. A
change to leavitt does not touch the probe, so it moves the scaled figures
in full. The unscaled figures are printed too, on the lines starting "#".

With ``--trace 0`` the JSON holds the end-to-end metrics. With ``--trace 1``
the timed passes alternate untraced and traced; the JSON holds the
per-layer metrics from the traced passes and the tracing overhead (traced
minus untraced ops/s). Spans are written to bench/out/.

``--record`` runs every op of every pool once and rewrites reference.json.
``--corrupt-reference`` flips the recorded digest of the pass's first op, to
show that a wrong output is counted as a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
MIN_PASSES = 3  # per mode
PROBE_REF_S = 0.00035  # the probe's time at the reference speed
PROBE_EVERY_S = 0.01
PROBE_WINDOW = 5

sys.path.insert(0, str(BENCH))
# Import from cached bytecode, as an installed package does, whatever the
# caller's PYTHONDONTWRITEBYTECODE: caches land in __pycache__/ under src/.
sys.dont_write_bytecode = False

from tracer import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, OpError  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

# per-layer metric -> (unit, kind, span or counter). "self": summed self time
# of the span per traced pass (median over passes); "setup": the same per
# set-up repetition; "count": a counter per traced pass.
PER_LAYER = {
    "algebra.mul_self_s.qq": ("s", "self", "algebra.mul.qq"),
    "algebra.mul_self_s.fp": ("s", "self", "algebra.mul.fp"),
    "algebra.star_self_s": ("s", "self", "algebra.star"),
    "algebra.support_out": ("count", "count", "algebra.support_out"),
    "expressions.parse_self_s": ("s", "self", "expressions.parse_element"),
    "expressions.format_self_s": ("s", "self", "expressions.format_element"),
    "graph.parse_graph_self_s": ("s", "setup", "graph.parse_graph"),
    "graph.analyzer_report_self_s": ("s", "self", "graph.analyzer_report"),
    "graph.line_points_self_s": ("s", "self", "graph.line_points"),
    "graph.closure_self_s": ("s", "self", "graph.hereditary_saturated_closure"),
    "graph.cycles_found": ("count", "count", "graph.cycles_found"),
    "quotients.in_socle_self_s": ("s", "self", "quotients.in_socle"),
    "quotients.in_socle_calls": ("count", "count", "quotients.in_socle_calls"),
    "quotients.quotient_morphism_self_s": ("s", "self", "quotients.quotient_morphism"),
    "toeplitz.exact_sequence_report_self_s": ("s", "self", "toeplitz.exact_sequence_report"),
    "toeplitz.sandwich_report_self_s": ("s", "self", "toeplitz.sandwich_report"),
    "toeplitz.monomials_checked": ("count", "count", "toeplitz.monomials_checked"),
    "semisimple.matrix_decomposition_self_s": ("s", "self", "semisimple.matrix_decomposition"),
    "semisimple.to_matrix_self_s": ("s", "self", "semisimple.to_matrix"),
    "semisimple.from_matrix_self_s": ("s", "self", "semisimple.from_matrix"),
    "semisimple.block_size_max": ("count", "count", "semisimple.block_size_max"),
    "semisimple.block_cells": ("count", "count", "semisimple.block_cells"),
    "semisimple.block_nonzeros": ("count", "count", "semisimple.block_nonzeros"),
    "matrices.group_inverse_self_s.qq": ("s", "self", "matrices.group_inverse.qq"),
    "matrices.group_inverse_self_s.fp": ("s", "self", "matrices.group_inverse.fp"),
    "cli.expected_errors": ("count", "count", "cli.expected_errors"),
}
CLI_METRICS = ["cli.wall_ms", "cli.main_inproc_ms", "cli.startup_ms", "cli.import_ms"]


def rung_metrics():
    """The size-ladder metrics: median self time per call at each rung."""
    out = []
    for wl in WORKLOADS.values():
        for span, rungs in wl.ladder:
            out += [(f"rung.{span}.{r}_ms", span, r) for r in rungs]
    return out


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def input_digest(op):
    return digest(json.dumps(op, sort_keys=True))


def fresh_import():
    """Import leavitt (and its CLI module) as a new process would."""
    for name in [m for m in sys.modules if m == "leavitt" or m.startswith("leavitt.")]:
        del sys.modules[name]
    lv = importlib.import_module("leavitt")
    importlib.import_module("leavitt.cli")
    return lv


def pass_count(wl, seconds):
    """Timed passes per mode: set by --seconds and the workload's nominal
    pass cost, never by the speed of the code under test."""
    return max(MIN_PASSES, round(seconds / wl.PASS_SECONDS))


def _probe_work():
    """Dict updates keyed by tuples and Fraction sums: the kinds of work
    leavitt's ops do, without leavitt."""
    counts = {}
    total = Fraction(0)
    for i in range(120):
        key = ("e%d" % (i & 15), i >> 4)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 5 + 2)
    return len(counts), total


class Speed:
    """The machine's speed, probed between ops with fixed work that uses no
    leavitt code."""

    def __init__(self):
        self.samples = []
        self.last = perf_counter()

    def probe(self):
        # no collection inside the probe: its cost would grow with the heap
        # that leavitt left, and the probe must not depend on leavitt
        gc.disable()
        t0 = perf_counter()
        _probe_work()
        self.last = perf_counter()
        gc.enable()
        self.samples.append(self.last - t0)

    def tick(self):
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def window(self):
        """Run PROBE_WINDOW probes; return the index of the next sample."""
        for _ in range(PROBE_WINDOW):
            self.probe()
        return len(self.samples)

    def scale(self, mark):
        """PROBE_REF_S over the mean of the PROBE_WINDOW probes before
        sample ``mark`` and the PROBE_WINDOW probes from it on."""
        near = self.samples[max(0, mark - PROBE_WINDOW):mark + PROBE_WINDOW]
        return PROBE_REF_S / statistics.fmean(near)


def run_pass(wl, ops, state, lv, tr, label, speed):
    """One pass over ops. Returns (per-op latencies, the same scaled to the
    reference speed, results)."""
    tr.round = label
    latencies, marks, results = [], [], []
    speed.window()
    for i, op in enumerate(ops):
        tr.op, tr.rung = i, op["rung"]
        marks.append(len(speed.samples))
        t0 = perf_counter()
        results.append(wl.call(op, state, lv, tr))
        latencies.append(perf_counter() - t0)
        speed.tick()
    speed.window()
    scaled = [t * speed.scale(m) for t, m in zip(latencies, marks)]
    return latencies, scaled, results


def expected_outputs(ops, reference):
    """{op key: recorded output digest}; None where the op is not recorded
    or its input differs from the recorded one (the generator changed)."""
    out = {}
    for op in ops:
        want = reference.get(op["key"])
        out[op["key"]] = want[1] if want and want[0] == input_digest(op) else None
    return out


def canonical(wl, op, result, lv):
    if isinstance(result, OpError):
        return "error:" + result.type
    return wl.canon(op, result, lv)


def check(wl, ops, results, expected, lv, problems):
    """Count the ops whose canonical output differs from the reference."""
    failed = 0
    for op, result in zip(ops, results):
        out = canonical(wl, op, result, lv)
        if expected[op["key"]] != digest(out):
            failed += 1
            if len(problems) < 5:
                problems.append(f"{op['key']}: output {out[:120]!r} differs from the reference")
    return failed


def verify(wl, ops, results, state, lv, problems):
    """Run the workload's independent checks; count the ops that fail them."""
    failed = 0
    for op, result in zip(ops, results):
        bad = wl.verify(op, result, state, lv)
        if bad:
            failed += 1
            problems.append(f"{op['key']}: {bad}")
    return failed


def metadata(seed):
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "leavitt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def record():
    """Run every op of every pool once and write the reference digests."""
    lv = fresh_import()
    reference = {}
    for name, wl in WORKLOADS.items():
        ops = wl.pool()
        state = wl.setup(lv, ops, NULL)
        _, _, results = run_pass(wl, ops, state, lv, NULL, "record", Speed())
        wl.teardown(state)
        wl.close()
        errors = {}
        for op, result in zip(ops, results):
            bad = wl.verify(op, result, state, lv)
            if bad:
                print(f"error: {op['key']}: {bad}; reference not written", file=sys.stderr)
                return 1
            if isinstance(result, OpError):
                errors[result.type] = errors.get(result.type, 0) + 1
            reference[op["key"]] = [input_digest(op), digest(canonical(wl, op, result, lv))]
        print(f"{name}: {len(ops)} ops recorded; errors by type: {errors}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "leavitt" / "__init__.py").is_file():
        print(f"error: {SRC / 'leavitt'} not found; run from a leavitt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    tracer = Tracer() if args.trace else NULL
    modes = [False, True] if args.trace else [False]
    passes = pass_count(wl, args.seconds)
    # (label, traced): the warm-up, then the timed passes; with tracing,
    # untraced and traced passes alternate
    rounds = [("warmup", None)]
    rounds += [(f"pass{k}", modes[k % len(modes)]) for k in range(passes * len(modes))]

    speed = Speed()
    setup_times = []  # (unscaled, scaled)

    def set_up():
        tracer.round = f"setup{len(setup_times)}"
        mark = speed.window()
        t0 = perf_counter()
        lv = fresh_import()
        ops = wl.select(wl.pool(), random.Random(args.seed))
        state = wl.setup(lv, ops, tracer)
        took = perf_counter() - t0
        speed.window()
        setup_times.append((took, took * speed.scale(mark)))
        return lv, ops, state

    def judge(op, result):
        out = canonical(wl, op, result, lv)
        if expected_outputs([op], reference)[op["key"]] != digest(out):
            return f"output {out[:120]!r} differs from the reference"
        return None

    problems = []
    attempted = failed = 0
    walls = {False: [], True: []}  # (unscaled, scaled) per timed pass
    by_pass = []  # scaled per-op latencies of each untraced timed pass
    state = None
    try:
        for label, traced in rounds:
            for _ in range(wl.SETUPS):
                if state is not None:
                    wl.teardown(state)
                    state = None
                lv, ops, state = set_up()
            # the earlier set-ups' modules and graphs are cyclic garbage: collect
            # it here rather than inside the timed pass
            gc.collect()
            if traced is None:
                expected = expected_outputs(ops, reference)
                if args.corrupt_reference:
                    expected[ops[0]["key"]] = "0" * 16
            lat, scaled, results = run_pass(wl, ops, state, lv,
                                            tracer if traced else NULL, label, speed)
            attempted += len(ops)
            failed += check(wl, ops, results, expected, lv, problems)
            if traced is None:
                warm = results
                failed += verify(wl, ops, results, state, lv, problems)
            else:
                walls[traced].append((sum(lat), sum(scaled)))
                if not traced:
                    by_pass.append(scaled)

        tracer.round = "post"
        post_attempted, post_failures, extra = wl.post(ops, warm, state, lv, tracer, judge)
        attempted += post_attempted
        failed += len(post_failures)
        problems += post_failures
    finally:
        if state is not None:
            wl.teardown(state)
        wl.close()

    ops_per_s = {m: len(ops) / statistics.median(w for _, w in walls[m]) for m in modes}
    # each op's median over a fixed number of passes: a slow burst in one
    # pass moves no op's latency
    latencies = [statistics.median(col) for col in zip(*by_pass)]
    e2e = {
        "ops_per_s": ops_per_s[False],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(s for _, s in setup_times),
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
        "ok_ops_ratio": (attempted - failed) / attempted,
    }
    meta = metadata(args.seed)
    meta["probe_ms"] = round(statistics.median(speed.samples) * 1e3, 3)
    scales = [w / u for u, w in walls[False]]
    unscaled = {
        "ops_per_s": len(ops) / statistics.median(w for w, _ in walls[False]),
        "setup_s": statistics.median(t for t, _ in setup_times),
    }
    lines = [
        f"# leavitt benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# " + " ".join(f"{k}={v}" for k, v in meta.items()),
        f"# {len(ops)} ops per pass; {passes} untraced timed passes, "
        f"{sum(u for u, _ in walls[False]):.2f} s timed; latency samples: {len(latencies)} ops, "
        f"each its median over the {passes} passes; set-up x{len(setup_times)}",
        "# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items())
        + f"; pass speed scales {min(scales):.3f}..{max(scales):.3f}",
    ]
    lines += [f"# problem: {p}" for p in problems]
    lines += [f"{name:<24} {value:>14.6g} {END_TO_END[name]}" for name, value in e2e.items()]
    lines.append(f"{'failed_ops_ratio':<24} {failed / attempted:>14.6g} ratio "
                 f"({failed} of {attempted} ops)")

    if args.trace:
        layer = per_layer(tracer, extra)
        layer["trace.overhead_ops_per_s"] = ops_per_s[True] - ops_per_s[False]
        lines += [f"{name:<48} {value:>14.6g}" for name, value in layer.items()]
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layer.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**summary, "meta": meta, "end_to_end": e2e, "unscaled": unscaled,
                   "setup_times_s": setup_times, "pass_walls_s": walls[False],
                   "latencies_s": by_pass,
                   "problems": problems}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


def unit_of(name):
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    if name.startswith("rung.") or name in CLI_METRICS:
        return "ms"
    if name == "semisimple.density":
        return "ratio"
    return "ops/s"


def per_layer(tracer, extra):
    times, counts = tracer.per_round()
    passes = [r for r in set(times) | set(counts) if r.startswith("pass")]
    setups = [r for r in times if r.startswith("setup")]

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name, (_, kind, what) in PER_LAYER.items():
        if kind == "self":
            out[name] = med([times[r].get(what, 0.0) for r in passes])
        elif kind == "setup":
            out[name] = med([times[r].get(what, 0.0) for r in setups])
        else:
            out[name] = med([counts[r].get(what, 0) for r in passes])
    cells = out["semisimple.block_cells"]
    out["semisimple.density"] = out["semisimple.block_nonzeros"] / cells if cells else 0.0

    spans = [s for s in tracer.self_times() if s[4].startswith("pass") or s[4] == "post"]
    wall = [s[1] for s in spans if s[0] == "cli.run"]
    out["cli.wall_ms"] = med(wall) * 1e3
    out["cli.main_inproc_ms"] = med(list(extra.get("inproc", {}).values())) * 1e3
    out["cli.startup_ms"] = out["cli.wall_ms"] - out["cli.main_inproc_ms"] if wall else 0.0
    if extra.get("bare"):
        out["cli.import_ms"] = (med(extra["imported"]) - med(extra["bare"])) * 1e3
    else:
        out["cli.import_ms"] = 0.0

    # a ladder span "algebra.mul" covers its per-field spans "algebra.mul.qq" etc.
    per_rung = {}
    for name, self_s, op, rung, rnd in spans:
        per_rung.setdefault((name, rung), []).append(self_s)
        per_rung.setdefault((name.rsplit(".", 1)[0], rung), []).append(self_s)
    for metric, span, rung in rung_metrics():
        out[metric] = med(per_rung.get((span, rung), [])) * 1e3
    return out


if __name__ == "__main__":
    sys.exit(main())
