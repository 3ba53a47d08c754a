"""The four workloads: their input pools, per-seed selection, set-up and ops.

Every workload draws its inputs from a fixed pool (generated from a fixed
pool seed, so reference outputs can be recorded once, in reference.json).
``--seed`` picks which pool entries a run uses and in which order. A pass is
that list of ops; runs repeat the pass.

A workload provides:

- ``pool()``: every op it can run, as plain data (DSL text, expressions);
- ``select(pool, rng)``: the ops of one pass;
- ``SETUPS``: how many times to set up before the warm-up and before each
  timed pass; ``setup_s`` is the median of all of them;
- ``PASS_SECONDS``: the nominal cost of one pass, measured once when the
  benchmark was defined. It sets the number of timed passes for a given
  ``--seconds``, so that the count never depends on the speed of the code
  under test;
- ``setup(lv, ops, tr)``: the graphs and elements the ops need, built with
  leavitt from the generated text. Every pass gets a fresh set-up, so no
  pass reuses a graph or element object of an earlier pass;
- ``run(op, state, lv, tr)``: one op; ``tr`` spans every call into leavitt;
- ``canon(op, result, lv)``: the op's canonical output, compared by digest
  with the reference;
- ``verify(op, result, state, lv)``: an independent check (or None), run
  on the warm-up pass, not on the timed passes;
- ``post(ops, results, state, lv, tr, judge)``: checks and measurements run
  once, after the timed passes. By default it runs, checks and traces the
  pool ops of the ``BASELINE`` rung, a baseline-table row too slow to
  repeat in every pass;
- ``close()``: stops whatever the workload started for the run;
- ``peak_rss_kb()``: the peak RSS that ``peak_rss_mb`` reports, after
  ``close()``.

See README.md for why each workload exists and what each should show.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

import inputs as gen
from tracer import NULL

P = 10007  # the prime of the F_p half of the ops


def fields(lv):
    return {"qq": lv.QQ, "fp": lv.GF(P)}


def parse_graphs(lv, specs, tr):
    graphs = {}
    for name, dsl in specs.items():
        with tr.span("graph.parse_graph"):
            graphs[name] = lv.parse_graph(dsl)
    return graphs


class Workload:
    """Defaults for the optional steps; see the module docstring."""

    ladder = []
    BASELINE = None
    SETUPS = 3

    def call(self, op, state, lv, tr):
        """Run one op; an error is its output, never a crash of the run."""
        try:
            return self.run(op, state, lv, tr)
        except lv.LeavittError as exc:
            return OpError(type(exc).__name__)
        except Exception:  # an unexpected error is a failed op
            return OpError("unexpected: " + traceback.format_exc(limit=3))

    def verify(self, op, result, state, lv):
        return None

    def post(self, ops, results, state, lv, tr, judge):
        """Checks and measurements after the timed passes:
        (ops attempted, failure messages, samples). ``results`` are the
        warm-up pass's; ``judge(op, result)`` checks an output against the
        reference and returns a failure message or None. Here: the
        BASELINE ops, checked against the reference and by ``verify``, and
        traced under their rung."""
        baseline = [op for op in self.pool() if op["rung"] == self.BASELINE]
        base = self.setup(lv, baseline, NULL)
        failures = []
        for op in baseline:
            tr.op, tr.rung = op["key"], op["rung"]
            result = self.call(op, base, lv, tr)
            bad = judge(op, result) or self.verify(op, result, base, lv)
            if bad:
                failures.append(f"{op['key']}: {bad}")
        return len(baseline), failures, {}

    def teardown(self, state):
        pass

    def close(self):
        pass

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class OpError:
    """An op that raised a LeavittError; its type name is its output."""

    __slots__ = ("type",)

    def __init__(self, type_name):
        self.type = type_name


# ---------------------------------------------------------------------------


class NfProducts(Workload):
    """parse_element -> x * y.star() -> format_element over random elements."""

    name = "nf_products"
    PASS_SECONDS = 0.7
    # per (graph, field): seeds share most of the pool, so the cost mix of a
    # pass varies little from seed to seed while its inputs still differ
    PER_BUCKET = 12
    POOL_PER_BUCKET = 16
    TAIL = (1, 2, 3, 4)  # rose4: s^k (s^k)*, s = e1 + e2 + e3 + e4
    # the 52k-term product (~1.5 s) runs once per run, after the passes: its
    # time swings by up to a third from run to run on a shared host, far
    # more than the rest of a pass, and would set ops_per_s on its own
    BASELINE = "rose4pow4"
    ladder = [("algebra.mul", [
        "rose2", "rose3", "rose4", "T", "rand4", "rand8", "rand16", "rand32",
        "line64", "line256", "line1024", "rose4pow1", "rose4pow2", "rose4pow3", "rose4pow4",
    ])]

    def specs(self):
        rng = random.Random("nf-graphs")
        out = [gen.rose(2), gen.rose(3), gen.rose(4), gen.toeplitz()]
        out += [gen.random_forest(rng, n, f"rand{n}") for n in (4, 8, 16, 32)]
        out += [gen.line(n) for n in (64, 256, 1024)]
        return out

    def pool(self):
        rng = random.Random("nf-pool")
        ops = []
        for spec in self.specs():
            for field in ("qq", "fp"):
                for i in range(self.POOL_PER_BUCKET):
                    starts = None
                    if spec.name.startswith("line"):
                        # keep both elements inside one window so products survive
                        c = rng.randrange(len(spec.vertices) - 8)
                        starts = spec.vertices[c:c + 8]
                    x, ghosts = gen.random_element(spec, rng, starts=starts)
                    y = gen.overlapping_element(spec, rng, ghosts, starts=starts)
                    ops.append({
                        "key": f"nf/{spec.name}/{field}/{i}", "rung": spec.name,
                        "graph": spec.name, "dsl": spec.dsl(), "field": field,
                        "x": x, "y": y,
                    })
        s = "(" + " + ".join(f"e{i}" for i in range(1, 5)) + ")"
        rose4 = gen.rose(4)
        for k in self.TAIL:
            power = "*".join([s] * k)
            ops.append({
                "key": f"nf/tail/{k}", "rung": f"rose4pow{k}", "graph": "rose4",
                "dsl": rose4.dsl(), "field": "qq", "x": power, "y": power,
            })
        return ops

    def select(self, pool, rng):
        buckets = {}
        tail = []
        for op in pool:
            if op["rung"] == self.BASELINE:
                continue
            if op["key"].startswith("nf/tail/"):
                tail.append(op)
            else:
                buckets.setdefault((op["graph"], op["field"]), []).append(op)
        ops = []
        for bucket in buckets.values():
            ops += rng.sample(bucket, self.PER_BUCKET)
        rng.shuffle(ops)
        return ops + tail

    def setup(self, lv, ops, tr):
        specs = {op["graph"]: op["dsl"] for op in ops}
        return {"graphs": parse_graphs(lv, specs, tr), "fields": fields(lv)}

    def run(self, op, state, lv, tr):
        g = state["graphs"][op["graph"]]
        field = state["fields"][op["field"]]
        with tr.span("expressions.parse_element"):
            x = lv.parse_element(g, op["x"], field)
        with tr.span("expressions.parse_element"):
            y = lv.parse_element(g, op["y"], field)
        with tr.span("algebra.star"):
            ys = y.star()
        with tr.span("algebra.mul." + op["field"]):
            z = x * ys
        with tr.span("expressions.format_element"):
            text = lv.format_element(z)
        if tr.enabled:
            tr.count("algebra.support_out", z.support_size())
        return text

    def canon(self, op, result, lv):
        return result


# ---------------------------------------------------------------------------


class StructureReports(Workload):
    """Analyzer reports, socle queries and closures over doubling families,
    plus the Toeplitz exact-sequence and sandwich reports."""

    name = "structure_reports"
    PASS_SECONDS = 1.7
    RANDOM_VARIANTS = 4
    ELEMENTS = 12
    SETS = 8
    # queries per graph and pass. With three socle queries a pass, the median
    # latency fell between two cost clusters, and the seed alone moved it by
    # up to 7% over ten seeds; with six, by under 4%.
    IN_SOCLE, QUOTIENT, CLOSURE = 6, 1, 2
    EXACT = [("T1", 1), ("T1", 2), ("T1", 4), ("T1", 8), ("T2", 2), ("T4", 2), ("T8", 2)]
    SANDWICH = [(1, 3), (2, 6), (3, 12), (6, 24)]
    FAMILY = (
        [f"line{n}" for n in (8, 16, 32, 64)]
        + [f"ladder{n}" for n in (4, 8, 16, 32)]
        + [f"rand{n}" for n in (8, 16, 32)]
        + [f"T{n}" for n in (1, 2, 4, 8)]
    )
    ladder = [
        ("graph.analyzer_report", FAMILY),
        ("quotients.in_socle", [f"line{n}" for n in (8, 16, 32, 64)]
         + [f"ladder{n}" for n in (4, 8, 16, 32)]),
        ("toeplitz.exact_sequence_report", [f"T1d{d}" for d in (1, 2, 4, 8)]),
        ("toeplitz.sandwich_report", [f"T1d{d}w{w}" for d, w in SANDWICH]),
    ]

    def specs(self):
        """[(rung, variant spec)]; a Toeplitz rung Tn is (n, F = line n)."""
        rng = random.Random("sr-graphs")
        out = [(f"line{n}", gen.line(n)) for n in (8, 16, 32, 64)]
        out += [(f"ladder{n}", gen.ladder(n)) for n in (4, 8, 16, 32)]
        out += [(f"comb{n}", gen.comb(n)) for n in (4, 8, 16, 32)]
        for n in (8, 16, 32):
            for v in range(self.RANDOM_VARIANTS):
                out.append((f"rand{n}", gen.random_forest(rng, n, f"rand{n}_{v}")))
        out += [(f"T{n}", gen.line(n)) for n in (1, 2, 4, 8)]
        return out

    def pool(self):
        rng = random.Random("sr-pool")
        ops = []
        for rung, spec in self.specs():
            if rung.startswith("T"):
                n = int(rung[1:])
                # E(n, F): loop vertex v, loop e, connectors f / f1..fn into F
                vs = ["v"] + spec.vertices
                es = [("e", "v", "v")]
                es += [("f" if n == 1 else f"f{i + 1}", "v", a) for i, a in enumerate(spec.vertices)]
                query_spec = gen.Spec(rung, vs, es + spec.edges)
                graph = {"family": [n, spec.dsl(), spec.vertices]}
                gid = rung
            else:
                query_spec = spec
                graph = {"dsl": spec.dsl()}
                gid = spec.name
            base = {"graph": gid, "rung": rung, **graph}
            ops.append({"key": f"sr/{gid}/report", "kind": "report", **base})
            for i in range(self.ELEMENTS):
                x, _ = gen.random_element(query_spec, rng)
                ops.append({"key": f"sr/{gid}/in_socle/{i}", "kind": "in_socle", "x": x, **base})
                ops.append({"key": f"sr/{gid}/quotient/{i}", "kind": "socle_quotient", "x": x, **base})
            for i in range(self.SETS):
                X = rng.sample(query_spec.vertices, min(len(query_spec.vertices), rng.randint(1, 3)))
                ops.append({"key": f"sr/{gid}/closure/{i}", "kind": "closure", "set": X, **base})
        t1 = {"graph": "T1", "family": [1, gen.line(1).dsl(), ["x1"]]}
        for gid, d in self.EXACT:
            n = int(gid[1:])
            fam = {"graph": gid, "family": [n, gen.line(n).dsl(), gen.line(n).vertices]}
            ops.append({"key": f"sr/{gid}/exact/{d}", "kind": "exact", "degree": d,
                        "rung": f"{gid}d{d}", **fam})
        for d, w in self.SANDWICH:
            ops.append({"key": f"sr/T1/sandwich/{d}/{w}", "kind": "sandwich", "degree": d,
                        "window": w, "rung": f"T1d{d}w{w}", **t1})
        return ops

    def select(self, pool, rng):
        by_graph = {}
        fixed = []
        for op in pool:
            if op["kind"] in ("exact", "sandwich"):
                fixed.append(op)
            else:
                by_graph.setdefault(op["graph"], []).append(op)
        variants = {}
        for gid, ops in by_graph.items():
            variants.setdefault(ops[0]["rung"], []).append(gid)
        chosen = []
        for rung, gids in variants.items():
            gid = rng.choice(gids)
            ops = by_graph[gid]
            kinds = {}
            for op in ops:
                kinds.setdefault(op["kind"], []).append(op)
            chosen += kinds["report"]
            picks = rng.sample(range(self.ELEMENTS), self.IN_SOCLE + self.QUOTIENT)
            chosen += [kinds["in_socle"][i] for i in picks[: self.IN_SOCLE]]
            chosen += [kinds["socle_quotient"][i] for i in picks[self.IN_SOCLE:]]
            chosen += rng.sample(kinds["closure"], self.CLOSURE)
        chosen += fixed
        rng.shuffle(chosen)
        return chosen

    def setup(self, lv, ops, tr):
        graphs = {}
        for op in ops:
            gid = op["graph"]
            if gid in graphs:
                continue
            if "family" in op:
                n, dsl, attach = op["family"]
                with tr.span("graph.parse_graph"):
                    F = lv.parse_graph(dsl)
                with tr.span("toeplitz.build_toeplitz_family"):
                    graphs[gid] = lv.build_toeplitz_family(n, F, attach, name=gid)
            else:
                with tr.span("graph.parse_graph"):
                    graphs[gid] = lv.parse_graph(op["dsl"])
        elements = {}
        for op in ops:
            if "x" in op:
                with tr.span("expressions.parse_element"):
                    elements[op["key"]] = lv.parse_element(graphs[op["graph"]], op["x"])
        return {"graphs": graphs, "elements": elements}

    def run(self, op, state, lv, tr):
        g = state["graphs"][op["graph"]]
        kind = op["kind"]
        if kind == "report":
            with tr.span("graph.analyzer_report"):
                report = lv.analyzer_report(g)
            if tr.enabled:
                tr.count("graph.cycles_found", len(report["cycles"]))
            return report
        if kind == "in_socle":
            with tr.span("quotients.in_socle"):
                member = lv.in_socle(state["elements"][op["key"]])
            tr.count("quotients.in_socle_calls")
            return member
        if kind == "socle_quotient":
            with tr.span("graph.line_points"):
                lp = lv.line_points(g)
            with tr.span("graph.hereditary_saturated_closure"):
                H = lv.hereditary_saturated_closure(g, lp)
            with tr.span("quotients.quotient_morphism"):
                return lv.quotient_morphism(state["elements"][op["key"]], H.members)
        if kind == "closure":
            with tr.span("graph.hereditary_saturated_closure"):
                return lv.hereditary_saturated_closure(g, op["set"])
        if kind == "exact":
            with tr.span("toeplitz.exact_sequence_report"):
                report = lv.exact_sequence_report(g, op["degree"])
        else:
            with tr.span("toeplitz.sandwich_report"):
                report = lv.sandwich_report(g, op["degree"], op["window"])
        if tr.enabled:
            tr.count("toeplitz.monomials_checked", report["monomials_checked"])
        return report

    def canon(self, op, result, lv):
        kind = op["kind"]
        if kind == "in_socle":
            return str(result)
        if kind == "socle_quotient":
            return f"{result.graph.name}: {lv.format_element(result)}"
        if kind == "closure":
            return ",".join(result.ordered())
        return json.dumps(result)


# ---------------------------------------------------------------------------


class SemisimpleInverse(Workload):
    """matrix_decomposition -> to_matrix -> group_inverse -> from_matrix."""

    name = "semisimple_inverse"
    PASS_SECONDS = 2.3
    # per graph and field: (low-rank, nilpotent, identity + nilpotent) ops of
    # a pass. Nilpotent and full-rank ops are drawn from a pool of two. Every
    # pass runs the whole low-rank pool: its elements' costs differ up to
    # tenfold, and drawing three of four let the seed alone move ops_per_s
    # and the latency percentiles by 6-10% over ten seeds.
    # Full-rank ops stop at n16: dense elimination of a full-rank block costs
    # ~0.4 s at 32 and ~3 s at 64 over QQ, and would leave too few passes in
    # a run. The comb40 baseline row (one full-rank op per field, ~1 s over
    # QQ) runs once per run, in post().
    MIX = {"n4": (4, 1, 1), "n8": (4, 1, 1), "n16": (4, 1, 1), "n32": (4, 1, 0),
           "n64": (4, 1, 0), "comb40": (0, 0, 1)}
    BASELINE = "comb40"
    POOL = {"low": 4, "nil": 2, "full": 2}
    KINDS = ("low", "nil", "full")
    ladder = [
        ("matrices.group_inverse.qq", list(MIX)),
        ("matrices.group_inverse.fp", list(MIX)),
        ("semisimple.to_matrix", list(MIX)),
    ]

    def specs(self):
        rng = random.Random("ss-graphs")
        out = []
        for n in (4, 8, 16, 32, 64):
            out += [(f"n{n}", gen.comb(n - 1)), (f"n{n}", gen.line(n))]
            if n <= 16:
                out.append((f"n{n}", gen.random_forest(rng, n, f"dag{n}", cycles=False)))
        out.append(("comb40", gen.comb(40)))
        return out

    def pool(self):
        rng = random.Random("ss-pool")
        make = {
            "low": lambda spec: gen.closed_element(spec, rng),
            "nil": lambda spec: gen.nilpotent_element(spec, rng),
            "full": lambda spec: gen.unit_plus_nilpotent(spec, rng),
        }
        ops = []
        for rung, spec in self.specs():
            for field in ("qq", "fp"):
                for kind, wanted in zip(self.KINDS, self.MIX[rung]):
                    size = 1 if rung == self.BASELINE else self.POOL[kind]
                    for i in range(size if wanted else 0):
                        ops.append({
                            "key": f"ss/{spec.name}/{field}/{kind}/{i}", "rung": rung,
                            "graph": spec.name, "dsl": spec.dsl(), "field": field,
                            "kind": kind, "x": make[kind](spec),
                        })
        return ops

    def select(self, pool, rng):
        buckets = {}
        for op in pool:
            buckets.setdefault((op["graph"], op["field"], op["kind"]), []).append(op)
        ops = []
        for (graph, field, kind), bucket in buckets.items():
            if bucket[0]["rung"] != self.BASELINE:
                wanted = self.MIX[bucket[0]["rung"]][self.KINDS.index(kind)]
                ops += rng.sample(bucket, wanted)
        rng.shuffle(ops)
        return ops

    def setup(self, lv, ops, tr):
        graphs = parse_graphs(lv, {op["graph"]: op["dsl"] for op in ops}, tr)
        F = fields(lv)
        elements = {}
        for op in ops:
            with tr.span("expressions.parse_element"):
                elements[op["key"]] = lv.parse_element(graphs[op["graph"]], op["x"], F[op["field"]])
        return {"graphs": graphs, "elements": elements}

    def run(self, op, state, lv, tr):
        x = state["elements"][op["key"]]
        with tr.span("semisimple.matrix_decomposition"):
            d = lv.matrix_decomposition(x.graph)
        with tr.span("semisimple.to_matrix"):
            m = lv.to_matrix(x, d)
        if tr.enabled:
            cells = nonzeros = 0
            for block in m.blocks:
                cells += block.nrows * block.ncols
                nonzeros += sum(1 for row in block.rows for a in row if a)
                tr.peak("semisimple.block_size_max", block.nrows)
            tr.count("semisimple.block_cells", cells)
            tr.count("semisimple.block_nonzeros", nonzeros)
        with tr.span("matrices.group_inverse." + op["field"]):
            inv = m.group_inverse()
        with tr.span("semisimple.from_matrix"):
            return lv.from_matrix(inv, d, x.field)

    def canon(self, op, result, lv):
        return lv.format_element(result)

    def verify(self, op, result, state, lv):
        """Nilpotent inputs must have no group inverse; every inverse found must
        satisfy the defining identities, checked in the algebra itself."""
        if op["kind"] == "nil" or isinstance(result, OpError):
            if op["kind"] == "nil" and isinstance(result, OpError) and result.type == "NotGroupInvertible":
                return None
            return f"expected NotGroupInvertible only for nilpotent input, got {result!r}"
        a, b = state["elements"][op["key"]], result
        if a * b * a != a:
            return "a b a != a"
        if b * a * b != b:
            return "b a b != b"
        if a * b != b * a:
            return "a b != b a"
        return None


# ---------------------------------------------------------------------------


class CliSession(Workload):
    """Sequential `python -m leavitt.cli` calls over small graph files."""

    name = "cli_session"
    COMMANDS = ("analyze", "nf", "mul", "eq", "decompose", "group-inverse", "socle-member",
                "quotient", "restrict", "denominator", "toeplitz-check", "closure")
    PASS_SECONDS = 7.0
    # its set-up is short (~12 ms) and single set-ups swing up to threefold,
    # so setup_s takes the median of 40 rather than 12
    SETUPS = 10
    PER_COMMAND = 10  # pool entries per command
    # per pass: each command 7 times, 6 more, and 10 expected errors (10%)
    PICK, EXTRA, ERRORS = 7, 6, 10
    PROBES = 5  # interpreter start-up / import probes per run
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spawner = None  # bench/spawner.py, which starts every timed CLI call
    children_maxrss_kb = 0

    def specs(self):
        rng = random.Random("cli-graphs")
        fork = gen.Spec("Fork", ["u", "w", "z1", "z2"],
                        [("a", "u", "w"), ("b", "w", "z1"), ("c", "w", "z2")])
        return [
            gen.toeplitz(), gen.Spec("A2", ["u", "w"], [("f", "u", "w")]), gen.comb(4),
            gen.line(5), gen.ladder(3), fork, gen.rose(2),
            gen.random_forest(rng, 8, "rand8a"), gen.random_forest(rng, 8, "rand8b"),
        ]

    def pool(self):
        rng = random.Random("cli-pool")
        specs = {s.name: s for s in self.specs()}
        acyclic = ["A2", "comb4", "line5", "ladder3", "Fork"]
        ops = []

        def add(cmd, i, graph, args, field="q", options=(), expect=None):
            argv = [cmd, "--field", f"fp:{P}" if field == "fp" else field, *options]
            if args:
                argv.append("--")
            argv.append(f"{graph}.graph")
            argv += args
            ops.append({"key": f"cli/{cmd}/{i}", "rung": cmd, "argv": argv, "graph": graph,
                        "dsl": specs[graph].dsl() if graph in specs else None,
                        "expect": expect})

        for i in range(self.PER_COMMAND):
            name = rng.choice(list(specs))
            spec = specs[name]
            field = rng.choice(["q", "fp"])
            small = {"max_terms": 4, "max_len": 3}
            x, ghosts = gen.random_element(spec, rng, **small)
            y = gen.overlapping_element(spec, rng, ghosts, **small)
            add("analyze", i, name, [])
            add("nf", i, name, [x], field)
            add("mul", i, name, [x, y], field)
            add("eq", i, name, [x, x if i % 2 else y], field)
            add("socle-member", i, name, [x], field)
            add("toeplitz-check", i, name, [], field, ["--degree", "2", "--window", "6"])
            v = rng.choice(spec.vertices)
            add("quotient", i, name, [], field, ["--set", ",".join(spec.reach(v))])
            add("restrict", i, name, [], field,
                ["--set", ",".join(spec.reach(v)), "--truncate", str(rng.randint(2, 4))])
            X = rng.sample(spec.vertices, min(len(spec.vertices), rng.randint(1, 3)))
            add("closure", i, name, [], field, ["--set", ",".join(X)])
            src, real, _ = gen.walk_forward(spec, rng, rng.choice(spec.vertices), rng.randint(0, 3))
            add("denominator", i, name, [gen.monomial_text(src, real, []), y], field)
            aname = acyclic[i % len(acyclic)]
            add("decompose", i, aname, [])
            add("group-inverse", i, aname, [gen.unit_plus_nilpotent(specs[aname], rng, 2)], field)

        errors = [
            ("nf", "T", ["e*zz9'"], "q", (), "UnknownIdentifier"),
            ("nf", "rose2", ["e1 +* e2"], "q", (), "ExpressionSyntaxError"),
            ("decompose", "T", [], "q", (), "PreconditionError"),
            ("decompose", "rose2", [], "q", (), "PreconditionError"),
            ("group-inverse", "A2", ["f"], "q", (), "NotGroupInvertible"),
            ("group-inverse", "comb4", ["2*s1*s2'"], "fp", (), "NotGroupInvertible"),
            ("closure", "line5", [], "q", ("--set", "x2,nowhere"), "UnknownIdentifier"),
            ("nf", "comb4", ["p1"], "fp:12", (), "PreconditionError"),
            ("analyze", "missing", [], "q", (), "IOError"),
            ("quotient", "line5", [], "q", ("--set", "x1"), "PreconditionError"),
            ("mul", "ladder3", ["e1", "e9"], "q", (), "UnknownIdentifier"),
            ("eq", "Fork", ["(a", "a"], "fp", (), "ExpressionSyntaxError"),
            ("restrict", "T", [], "q", ("--set", ","), "PreconditionError"),
            ("denominator", "comb4", ["0", "s1"], "q", (), "PreconditionError"),
        ]
        for i, (cmd, graph, args, field, options, expect) in enumerate(errors):
            add(cmd, f"error{i}", graph, args, field, options, expect)
        return ops

    def select(self, pool, rng):
        by_cmd = {}
        errors = []
        for op in pool:
            if op["expect"]:
                errors.append(op)
            else:
                by_cmd.setdefault(op["rung"], []).append(op)
        ops, rest = [], []
        for cmd in self.COMMANDS:
            picked = rng.sample(by_cmd[cmd], self.PICK)
            ops += picked
            rest += [op for op in by_cmd[cmd] if op not in picked]
        ops += rng.sample(rest, self.EXTRA) + rng.sample(errors, self.ERRORS)
        rng.shuffle(ops)
        return ops

    def setup(self, lv, ops, tr):
        """Write the graph files; each op's argv then names an absolute path."""
        root = self.ROOT
        gdir = os.path.join(root, "bench", "out", f"cli-graphs-{os.getpid()}")
        os.makedirs(gdir, exist_ok=True)
        for op in ops:
            if op["dsl"] is not None:
                with open(os.path.join(gdir, f"{op['graph']}.graph"), "w", encoding="utf-8") as fh:
                    fh.write(op["dsl"])
        argvs = {}
        for op in ops:
            argvs[op["key"]] = [os.path.join(gdir, a) if a.endswith(".graph") else a
                                for a in op["argv"]]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # see run.py
        return {"dir": gdir, "argv": argvs, "env": env, "cwd": root}

    def run(self, op, state, lv, tr):
        if self.spawner is None:  # the first call of the untimed warm-up
            self.spawner = subprocess.Popen(
                [sys.executable, "-S", os.path.join(self.ROOT, "bench", "spawner.py")],
                cwd=state["cwd"], env=state["env"], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            )
        argv = [sys.executable, "-m", "leavitt.cli", *state["argv"][op["key"]]]
        with tr.span("cli.run"):
            self.spawner.stdin.write(json.dumps(argv) + "\n")
            self.spawner.stdin.flush()
            code, out, err = json.loads(self.spawner.stdout.readline())
        if op["expect"] and code == 2:
            tr.count("cli.expected_errors")
        return code, out, err

    def canon(self, op, result, lv):
        code, out, err = result
        if code == 0:
            return f"0:{out}"
        try:
            kind = json.loads(err)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            kind = "unparsed stderr"
        if op["expect"] and (code, kind) != (2, op["expect"]):
            return f"{code}:{kind} (expected 2:{op['expect']})"
        return f"{code}:{kind}"

    def verify(self, op, result, state, lv):
        """Expected errors exit 2 with their named type; everything else exits 0."""
        code = result[0]
        want = f"2:{op['expect']}" if op["expect"] else "0"
        got = self.canon(op, result, lv) if code else "0"
        if got != want:
            return f"exit {got}, expected {want}"
        return None

    def post(self, ops, results, state, lv, tr, judge):
        """Outside the timed passes: replay each op through cli.main in-process
        (its output must equal the subprocess's) and probe interpreter start-up
        and the import of leavitt.cli."""
        failures = []
        inproc = {}
        for op, (code, out, _) in zip(ops, results):
            buf_out, buf_err = StringIO(), StringIO()
            tr.op, tr.rung = op["key"], op["rung"]
            t0 = perf_counter()
            with tr.span("cli.main"), redirect_stdout(buf_out), redirect_stderr(buf_err):
                got = lv.cli.main(state["argv"][op["key"]])
            inproc[op["key"]] = perf_counter() - t0
            if (got, buf_out.getvalue()) != (code, out):
                failures.append(f"{op['key']}: in-process main differs from the subprocess")
        bare, imported = [], []
        for _ in range(self.PROBES):
            for code, sink, span in (("pass", bare, "cli.python_startup"),
                                     ("import leavitt.cli", imported, "cli.import")):
                t0 = perf_counter()
                with tr.span(span):
                    subprocess.run([sys.executable, "-c", code], cwd=state["cwd"],
                                   env=state["env"], check=True, timeout=120)
                sink.append(perf_counter() - t0)
        return len(ops), failures, {"inproc": inproc, "bare": bare, "imported": imported}

    def teardown(self, state):
        for name in os.listdir(state["dir"]):
            os.remove(os.path.join(state["dir"], name))
        os.rmdir(state["dir"])

    def close(self):
        """End the spawner's input, keep the peak RSS of the calls it
        started, and wait for it to exit."""
        if self.spawner is not None:
            out, _ = self.spawner.communicate(timeout=120)
            self.children_maxrss_kb = json.loads(out.splitlines()[-1])["children_maxrss_kb"]
            self.spawner = None

    def peak_rss_kb(self):
        """The largest CLI call's peak RSS."""
        return self.children_maxrss_kb


WORKLOADS = {w.name: w for w in (NfProducts(), StructureReports(), SemisimpleInverse(), CliSession())}
