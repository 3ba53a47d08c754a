"""Spans and counters recorded by the benchmark around its calls into leavitt.

A span is (name, start, end, parent, op, rung, round): ``parent`` indexes the
enclosing span (-1 for none), ``op`` identifies the operation it served,
``rung`` the size rung of that operation, and ``round`` the setup repetition
or timed pass it ran in. Spans stay in memory and are written out once, at
the end of a run. Self time is a span's duration minus the durations of its
direct children.

The untraced run uses ``NULL``: the same calls go through the same ``with``
blocks, and nothing is recorded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.round = "setup0"
        self.op = None
        self.rung = None

    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.op, self.rung, self.round])
        self.stack.append(index)
        return _Span(self, index)

    def count(self, name, value=1):
        self.counts[(self.round, name)] += value

    def peak(self, name, value):
        key = (self.round, name)
        self.counts[key] = max(self.counts[key], value)

    def self_times(self):
        """[(name, self_seconds, op, rung, round)] for every finished span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start - child[i], op, rung, rnd)
            for i, (name, start, end, parent, op, rung, rnd) in enumerate(self.spans)
        ]

    def per_round(self):
        """{round: {name: summed self seconds}} plus {round: {counter: value}}."""
        times = defaultdict(lambda: defaultdict(float))
        for name, self_s, _, _, rnd in self.self_times():
            times[rnd][name] += self_s
        counts = defaultdict(dict)
        for (rnd, name), value in self.counts.items():
            counts[rnd][name] = value
        return times, counts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, rung, rnd in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "rung": rung, "round": rnd,
                }) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False
    _SPAN = _NullSpan()

    def __init__(self):
        self.round = self.op = self.rung = None

    def span(self, name):
        return self._SPAN

    def count(self, name, value=1):
        pass

    def peak(self, name, value):
        pass


NULL = NullTracer()
