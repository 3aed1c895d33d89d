"""Spans and counters recorded around the benchmark's own calls into skewdg.

Nothing inside the package is instrumented: a span covers one public call
(or one batch of calls) that the benchmark makes, so per-layer time is the
time spent inside that layer's public entry points.  Spans live in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = ("linalg", "skew", "dg", "qpl", "classify", "resolution", "finalg", "report", "cli")

_NULL = contextlib.nullcontext()


class Untraced:
    """Calls straight through.  Only the name of the current step is kept,
    so that a failed op can say where it failed."""

    enabled = False

    def __init__(self):
        self.step = None
        self.op = None

    def call(self, name, fn, *args):
        self.step = name
        return fn(*args)

    def span(self, name, calls=1, extra=False):
        self.step = name
        return _NULL

    def count(self, name, value):
        pass

    def maximum(self, name, value):
        pass


class Tracer(Untraced):
    """Records (op, name, parent, start, end, calls, failed, extra) spans.

    `calls` is how many public calls a batch span covers.  An `extra` span is
    probe work the untraced op does not do; it is left out of the coverage
    and overhead figures.
    """

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextlib.contextmanager
    def span(self, name, calls=1, extra=False):
        self.step = name
        rec = [self.op, name, self._stack[-1] if self._stack else None, 0.0, 0.0,
               calls, 0, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            yield
        except Exception:
            rec[6] = 1
            raise
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def summary(self, traced_seconds):
        """Summarise the spans of ops that took `traced_seconds` in all.

        Returns per-span busy time, calls and failures; the op time without
        extra spans; self time per layer as a share of that op time; and
        the share of it covered by top-level spans."""
        op_seconds = traced_seconds - sum(r[4] - r[3] for r in self.spans if r[7])
        busy = defaultdict(float)
        calls = defaultdict(int)
        failed = defaultdict(int)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] is not None:
                child[rec[2]] += rec[4] - rec[3]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        for i, (_op, name, parent, t0, t1, n, bad, extra) in enumerate(self.spans):
            busy[name] += t1 - t0
            calls[name] += n
            failed[name] += bad
            if extra:
                continue
            layer_self[name.split(".")[0]] += t1 - t0 - child[i]
            if parent is None:
                covered += t1 - t0
        shares = {layer: (t / op_seconds if op_seconds else 0.0)
                  for layer, t in layer_self.items()}
        coverage = covered / op_seconds if op_seconds else 0.0
        return busy, calls, failed, op_seconds, shares, coverage

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("op\tname\tparent\tstart_s\tend_s\tcalls\tfailed\textra\n")
            for rec in self.spans:
                handle.write("\t".join(str(x) for x in rec) + "\n")
