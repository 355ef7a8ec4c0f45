"""In-memory spans recorded around the benchmark's own calls into each layer.

A span is (name, start, end, parent, op id). Spans stay in memory and are
written out once, when the run ends. A layer's self time is its span's
duration minus the part covered by its child spans.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Span names used for attribution: the package's modules plus the
# benchmark's own oracle checks and loop bookkeeping.
LAYERS = (
    "special",
    "transforms",
    "evolution",
    "relativistic",
    "clifford",
    "cli",
    "oracle",
    "harness",
)


class Tracer:
    """Collects spans; ``span`` nests, so the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """Stand-in used by the untraced runs: records nothing."""

    op_id = -1

    @contextmanager
    def span(self, name: str):
        yield
