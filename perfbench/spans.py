"""In-memory span recorder for the benchmark's traced replay.

A span records name, start, end, parent span, wall seconds and process CPU
seconds (all threads, so BLAS threads count). Spans of one pass share a pass
id. Spans stay in memory and are written as JSONL once the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer of the untraced passes: records nothing."""

    def span(self, name):
        return nullcontext()

    def count(self, name, n):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_walls: dict[int, float] = {}
        self.coverage: dict[int, float] = {}
        self.pass_id: int | None = None
        self._stack: list[dict] = []

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Time one replayed pass and the share of it inside root spans."""
        self.pass_id = pass_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            covered = sum(s["wall_s"] for s in self.spans
                          if s["pass"] == pass_id and s["parent"] is None
                          and s["start"] >= t0 and s["end"] <= t1)
            self.pass_walls[pass_id] = t1 - t0
            self.coverage[pass_id] = covered / (t1 - t0)

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "pass": self.pass_id, "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "cpu_start": time.process_time()}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["wall_s"] = rec["end"] - rec["start"]
            rec["cpu_s"] = time.process_time() - rec.pop("cpu_start")

    def count(self, name: str, n: int) -> None:
        self.counts[self.pass_id][name] += int(n)

    def self_times(self, pass_id: int) -> dict[str, tuple[float, float]]:
        """Per span name: (wall, CPU) seconds in the pass, minus child spans."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child = defaultdict(lambda: [0.0, 0.0])
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]][0] += s["wall_s"]
                child[s["parent"]][1] += s["cpu_s"]
        out = defaultdict(lambda: [0.0, 0.0])
        for s in spans:
            out[s["name"]][0] += s["wall_s"] - child[s["id"]][0]
            out[s["name"]][1] += s["cpu_s"] - child[s["id"]][1]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
