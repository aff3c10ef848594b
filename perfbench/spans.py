"""Spans recorded from the benchmark's own files around calls into the library.

A span is (id, parent id, operation id, name, start ns, end ns).  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Untraced:
    """Same interface as :class:`Tracer`, recording nothing."""

    def span(self, name, op=None):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][2]
        record = [len(self.spans), parent, op, name, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self milliseconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because calls are sequential.
        """
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[sid]) / 1e6
        return out

    def write(self, path) -> None:
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "summary": self.summary()}, fh)
