"""In-memory spans for the traced benchmark run.

A span records one call the benchmark makes into a layer: its name, start and
end (``time.perf_counter`` seconds), the span open around it, the pass it
belongs to, and optional attributes (counts, identity family).  Spans stay in
memory and are written once, when the run ends.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = None

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "pass": self.pass_id, "start": time.perf_counter(),
                  "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, **attrs):
        """Record a span the caller timed itself (imports, untraced calls)."""
        self.spans.append({"id": len(self.spans), "name": name, "parent": None,
                           "pass": self.pass_id, "start": start, "end": end,
                           "attrs": attrs})

    @contextmanager
    def in_pass(self, pass_id):
        """Open the root span of a pass; spans inside carry its id."""
        previous, self.pass_id = self.pass_id, pass_id
        try:
            with self.span("pass") as root:
                yield root
        finally:
            self.pass_id = previous

    def self_times(self):
        """Span id -> duration minus the part its child spans cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = _union_length(
                [(c["start"], c["end"]) for c in children.get(s["id"], ())])
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def layer_seconds(self, pass_ids, key=lambda span: span["name"]):
        """key(span) -> summed self time of the spans in the given passes."""
        selfs = self.self_times()
        out = {}
        for s in self.spans:
            if s["pass"] in pass_ids and s["name"] != "pass":
                k = key(s)
                out[k] = out.get(k, 0.0) + selfs[s["id"]]
        return out

    def coverage(self, root):
        """Summed layer self time under ``root`` over the root's wall time."""
        selfs = self.self_times()
        inside = sum(selfs[s["id"]] for s in self.spans
                     if s["pass"] == root["pass"] and s["id"] != root["id"])
        return inside / (root["end"] - root["start"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, default=str)
            fh.write("\n")


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    def span(self, name, **attrs):
        return nullcontext({})
