"""In-memory span recorder for the traced pass.

One span is ``{name, start_ns, end_ns, parent, op_id}``: ``parent`` is
the index of the enclosing span in the recorder's list (-1 at the top)
and every span of one benchmark op shares its ``op_id``.  Spans are kept
in memory and written out once, at the end of the run, so recording
costs two clock reads and a list append per span.

Layout of one traced op::

    op                     the real end-to-end call (or its proxied twin)
    replay                 the same work staged through public functions
      core.query.execute     one child span per stage ...
        io.device            ... with nested spans where a pass-through
                             proxy sits on the path
    extras                 probes that are not on the op's path
                           (verify on/off, the other kernel backend)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []
        self._op_id = -1

    def next_op(self) -> int:
        """Start a new op: spans recorded from now on carry its id."""
        self._op_id += 1
        return self._op_id

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "parent": self._stack[-1] if self._stack else -1,
            "op_id": self._op_id,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped so every call is one leaf span (pass-through
        proxies).  Hand-rolled rather than built on :meth:`span`: a device
        proxy sits under dozens of reads per query, and the wrapper's own
        cost is charged to the layer above it."""
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append({
                    "name": name, "start_ns": start, "end_ns": now(),
                    "parent": stack[-1] if stack else -1,
                    "op_id": self._op_id,
                })

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def per_op_ms(spans: "list[dict]") -> "dict[int, dict[str, float]]":
    """``op_id -> span name -> summed milliseconds`` over every span."""
    out: "dict[int, dict[str, float]]" = {}
    for s in spans:
        row = out.setdefault(s["op_id"], {})
        row[s["name"]] = row.get(s["name"], 0.0) + duration_ms(s)
    return out


def children_ms(spans: "list[dict]", parent_name: str) -> float:
    """Summed milliseconds of the *direct* children of every span named
    ``parent_name`` (what closure is made of; a span's self time is its
    own duration minus this)."""
    return sum(
        duration_ms(s) for s in spans
        if s["parent"] >= 0 and spans[s["parent"]]["name"] == parent_name
    )
