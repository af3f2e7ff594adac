"""Spans recorded from outside the program, around the calls into each layer.

The benchmark wraps the public methods of objects it constructs itself
(instance attributes shadow the class methods, so nothing in ``src/``
changes).  Spans carry a name, start, end, parent span and a trace id
(one per request or per MAPE cycle); they are kept in memory and written
out only when the run ends.  The program's own spans (``manager.*``,
emitted once ``repro.obs.runtime.enable()`` is on) are adopted into the
same log so that self times can be computed across both sources.
"""

from __future__ import annotations

import json
import threading
import time


class Recorder:
    """In-memory span log.  ``spans`` rows are
    ``[id, name, start, end, parent_id, trace_id, extra]``."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def trace_id(self):
        return getattr(self._local, "trace_id", None)

    @trace_id.setter
    def trace_id(self, value) -> None:
        self._local.trace_id = value

    def record(self, name, start, end, parent=None, trace=None, extra=None) -> int:
        span_id = self._new_id()
        self.spans.append([span_id, name, start, end, parent, trace, extra])
        return span_id

    def wrap(self, obj, method: str, name: str, extra=None) -> None:
        """Shadow ``obj.method`` with a timed wrapper recording ``name``.

        ``extra(args, kwargs)`` may return a value stored on the span
        (e.g. the row count, or the identities of the rows a flush
        answered).
        """
        original = getattr(obj, method)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = self._stack()
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                info = extra(args, kwargs) if extra is not None else None
                self.spans.append(
                    [span_id, name, start, end, parent, self.trace_id, info]
                )

        setattr(obj, method, timed)

    def adopt_program_spans(self, roots) -> None:
        """Copy the program's span trees (``repro.obs`` tracer roots)
        into this log; the i-th tree gets trace id ``i``."""
        for trace, root in enumerate(roots):
            pending = [(root, None)]
            while pending:
                sp, parent = pending.pop()
                span_id = self.record(
                    sp.name, sp.start, sp.end, parent=parent, trace=trace
                )
                pending.extend((child, span_id) for child in sp.children)

    def by_name(self, name: str) -> list:
        return [s for s in self.spans if s[1] == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, trace, extra in self.spans:
                row = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "trace": trace,
                }
                if extra is not None:
                    row["extra"] = extra
                fh.write(json.dumps(row) + "\n")


def nest_by_time(spans) -> None:
    """Re-parent every span of a single-threaded trace to the innermost
    other span of that trace enclosing it in time.  This joins the
    program's own span trees to the benchmark's wrapper spans."""
    by_trace: dict = {}
    for s in spans:
        if s[5] is not None:
            by_trace.setdefault(s[5], []).append(s)
    for members in by_trace.values():
        for s in members:
            best = None
            for other in members:
                if other is s or not (other[2] <= s[2] and s[3] <= other[3]):
                    continue
                if best is None or other[3] - other[2] < best[3] - best[2]:
                    best = other
            if best is not None:
                s[4] = best[0]


def self_times(spans) -> dict:
    """Self time per span name: duration minus the part its child spans
    cover (children never overlap one another within one thread)."""
    child_total: dict = {}
    for s in spans:
        if s[4] is not None:
            child_total[s[4]] = child_total.get(s[4], 0.0) + (s[3] - s[2])
    out: dict = {}
    for s in spans:
        own = (s[3] - s[2]) - child_total.get(s[0], 0.0)
        out[s[1]] = out.get(s[1], 0.0) + own
    return out
