"""In-memory span tracer that wraps library callables from outside.

While the benchmark runs, a wrapped call appends two integers to one flat
array: a start event and an end event, each holding perf_counter_ns since
the tracer was made, the span name's id and the event kind. Spans are
rebuilt from that event log once, at the end, by ``table``: each span gets
its name, start, end, its own index (spans are numbered in start order),
the index of the enclosing span (its parent) and the index of its outermost
span (the run id, shared by every span under one top-level call).

Self time is a span's duration minus the durations of its direct children.
Calls are strictly nested (the benchmark is single-threaded), so the events
form balanced brackets and matching them needs only their nesting depth.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

_KIND_BITS = 1
_NAME_BITS = 7
_SHIFT = _KIND_BITS + _NAME_BITS
FIELDS = ("name_id", "parent", "run", "start_ns", "end_ns", "dur_ns",
          "self_ns", "event")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._log = array("q")
        self._base = time.perf_counter_ns()

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            if nid >= 1 << _NAME_BITS:
                raise ValueError("too many span names")
            self.names.append(name)
        return nid

    def mark(self) -> int:
        """Position in the event log; the spans that start between two
        marks are the spans of the work done between them."""
        return len(self._log)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        start_code = self._intern(name) << _KIND_BITS
        end_code = start_code | 1
        clock = time.perf_counter_ns
        base = self._base
        append = self._log.append

        def traced(*args, **kwargs):
            append((clock() - base) << _SHIFT | start_code)
            try:
                return fn(*args, **kwargs)
            finally:
                append((clock() - base) << _SHIFT | end_code)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, module, spans: dict):
        """Wrap ``module.<attr>`` as span ``spans[attr]`` while the block runs."""
        saved = {attr: getattr(module, attr) for attr in spans}
        try:
            for attr, fn in saved.items():
                setattr(module, attr, self.wrap(spans[attr], fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def table(self) -> dict:
        """Every finished span as columns, in start order.

        ``event`` is the position of the span's start event in the log (to
        compare with ``mark``). A top-level span is its own parent and run.
        """
        log = np.frombuffer(self._log, dtype=np.int64)
        is_end = (log & 1).astype(bool)
        depth = np.cumsum(np.where(is_end, -1, 1))
        if depth.size and depth[-1] != 0:
            raise RuntimeError("table() with spans still open")
        level = np.where(is_end, depth + 1, depth)
        starts = np.flatnonzero(~is_end)
        ends = np.flatnonzero(is_end)
        # At one nesting level, starts and ends alternate; the k-th start at
        # a level closes at the k-th end at that level.
        s_order = np.lexsort((starts, level[starts]))
        e_order = np.lexsort((ends, level[ends]))
        end_of = np.empty(starts.size, dtype=np.int64)
        end_of[s_order] = ends[e_order]
        parent = np.arange(starts.size)
        run = np.arange(starts.size)
        lv = level[starts]
        for d in range(2, int(lv.max(initial=1)) + 1):
            up = np.flatnonzero(lv == d - 1)
            here = np.flatnonzero(lv == d)
            parent[here] = up[np.searchsorted(starts[up], starts[here]) - 1]
            run[here] = run[parent[here]]
        t_start = log[starts] >> _SHIFT
        t_end = log[end_of] >> _SHIFT
        dur = t_end - t_start
        child = np.zeros(starts.size, dtype=np.int64)
        nested = parent != np.arange(starts.size)
        np.add.at(child, parent[nested], dur[nested])
        return {"name_id": (log[starts] >> _KIND_BITS) & ((1 << _NAME_BITS) - 1),
                "parent": parent, "run": run, "start_ns": t_start,
                "end_ns": t_end, "dur_ns": dur, "self_ns": dur - child,
                "event": starts}

    def save(self, path, cols: dict) -> None:
        """Write the spans of ``table()`` as an uncompressed npz file."""
        np.savez(path, names=np.array(self.names),
                 **{f: cols[f] for f in FIELDS})
