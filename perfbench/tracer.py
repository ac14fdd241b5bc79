"""Span tracer for the benchmark's traced run.

The tracer replaces zetakit functions at runtime, from outside the
library: the module attribute itself, every other zetakit module (or
class) that holds the same object under an imported name, and, for the
two path generators, each ``next()`` of the stream they return.  Nothing
under ``src/zetakit`` is edited.

Every span has a name, start, end, parent span and operation id.  Spans
are kept in memory as flat integer arrays and written out by ``dump``
when the run ends.  Self time is folded in as each span closes: its
duration minus the durations of its direct children, which nest strictly
because everything runs on one thread.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase_ids: dict[str, int] = {}
        self.ops: list[tuple[int, str]] = []  # op id -> (phase id, label)
        self.phase = self._intern_phase("idle")
        self.op = -1
        self.on = False
        # one row per closed span, in closing order
        self.col_id = array("i")
        self.col_parent = array("i")
        self.col_name = array("i")
        self.col_op = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        # (phase id, name id) -> [spans, busy ns, self ns]
        self.agg: dict[tuple[int, int], list[int]] = {}
        # (phase id, key) -> count, for the counters the benchmark names
        self.counts: dict[tuple[int, tuple], int] = {}
        self.live: list[tuple] = []  # keys of open traced generators, oldest first
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = _clock()

    # -- phases and operations ------------------------------------------

    def _intern_phase(self, phase: str) -> int:
        if phase not in self._phase_ids:
            self._phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        return self._phase_ids[phase]

    def set_phase(self, phase: str) -> None:
        self.phase = self._intern_phase(phase)

    def begin_op(self, label: str) -> None:
        self.op = len(self.ops)
        self.ops.append((self.phase, label))

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: tuple) -> None:
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + 1

    # -- spans ----------------------------------------------------------

    def enter(self, nid: int) -> None:
        self._stack.append([self._next_id, nid, _clock(), 0])
        self._next_id += 1

    def leave(self) -> None:
        end = _clock()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pid = parent[0]
        else:
            pid = -1
        self.col_id.append(sid)
        self.col_parent.append(pid)
        self.col_name.append(nid)
        self.col_op.append(self.op)
        self.col_start.append(start - self.t0)
        self.col_end.append(end - self.t0)
        row = self.agg.get((self.phase, nid))
        if row is None:
            row = self.agg[(self.phase, nid)] = [0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child

    # -- wrappers -------------------------------------------------------

    def wrap_function(self, fn, name, on_result=None):
        """``name`` is a span name, or a callable mapping (args, kwargs) to one."""
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.enter(fixed if fixed is not None else tracer.name_id(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name, key_of):
        """Trace each ``next()`` of the iterator ``fn`` returns as one span.

        ``key_of(args, kwargs)`` names the stream for the counters: one
        ``("instances", key)`` per stream and one ``("items", key)`` per
        item it yields.
        """
        tracer = self
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            if not tracer.on:
                return stream
            return tracer._iterate(stream, nid, key_of(args, kwargs))

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, stream, nid, key):
        self.count(("instances",) + key)
        entry = key + (object(),)
        self.live.append(entry)
        try:
            while True:
                self.enter(nid)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self.leave()
                self.count(("items",) + key)
                yield item
        finally:
            self.live.remove(entry)

    def innermost_stream(self):
        return self.live[-1] if self.live else None

    # -- installing -----------------------------------------------------

    def patch(self, modules, original, replacement) -> None:
        """Replace every reference to ``original`` held by ``modules`` (and
        by the classes they define) with ``replacement``."""
        for mod in modules:
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, replacement)
                        self._patched.append((holder, attr, original))

    def unpatch(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def stats(self, phase: str, name: str):
        """(spans, busy seconds, self seconds) of a span name in a phase."""
        pid, nid = self._phase_ids.get(phase), self._name_ids.get(name)
        row = self.agg.get((pid, nid), [0, 0, 0])
        return row[0], row[1] / 1e9, row[2] / 1e9

    def counted(self, phase: str, key: tuple) -> int:
        return self.counts.get((self._phase_ids.get(phase), key), 0)

    @property
    def span_count(self) -> int:
        return len(self.col_id)

    def dump(self, stem: str) -> None:
        """Write ``<stem>.json`` (names, phases, ops, layout) and
        ``<stem>.bin.gz`` (the span columns, one after another)."""
        cols = (
            ("id", self.col_id),
            ("parent", self.col_parent),
            ("name", self.col_name),
            ("op", self.col_op),
            ("start_ns", self.col_start),
            ("end_ns", self.col_end),
        )
        header = {
            "spans": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode, col.itemsize] for label, col in cols],
            "names": self.names,
            "phases": self.phases,
            "ops": [[self.phases[p], label] for p, label in self.ops],
        }
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)
        with gzip.open(stem + ".bin.gz", "wb", compresslevel=1) as fh:
            for _, col in cols:
                fh.write(col.tobytes())

