"""Span tracing from outside negseq, for the traced benchmark run.

Each public function is replaced, in the namespace of the module that calls
it, by a wrapper that records a span: name, start, end, parent span and
operation id. Spans are kept in memory in flat integer columns and written
out when the run ends. A span may also carry a small annotation (a count
read from the arguments or the result) for the per-layer counters.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        # One entry per finished span, in order of completion.
        self.ids = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.notes: dict[int, object] = {}
        self.current_op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span named ``name``; ``note(args, result)``
        gives the span's annotation."""
        code = self._codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.ids.append(span)
                tracer.name.append(code)
                tracer.start.append(start)
                tracer.end.append(end)
                tracer.parent.append(parent)
                tracer.op.append(tracer.current_op)
            if note is not None:
                tracer.notes[span] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.ids)

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.ids)):
                out.write(
                    f"{self.ids[i]}\t{names[self.name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n"
                )


class Summary:
    """Durations, self times and annotations of the spans recorded in the
    index ranges ``[lo, hi)`` of ``tracer``."""

    def __init__(self, tracer: Tracer, ranges: list[tuple[int, int]]) -> None:
        names = tracer.names
        child_ns: dict[int, int] = {}
        rows = []
        name_of = {}
        for i in (i for lo, hi in ranges for i in range(lo, hi)):
            dur = tracer.end[i] - tracer.start[i]
            span = tracer.ids[i]
            parent = tracer.parent[i]
            child_ns[parent] = child_ns.get(parent, 0) + dur
            name = names[tracer.name[i]]
            name_of[span] = name
            rows.append((span, name, dur, parent))
        self.rows = [
            (name, dur, dur - child_ns.get(span, 0), name_of.get(parent, ""), tracer.notes.get(span))
            for span, name, dur, parent in rows
        ]

    def seconds(self, name: str) -> float:
        return sum(dur for n, dur, *_ in self.rows if n == name) / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for row in self.rows if row[0] == name)

    def notes(self, name: str) -> list:
        return [note for n, _, _, _, note in self.rows if n == name and note is not None]

    def self_seconds(self, name: str) -> float:
        return sum(own for n, _, own, *_ in self.rows if n == name) / 1e9

    def outer_seconds(self, prefix: str) -> float:
        """Time covered by spans named ``prefix*``, nested ones counted once."""
        return sum(
            dur for n, dur, _, parent, _ in self.rows
            if n.startswith(prefix) and not parent.startswith(prefix)
        ) / 1e9

    def durations_ms(self, name: str, note=None) -> list[float]:
        return [
            dur / 1e6 for n, dur, _, _, nt in self.rows
            if n == name and (note is None or nt == note)
        ]

    def self_ms(self, name: str) -> list[float]:
        return [own / 1e6 for n, _, own, *_ in self.rows if n == name]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
