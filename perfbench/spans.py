"""The benchmark's own span recorder.

Spans are recorded by benchmark code around calls into the program's
layers (``Gateway.submit``, ``Experiment.run``, ``analyze_trace``, ...);
nothing inside the program is instrumented.  Spans stay in memory in
compact arrays (a serve pass records hundreds of thousands) and are
written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    """Spans as (name, start, end, parent); ``parent`` is the index of the
    enclosing span, or -1 at the top level.  A disabled recorder records
    nothing, so untraced runs go through the same code."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = -1) -> None:
        """Record a finished span (the hot-path form: no context manager)."""
        if self.enabled:
            self._name.append(self._id(name))
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the block; yields its index (-1 if off)."""
        if not self.enabled:
            yield -1
            return
        idx = len(self._name)
        self.add(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1)
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self._end[idx] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name, -1)
        return [e - s for n, s, e in zip(self._name, self._start, self._end) if n == nid]

    def self_times(self, name: str) -> list[float]:
        """Self time of each span called ``name``: its duration minus the
        part of its interval that its child spans cover."""
        nid = self._ids.get(name, -1)
        children: dict[int, list[tuple[float, float]]] = {}
        for s, e, p in zip(self._start, self._end, self._parent):
            if p >= 0 and self._name[p] == nid:
                children.setdefault(p, []).append((s, e))
        out = []
        for idx, (n, start, end) in enumerate(zip(self._name, self._start, self._end)):
            if n != nid:
                continue
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((end - start) - covered)
        return out

    def sums_per(self, group: str, name: str) -> list[float]:
        """Total duration of ``name`` spans inside each ``group`` span, in
        order (spans are stored in start order, so groups are contiguous)."""
        gid, nid = self._ids.get(group, -1), self._ids.get(name, -1)
        sums: list[float] = []
        for n, s, e in zip(self._name, self._start, self._end):
            if n == gid:
                sums.append(0.0)
            elif n == nid and sums:
                sums[-1] += e - s
        return sums

    def write(self, path: Path) -> None:
        """CSV with a header: name, start and end (s), parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self._names
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent):
                fh.write(f"{names[n]},{s!r},{e!r},{p}\n")
