"""In-memory span recorder for the traced in-process runs.

Each span holds a name, start, end and parent index; all spans of one
round share the recorder's run id.  Spans live in flat arrays while the
round runs and are written out only when it ends, so recording costs two
clock reads and a few appends per call.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> None:
        self._open(self._intern(name))

    def _open(self, nid: int) -> None:
        index = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._stack.append(index)
        self._end.append(0.0)
        self._start.append(perf_counter())

    def end(self) -> None:
        self._end[self._stack.pop()] = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        open_, close = self._open, self.end

        def traced(*args, **kwargs):
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def __len__(self) -> int:
        return len(self._name)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        count = len(self._name)
        child = [0.0] * count
        for i in range(count):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(count):
            nid = self._name[i]
            calls[nid] += 1
            busy[nid] += self._end[i] - self._start[i] - child[i]
        return {name: (calls[nid], busy[nid]) for nid, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """One tab-separated line per span: run id, index, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run_id\tspan\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self._name)):
                handle.write(
                    f"{self.run_id}\t{i}\t{self.names[self._name[i]]}\t{self._parent[i]}"
                    f"\t{self._start[i]:.9f}\t{self._end[i]:.9f}\n"
                )
