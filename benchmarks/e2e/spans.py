"""In-memory spans for the traced pass, written out once at exit.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
span that was open when this one began (-1 at the top), ``op`` the id of the
operation — round, request or tick — it belongs to.  A layer's *self* time
is its span minus the part its children cover; children of one span never
overlap here (everything below a tick is synchronous), so that part is
their sum.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        self.rows: List[list] = []
        self._open: List[int] = []
        #: id of the operation in progress; the driver sets it before each
        #: top-level call so nested spans inherit it
        self.op: int = -1

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.rows))
        self.rows.append([name, perf_counter(), 0.0, parent, self.op])

    def end(self) -> None:
        self.rows[self._open.pop()][2] = perf_counter()

    def add(self, name: str, start: float, end: float, op: int) -> None:
        """A span timed by the caller (a request's due -> resolved), which
        may overlap anything and has no parent."""
        self.rows.append([name, start, end, -1, op])

    def wrap(self, obj: Any, attr: str, name: str,
             before: Optional[Callable[[], None]] = None) -> None:
        """Shadow ``obj.attr`` with an instance-level wrapper recording a
        span per call; ``before`` runs first, outside the span."""
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end()

        setattr(obj, attr, traced)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds, self seconds."""
        covered = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _), child_s in zip(self.rows, covered):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s
        return out

    def gaps(self, name: str) -> List[float]:
        """Seconds between the end of each ``name`` span and the start of
        the next one."""
        rows = [r for r in self.rows if r[0] == name]
        return [b[1] - a[2] for a, b in zip(rows, rows[1:])]

    def write(self, path: str, workload: str) -> None:
        names = sorted({r[0] for r in self.rows})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "workload": workload,
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [[index[r[0]], r[1], r[2], r[3], r[4]] for r in self.rows],
                },
                f,
            )
