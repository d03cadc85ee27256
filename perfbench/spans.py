"""In-memory span recorder for traced runs.

A span is (name, start, end, parent, op id), kept in flat arrays so that a
run of a few hundred thousand spans stays within tens of megabytes. Spans
are only written out once the run has ended.
"""

import statistics
import time
from array import array

clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.op = 0
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around its body."""
        return _Span(self, name)

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record an already finished span, e.g. one a child process timed."""
        idx = self.open(name)
        self._stack.pop()
        self.parent[idx], self.start[idx], self.end[idx] = parent, start, end
        return idx

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a version that records a span per call."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(module, attr, traced)

    def durations(self, factors=None) -> dict:
        """name -> (durations, self times) in nanoseconds.

        With `factors`, each span is scaled by factors[op - 1], the speed
        factor of the operation it belongs to (op ids count from 1).
        """
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {name: ([], []) for name in self.names}
        for i, nid in enumerate(self.name_id):
            dur = self.end[i] - self.start[i]
            scale = factors[self.op_id[i] - 1] if factors else 1.0
            total, own = out[self.names[nid]]
            total.append(dur * scale)
            own.append((dur - child_ns[i]) * scale)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{self.names[nid]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op_id[i]}\n"
                )


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc_info):
        self.tracer.close(self.idx)


def percentile(values, q: float) -> float:
    """q-quantile (0 < q < 1) by linear interpolation; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]
