"""In-memory spans around calls into the program, and their self times.

A span records one call: its name, start and end (perf_counter_ns), the
index of the span that was open when it started (-1 at the top), the run
it belongs to, and an optional amount of work (for example computed
FLOPs or bytes written). Spans stay in a list until the benchmark writes
them out once at the end. This module knows nothing about the program;
`layers.py` says which functions get wrapped.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, WORK = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[list] = []
        self.run_id = 0
        self._clock = clock
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self._clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self._clock()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """`fn` with a span around every call; `work(args, result)` gives the
        span's work figure when set."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, run, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover. Overlapping children are counted once, and a child is
    clipped to its parent's interval."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Patcher:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
