"""The ruler's own span recorder (the traced pass only).

Spans are taken *around* calls into the program's public functions — spans
inside ``src/`` are a later issue (ROADMAP item 1b).  Each span has a name,
the layer it is charged to, start, end, its parent and the id of the op it
belongs to; they stay in memory and are written once, at exit, as Chrome
trace-event JSON (open in Perfetto / ``chrome://tracing``).

Some children cannot be bracketed from outside — the time an ``execute()``
spent planning is only known as a *sum*, from the ``repro.obs`` series the
program publishes.  :meth:`SpanRecorder.aggregate` records such a child with
its measured duration, laid out from the parent's start; it is marked
``"aggregate": true`` in the export so nobody reads its position as real.

A layer's self time is the duration of its spans minus their children's.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "aggregate", "thread", "cursor")

    def __init__(self, name: str, layer: str, start: float, parent: Optional["Span"], op: Optional[int]):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.aggregate = False
        self.thread = threading.get_ident()
        #: where the next aggregate child is laid out.
        self.cursor = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[int] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        current = Span(name, layer, time.perf_counter(), parent, op)
        stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(current)

    def aggregate(self, parent: Span, name: str, layer: str, seconds: float) -> Span:
        """A child of ``parent`` known only by its total duration."""
        child = Span(name, layer, parent.cursor, parent, parent.op)
        child.end = child.start + seconds
        child.aggregate = True
        child.thread = parent.thread
        parent.cursor = child.end
        with self._lock:
            self.spans.append(child)
        return child

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span durations minus their direct children's."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += max(0.0, span.duration - children[id(span)])
        return dict(totals)

    def self_shares(self) -> Dict[str, float]:
        totals = self.self_seconds()
        whole = sum(totals.values())
        return {layer: seconds / whole for layer, seconds in totals.items()} if whole else {}

    def write_chrome(self, path: str) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {"op": span.op, "aggregate": span.aggregate},
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _NullRecorder:
    """Spans off: the untraced pass pays one attribute load and a no-op."""

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[int] = None) -> Iterator[None]:
        yield None

    def aggregate(self, parent, name: str, layer: str, seconds: float) -> None:
        return None


NULL_RECORDER = _NullRecorder()
