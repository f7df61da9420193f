"""Wall-clock spans recorded around calls that cross a layer boundary.

The benchmark times the product from outside: it replaces a bound method
on a live object with a wrapper that records a span and calls through.
Nothing under ``src/`` changes; in-program spans are a later change.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the span that was open on the calling thread when this one started
(``-1`` for a root), and ``request`` is the id the benchmark loop set for the
statement being served, shared by all of that statement's spans.  Spans are
kept in memory and written out once, when the run ends.

Only the client thread is traced (advisor workers and the staleness
monitor are read through the service's own metrics), so one span stack
suffices.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: the layers spans are named after (``<layer>.<call>``), one per module
#: under ``src/repro/`` the benchmark crosses into
LAYERS = ("sql", "core", "optimizer", "stats", "executor", "service")


class Tracer:
    """In-memory span recorder for the single client thread."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.request = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def instrument(self, obj, methods: Dict[str, str]) -> None:
        """Shadow ``obj``'s bound methods with traced ones, in place.

        ``methods`` maps a method name to its span name.  Calls the object
        makes to itself go through the instance attribute too, so they are
        traced as well.
        """
        for method, span in methods.items():
            setattr(obj, method, self.wrap(span, getattr(obj, method)))

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every finished span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s and s[0] == name)

    def self_seconds(self) -> Tuple[Dict[str, float], float]:
        """Per-layer self time and the total time under root spans.

        A span's self time is its duration minus the durations of its
        direct children; on one thread children nest inside their parent
        and do not overlap, so that is the part of the interval no child
        covers.
        """
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span and span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        layers = {layer: 0.0 for layer in LAYERS}
        total = 0.0
        for index, span in enumerate(self.spans):
            if not span:
                continue
            duration = span[2] - span[1]
            layer = span[0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + duration - children[index]
            if span[3] < 0:
                total += duration
        return layers, total

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        finished = [s for s in self.spans if s]
        origin = min((s[1] for s in finished), default=0.0)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if not span:
                    continue
                name, start, end, parent, request = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def median_ms(values: Iterable[float]) -> float:
    """Median of durations in seconds, in milliseconds (0.0 when empty)."""
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def mean_ms(values: Iterable[float]) -> float:
    """Mean of durations in seconds, in milliseconds (0.0 when empty)."""
    values = list(values)
    return statistics.fmean(values) * 1e3 if values else 0.0
