"""In-memory span recorder for the traced benchmark run.

Spans are opened by the harness around calls *into* a layer — never
from inside ``src/`` — so the end-to-end numbers (taken with no
recorder at all) and the traced numbers come from the same program.
Each span is ``(id, name, start, end, parent, sweep)``; a layer's self
time is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Dict[str, object]


class Recorder:
    """Collects spans from any number of threads.

    Each thread keeps its own open-span stack, so concurrent sweeps
    (``served_sweep`` runs two client threads) nest correctly.  A
    top-level span starts a new *sweep*; every span below it carries
    that sweep id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweeps = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack: List[Span] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                self._sweeps += 1
                sweep = self._sweeps
            else:
                sweep = parent["sweep"]
            record: Span = {
                "id": len(self.spans),
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": None if parent is None else parent["id"],
                "sweep": sweep,
            }
            self.spans.append(record)
        stack.append(record)
        record["start"] = self._clock()
        try:
            yield record
        finally:
            record["end"] = self._clock()
            stack.pop()

    def wrap(
        self, name: str, fn: Callable, note: Optional[Callable[[object], object]] = None
    ) -> Callable:
        """``fn`` with a span of ``name`` around every call; ``note``
        maps the return value to a count-like fact kept on the span
        (e.g. whether a cache load hit)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    record["note"] = note(result)
                return result

        return traced


@contextlib.contextmanager
def patched(module: object, wrappers: Dict[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Replace ``module.<attr>`` by ``wrappers[attr](original)`` while
    the block runs, restoring the originals afterwards."""
    originals = {attr: getattr(module, attr) for attr in wrappers}
    try:
        for attr, wrapper in wrappers.items():
            setattr(module, attr, wrapper(originals[attr]))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(module, attr, fn)


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> self time: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def totals_by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``name -> {"count", "total_s", "self_s"}`` over all spans."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return out


def span_or_null(recorder: Optional[Recorder], name: str):
    """A span on ``recorder``, or a no-op context when tracing is off."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()
