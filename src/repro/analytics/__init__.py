"""repro.analytics — streaming, bounded-memory run analytics.

Online aggregators built on the cycle-level observer hooks
(:mod:`repro.core.policy.observers`).  Each aggregator consumes the
event stream as the machine runs, holds a *fixed* amount of state
(bins and SMs, never cycles or raw events), and produces two outputs:

* :meth:`snapshot` — a JSON-ready dict (the ``repro analyze --json``
  artifact; schemas documented in README "Observability");
* :meth:`render` — a human-readable text table.

Importing this package registers the in-tree aggregators in the
observer registry, so the names work everywhere observers do::

    repro analyze --workload bfs --config sbi_swi
    repro sweep ... --observer timeline
    Engine(observers=["origins"]).run(spec)

===========  ========================================  ==============
name         what it aggregates                        state
===========  ========================================  ==============
``timeline``  active/stalled/idle warps per cycle bin  O(bins)
``heatmap``   per-SM IPC + issue occupancy grid        O(SMs × bins)
``origins``   issues by origin, peak issues/cycle      O(SMs)
===========  ========================================  ==============

Aggregators see every event exactly once: observed cells always
simulate (the engine bypasses the result cache), and
``finalize(stats)`` closes the last open interval after the run.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional, Sequence

from repro.core.policy.observers import Observer, OBSERVERS

from repro.analytics.binning import BinnedSeries
from repro.analytics.heatmap import HeatmapAggregator
from repro.analytics.origins import OriginAggregator
from repro.analytics.timeline import DEFAULT_BINS, TimelineAggregator

__all__ = [
    "BinnedSeries",
    "DEFAULT_BINS",
    "HeatmapAggregator",
    "OriginAggregator",
    "TimelineAggregator",
    "make_aggregators",
]


def make_aggregators(
    names: Sequence[str], bins: Optional[int] = None
) -> Dict[str, Observer]:
    """Instantiate registered observers by name.

    ``bins`` overrides the bin capacity of aggregators that take one;
    observers without a ``bins`` parameter (e.g. ``counter``,
    ``origins``) are constructed bare.
    """
    out: Dict[str, Observer] = {}
    for name in names:
        cls = OBSERVERS.get(name)
        # Ask, don't try: a TypeError raised *inside* a constructor
        # that does take ``bins`` must not fall back to the default.
        if bins is not None and "bins" in inspect.signature(cls).parameters:
            out[name] = cls(bins=bins)
        else:
            out[name] = cls()
    return out
