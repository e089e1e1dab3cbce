"""repro.analytics — streaming, bounded-memory run analytics.

Online aggregators built on the cycle-level observer hooks
(:mod:`repro.core.policy.observers`).  Each aggregator consumes the
event stream as the machine runs, holds a *fixed* amount of state
(bins and SMs, never cycles or raw events), and produces two outputs:

* :meth:`snapshot` — a JSON-ready dict (what ``repro sweep
  --observations`` writes per cell; schemas documented in README
  "Observability");
* :meth:`render` — a human-readable text table.

Importing this package registers the in-tree aggregators in the
observer registry, so the names work everywhere observers do::

    repro sweep ... --observer timeline --observations obs.json
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
``finalize(stats)`` closes the last open interval after the run.  A
sweep cell with ``origins`` attached is also held to its policy's modeled
front-end width (:func:`repro.hwcost.validate_peak_issue`).
"""

from __future__ import annotations

from typing import Dict, Sequence

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


def make_aggregators(names: Sequence[str]) -> Dict[str, Observer]:
    """Instantiate registered observers by name, each at its own
    defaults (the binned aggregators keep :data:`DEFAULT_BINS`)."""
    return {name: OBSERVERS.get(name)() for name in names}
