"""Cycle-level observer hooks.

An :class:`Observer` attaches to a simulation
(``simulate(..., observers=[...])`` or
``simulate_device(..., observers=[...])``) and receives typed
events as the machine runs:

* :class:`IssueEvent` — every instruction issue (cycle, warp, PC,
  issue origin, thread mask, execution group);
* :class:`RetireEvent` — a warp finished;
* :class:`SplitEvent` — a divergent branch created a new warp-split;
* :class:`MemEvent` — L1 misses (per SM) and L2 misses (per device).

Observers are pure listeners: the pipeline never reads anything back
from them, so attaching one cannot change timing or results.  The SM
skips event construction entirely when no observer is attached, so the
hooks are free in ordinary runs.  The two observers registered here
keep every event they see, so they live beside the hooks, not in
:mod:`repro.analytics` (whose aggregators hold bounded state):
:class:`IssueTrace` records each issue (the Figure 2 machinery of
:mod:`repro.analysis.pipeline_trace`) and :class:`EventCounter` is a
minimal reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.policy.events import (
    KIND_ISSUE,
    KIND_L1_MISS,
    KIND_L2_MISS,
    KIND_RETIRE,
    KIND_SPLIT,
)
from repro.core.policy.registry import Registry


@dataclass(frozen=True)
class IssueEvent:
    """One instruction issue."""

    cycle: int
    sm_id: int
    wid: int
    pc: int
    origin: str  # "primary" | "sbi" | "swi"
    mask: int
    group: str
    active: int


@dataclass(frozen=True)
class RetireEvent:
    """One warp retired (all of its threads exited)."""

    cycle: int
    sm_id: int
    wid: int
    cta: int


@dataclass(frozen=True)
class SplitEvent:
    """A divergent branch split one warp-split in two."""

    cycle: int
    sm_id: int
    wid: int
    pc: int
    live_splits: int


@dataclass(frozen=True)
class MemEvent:
    """Cache misses observed this cycle (``level`` is "l1" or "l2")."""

    cycle: int
    sm_id: int
    level: str
    count: int


class Observer:
    """Base class: override any subset of the hooks."""

    def on_issue(self, event: IssueEvent) -> None:
        pass

    def on_retire(self, event: RetireEvent) -> None:
        pass

    def on_split(self, event: SplitEvent) -> None:
        pass

    def on_l1_miss(self, event: MemEvent) -> None:
        pass

    def on_l2_miss(self, event: MemEvent) -> None:
        pass

    def finalize(self, stats: object) -> None:
        """Called once after the run with the final stats object
        (``Stats`` for one SM, ``DeviceStats`` for a device run).
        Streaming aggregators close out their last open interval
        here; the default is a no-op so plain listeners need not
        care."""
        pass


#: Observer registry (name -> Observer subclass).  Entries are
#: *classes*; callers instantiate per run.
OBSERVERS: Registry = Registry("observer")


@OBSERVERS.register("counter")
class EventCounter(Observer):
    """Counts events by kind and records the unified (kind, cycle)
    sequence — the reference observer used by the event-ordering
    tests."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.sequence: List[Tuple[str, int]] = []

    def _record(self, kind: str, cycle: int) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sequence.append((kind, cycle))

    def on_issue(self, event: IssueEvent) -> None:
        self._record(KIND_ISSUE, event.cycle)

    def on_retire(self, event: RetireEvent) -> None:
        self._record(KIND_RETIRE, event.cycle)

    def on_split(self, event: SplitEvent) -> None:
        self._record(KIND_SPLIT, event.cycle)

    def on_l1_miss(self, event: MemEvent) -> None:
        self.counts[KIND_L1_MISS] = self.counts.get(KIND_L1_MISS, 0) + event.count
        self.sequence.append((KIND_L1_MISS, event.cycle))

    def on_l2_miss(self, event: MemEvent) -> None:
        self.counts[KIND_L2_MISS] = self.counts.get(KIND_L2_MISS, 0) + event.count
        self.sequence.append((KIND_L2_MISS, event.cycle))


#: One trace record: (cycle, warp id, pc, origin, mask, group name).
IssueRecord = Tuple[int, int, int, str, int, str]


@OBSERVERS.register("issue_trace")
class IssueTrace(Observer):
    """Records every issue as a trace tuple."""

    def __init__(self) -> None:
        self.events: List[IssueRecord] = []

    def on_issue(self, event: IssueEvent) -> None:
        self.events.append(
            (event.cycle, event.wid, event.pc, event.origin, event.mask, event.group)
        )
