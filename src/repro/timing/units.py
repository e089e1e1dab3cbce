"""SIMD execution groups (paper Figure 1 / Figure 3 back end).

The baseline SM has four groups: two 32-lane MAD groups, one 8-lane
SFU group and one 32-lane LSU.  The 64-wide configurations fuse the
MAD lanes into a single 64-lane group (Figure 3).  A warp instruction
whose width exceeds the group width streams through in *waves*; the
group cannot accept another instruction until its waves drain
(initiation interval = wave count).

Co-issue (the heart of SBI/SWI): up to two instructions may be accepted
by the *same* group in the same cycle when their lane masks are
disjoint — per-lane multiplexers pick instruction I1 or I2 from the
dual broadcast network.  The occupancy is then computed on the union
mask.  The LSU is transaction-serial, so co-issued memory instructions
add their transaction counts instead.

Issue routing is one table: :data:`UNIT_OF` maps an op class to its
*route*, the index of its group list in :attr:`Backend.routes` and of
its slot in :meth:`Backend.free_classes`.  Schedulers resolve it once
per PC and pass it to :meth:`Backend.pick_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.instructions import OpClass
from repro.timing.masks import wave_count

#: Route of an op class: MAD/CTRL (CTRL rides the MAD groups), SFU, LSU.
UNIT_OF = {OpClass.MAD: 0, OpClass.CTRL: 0, OpClass.SFU: 1, OpClass.LSU: 2}


@dataclass(slots=True)
class ExecGroup:
    """One SIMD unit group with an issue port (:meth:`accept` books an
    instruction; whether it *can* issue is :meth:`Backend.pick_group`)."""

    name: str
    kind: OpClass
    width: int
    warp_width: int
    free_at: int = 0
    # Per-cycle co-issue bookkeeping.
    cycle: int = -1
    lane_mask: int = 0
    issue_count: int = 0

    def accept(self, now: int, lane_mask: int) -> int:
        """Issue an instruction; returns its wave count.

        Occupancy is recomputed on the union mask so that a co-issued
        pair costs ``waves(m1 | m2)`` (MAD/SFU) — the LSU overrides
        this with transaction counts via :meth:`hold`.
        """
        if self.cycle != now:
            self.cycle = now
            self.lane_mask = 0
            self.issue_count = 0
        if self.issue_count >= 2:
            raise RuntimeError("more than two instructions on group %s" % self.name)
        if self.issue_count and (self.lane_mask & lane_mask):
            raise RuntimeError("overlapping co-issue on group %s" % self.name)
        self.lane_mask |= lane_mask
        self.issue_count += 1
        if self.width >= self.warp_width:
            # Full-width unit: any mask is a single wave.
            if self.free_at < now + 1:
                self.free_at = now + 1
            return 1
        waves = wave_count(self.lane_mask, self.width, self.warp_width)
        self.free_at = max(self.free_at, now + waves)
        return wave_count(lane_mask, self.width, self.warp_width)

    def hold(self, until: int) -> None:
        """Extend the busy window (LSU transaction replay)."""
        self.free_at = max(self.free_at, until)


class Backend:
    """The SM's set of execution groups, with issue routing: ``routes``
    holds each route's groups (see :data:`UNIT_OF`)."""

    __slots__ = ("config", "groups", "lsu", "sfu", "routes")

    def __init__(self, config) -> None:
        self.config = config
        self.groups: List[ExecGroup] = []
        for i in range(config.mad_group_count):
            self.groups.append(
                ExecGroup("MAD%d" % i, OpClass.MAD, config.warp_width, config.warp_width)
            )
        self.groups.append(
            ExecGroup("SFU", OpClass.SFU, config.sfu_width, config.warp_width)
        )
        self.groups.append(
            ExecGroup("LSU", OpClass.LSU, config.lsu_width, config.warp_width)
        )
        self.lsu = self.groups[-1]
        self.sfu = self.groups[-2]
        self.routes: Tuple[List[ExecGroup], ...] = (
            [g for g in self.groups if g.kind is OpClass.MAD],
            [self.sfu],
            [self.lsu],
        )

    def pick_group(
        self, unit: int, now: int, lane_mask: int, co_issue: bool
    ) -> Optional[ExecGroup]:
        """First group of route ``unit`` (:data:`UNIT_OF`) that can
        accept the instruction this cycle.

        Prefers a completely free group before co-issue sharing, which
        both maximises throughput and keeps baseline (no co-issue)
        behaviour natural.  ``co_issue=True`` permits sharing a group
        with the one instruction it accepted this cycle, provided the
        lane masks are disjoint (dual broadcast limit: two
        instructions per group per cycle).
        """
        options = self.routes[unit]
        for group in options:
            # Accepting pushes ``free_at`` past the cycle: free by now
            # means nothing taken this cycle, stale bookkeeping or not.
            if group.free_at <= now:
                return group
        if co_issue:
            for group in options:
                holds_one = group.issue_count == 1 and group.cycle == now
                if holds_one and not (group.lane_mask & lane_mask):
                    return group
        return None

    def free_classes(
        self, by: int
    ) -> Tuple[Optional[ExecGroup], Optional[ExecGroup], Optional[ExecGroup]]:
        """Per-cycle availability snapshot, indexed by route
        (``MAD/CTRL, SFU, LSU``): the route's first group whose busy
        window ends by cycle ``by``, or None.  With ``by = now`` that is
        what ``pick_group(unit, now, *, co_issue=False)`` answers, so an
        arbiter decides unit availability once per pick instead of once
        per ready warp and hands the winner its group; with ``by = now + 1`` it is the
        cascaded primary's "plausibly free at the issue stage".
        """
        mad = None
        for group in self.routes[0]:
            if group.free_at <= by:
                mad = group
                break
        sfu, lsu = self.sfu, self.lsu
        return mad, sfu if sfu.free_at <= by else None, lsu if lsu.free_at <= by else None

    def next_free_cycle(self, now: int) -> Optional[int]:
        """Earliest future cycle any busy group frees (event skipping)."""
        best = None
        for group in self.groups:
            free_at = group.free_at
            if free_at > now and (best is None or free_at < best):
                best = free_at
        return best
