"""SBI's sorted heap of warp-split contexts: HCT + CCT (paper §3.4).

The **Hot Context Table** holds the two minimum-PC contexts of each
warp — the primary (``CPC1``) and secondary (``CPC2``) warp-splits that
the dual front-end can issue simultaneously.  The **Cold Context
Table** holds the remaining contexts as a sorted list per warp.

Hardware behaviours modelled:

* the HCT sorter sorts/compacts/merges at most three contexts per
  cycle (two hot + one new, since at most one divergence per cycle);
* insertions into the CCT go through an asynchronous *sideband sorter*
  — an inserted context only becomes poppable ``cct_insert_delay``
  cycles later, and insertions serialise (the paper's degraded-stack
  behaviour under pressure shows up as delayed availability);
* when hot slots free up (merge, exit, barrier park), the minimum
  *ready* cold context is popped in;
* two hot contexts whose PCs meet merge — this is also how SBI's
  selective synchronization barrier releases a suspended secondary
  (paper §3.3: "no additional hardware is needed").

The CCT's capacity is not modelled: the cold list grows as it must,
and ``SMConfig.cct_capacity`` moves no statistic.

The selective-synchronization *check* itself lives in the scheduler
(it is an issue-eligibility rule); this module only provides the
context structure.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.timing.divergence import _NEVER, DivergenceModel, Split, by_pc


class SBIModel(DivergenceModel):
    """Dual hot context (HCT) + sorted cold contexts (CCT)."""

    __slots__ = (
        "hot",
        "cold",
        "parked",
        "insert_delay",
        "sideband_busy_until",
        "_dirty",
    )

    hot_capacity = 2

    @classmethod
    def for_config(cls, config, launch_mask: int, lane_perm: Sequence[int]) -> "SBIModel":
        return cls(launch_mask, lane_perm, config.cct_insert_delay)

    def __init__(
        self, launch_mask: int, lane_perm: Sequence[int], insert_delay: int = 2
    ) -> None:
        super().__init__(launch_mask, lane_perm)
        self.hot: List[Split] = [Split(0, launch_mask, self.lane_perm)]
        self.cold: List[Split] = []
        self.parked: List[Split] = []
        self.insert_delay = insert_delay
        self.sideband_busy_until = 0
        # Settle gating: ``_dirty`` is raised by every mutation and
        # ``_settle_wake`` is the earliest cycle a sideband insertion
        # joins the sorted order — between those events a settle is a
        # no-op, so the (hot) read path skips it entirely.
        self._dirty = True
        self._settle_wake = 0

    def _touch(self) -> None:
        self._dirty = True
        super()._touch()

    # -- views -----------------------------------------------------------

    def hot_splits(self, now: int) -> List[Split]:
        if self._dirty or now >= self._settle_wake:
            self._settle(now)
        return self.hot

    def all_splits(self) -> Iterable[Split]:
        yield from self.hot
        yield from self.cold
        yield from self.parked

    # -- HCT/CCT mechanics --------------------------------------------------

    def _settle(self, now: int) -> None:
        """Restore the sorted-heap invariant over hot + sorted cold.

        The HCT sorter + CCT sorter together expose the two minimum-PC
        contexts and *compact* contexts whose PCs meet (paper Figure 5:
        "sort + compact", "merge").  Entries still travelling through
        the sideband sorter (``ready_at > now``) cannot be promoted or
        merged yet; in-flight (pending) contexts are frozen.

        With the CCT empty and the hot pair absent, single or strictly
        PC-ordered the walk below would rebuild the state it found:
        that case — every advance of a converged warp — returns at once.
        """
        old_hot = self.hot
        if not self.cold and (
            # At most two contexts are hot when a settle starts.
            not old_hot
            or old_hot[0] is old_hot[-1]
            or old_hot[0].pc < old_hot[-1].pc
        ):
            self._dirty = False
            self._settle_wake = _NEVER
            self._hot_cache = old_hot
            return
        pool = list(old_hot)
        settled_cold = []
        for s in self.cold:
            if s.ready_at <= now:
                pool.append(s)
            else:
                settled_cold.append(s)
        pool.sort(key=by_pc)
        merged: List[Split] = []
        merges_before = self.merge_count
        for s in pool:
            last = merged[-1] if merged else None
            if (
                last is not None
                and last.pc == s.pc
                and not last.pending
                and not s.pending
            ):
                self._fold(last, s)
            else:
                merged.append(s)
        self.hot = merged[:2]
        self.cold = merged[2:] + settled_cold
        if self.merge_count != merges_before or self.hot != old_hot:
            # State changes happen on the read path too: a merge, or a
            # cold context waking through the sideband sorter and
            # (re)ordering the hot pair.  Verdicts, wake cache and slot
            # view must see it: counters move, the change hook fires.
            self.version += 1
            self.slot_version += 1
            cb = self.on_change
            if cb is not None:
                cb()
        self._dirty = False
        wake = None
        for s in self.cold:
            r = s.ready_at
            if r > now and (wake is None or r < wake):
                wake = r
        self._settle_wake = wake if wake is not None else _NEVER
        # With nothing in the sideband sorter the hot pair reads the
        # same at any cycle until the next mutation.
        self._hot_cache = self.hot if wake is None else None

    def _insert_cold(self, split: Split, now: int) -> None:
        """Sideband-sorter insertion: the entry is stored immediately
        but joins the sorted order ``insert_delay`` cycles later (while
        unsorted it cannot be promoted — the paper's degraded window)."""
        self._touch()
        start = max(now, self.sideband_busy_until)
        split.ready_at = start + self.insert_delay
        self.sideband_busy_until = split.ready_at
        self.cold.append(split)

    def _place(self, split: Split, now: int) -> None:
        """HCT sorter: keep the two minimum contexts hot, spill the max."""
        self.hot.append(split)
        self.hot.sort(key=by_pc)
        if len(self.hot) > 2:
            spill = self.hot.pop()  # maximum PC
            self._insert_cold(spill, now)
        self._settle(now)

    # -- mutation ----------------------------------------------------------

    def branch(
        self,
        split: Split,
        taken_mask: int,
        target_pc: int,
        reconv_pc: Optional[int],
        now: int,
    ) -> bool:
        sibling = self._split_off(split, taken_mask, target_pc)
        if sibling is None:
            self._moved()
            self._settle(now)
            return False
        self._place(sibling, now)
        return True

    def advance(self, split: Split, now: int) -> None:
        # _moved() in this frame; nothing cold, hot pair in PC order: no settle.
        self.version += 1
        cb = self.on_change
        if cb is not None:
            cb()
        split.pc += 1
        hot = self.hot
        if self._dirty or self.cold or hot[0] is not hot[-1] and hot[0].pc >= hot[-1].pc:
            self._settle(now)

    def exit_threads(self, split: Split, mask: int, now: int) -> None:
        super().exit_threads(split, mask, now)
        if not split.mask:
            if split in self.hot:
                self.hot.remove(split)
            elif split in self.cold:
                self.cold.remove(split)
        self._settle(now)

    def park(self, split: Split, now: int) -> None:
        super().park(split, now)
        self.hot.remove(split)
        self.parked.append(split)
        self._settle(now)

    def unpark_all(self, now: int) -> None:
        parked = self.parked
        self._release(parked)
        self.cold += parked  # rejoin through the heap
        parked.clear()
        self._settle(now)
