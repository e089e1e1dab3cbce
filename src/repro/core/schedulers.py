"""Instruction scheduler policies (the ``SCHEDULERS`` registry).

Built-ins, registered under the names the
:class:`~repro.core.policy.PolicySpec` entries reference:

* ``two_pool`` :class:`BaselineScheduler` — two warp pools (even/odd
  ids), each issuing its oldest ready instruction per cycle (paper
  section 2).
* ``single_issue`` :class:`Warp64Scheduler` — single pool, single
  issue (the "Warp 64" thread-frontier reference of Figure 7).
* ``sbi_dual`` :class:`SBIScheduler` — one warp selected per cycle;
  its ``CPC1`` and ``CPC2`` warp-splits issue simultaneously through
  the dual front-end.  Enforces the selective synchronization barrier
  and the one-divergence-per-cycle HCT restriction.
* ``cascaded`` :class:`CascadedScheduler` — SWI and SBI+SWI: a primary
  pick spends one extra pipeline stage (Table 2's 2-cycle scheduler
  latency) during which the secondary scheduler fills the remaining
  lanes — from the same warp's ``CPC2`` (SBI+SWI) or from another warp
  whose lane mask fits (best-fit, pseudo-random tie-break,
  set-associative candidate window).  Conflicts between the two
  decoupled pickers are detected a posteriori and the primary copy is
  discarded, as in the paper (section 4).
* ``cascaded_greedy`` :class:`GreedyCascadedScheduler` — the cascaded
  machine with a deterministic greedy-then-oldest secondary arbiter.
* ``cascaded_rr`` :class:`LooseRoundRobinScheduler` — the cascaded
  machine with a loose-round-robin primary warp arbiter.

Custom schedulers subclass any of these (the extension hooks are
:meth:`CascadedScheduler._secondary_key` and
:meth:`CascadedScheduler._pick_primary`) and register under a new
name; a :class:`~repro.core.policy.PolicySpec` then makes them
selectable by mode string everywhere.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.core.policy import SCHEDULERS
from repro.core.policy.events import ORIGIN_PRIMARY, ORIGIN_SBI, ORIGIN_SWI
from repro.core.sm import IssueRecord, StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.timing.divergence import Split
from repro.timing.fetch import IBufEntry
from repro.timing.masks import popcount

#: Candidate tuple: (age key, warp, slot, split, entry).
Candidate = Tuple[Tuple[int, int], TimingWarp, int, Split, IBufEntry]

#: Stall-memo retry sentinel: blocked until a generation counter moves.
_NEVER = 1 << 62


class SchedulerBase:
    """Shared readiness checks and pseudo-random tie-breaking."""

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        self.sm = sm
        self.config = sm.config
        self._rand_state = sm.config.seed & 0x7FFFFFFF or 1

    def tick(self, now: int) -> int:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _rand(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state

    def _ready_entry(
        self, warp: TimingWarp, slot: int, split: Split, now: int
    ) -> Optional[IBufEntry]:
        """Decoded, fresh, hazard-free instruction for this slot.

        Negative verdicts are memoized as an absolute stall cycle per
        hot slot (``warp.stall0``/``stall1``): the slot has no ready
        instruction before that cycle.  Every event that could wake the
        slot clears the field at its source — divergence-model changes
        via the model's ``on_change`` hook, scoreboard add/release and
        buffer fill/consume at their SM/fetch call sites — and purely
        time-gated stalls (decode delay, branch redirect) record their
        retry cycle.  Stalls are additionally capped at the model's
        ``_settle_wake`` so SBI's read-path settling (a sideband
        promotion re-ordering the hot pair with no mutation in between)
        is re-observed the cycle it can first happen.
        """
        if now < (warp.stall0 if slot == 0 else warp.stall1):
            return None
        retry = _NEVER
        entry = None
        if split.parked or split.pending:
            pass  # suspended or frozen: wait for a model mutation
        elif split.redirect_ready_at > now:
            retry = split.redirect_ready_at  # branch still resolving
        else:
            # Inlined FetchEngine.entry_for over the warp-bound ways
            # (PC tags are unique per buffer, so the first match is
            # the only one; if it is still decoding, its ready time
            # is the retry cycle).
            pc = split.pc
            for e in warp.ibuf:
                if e is not None and e.pc == pc:
                    if e.ready_at <= now:
                        entry = e
                    else:
                        retry = e.ready_at
                    break
        if entry is None:
            wake = warp.model._settle_wake
            if retry > wake:
                retry = wake
            if slot == 0:
                warp.stall0 = retry
            else:
                warp.stall1 = retry
            return None
        # Scoreboard check with the register-mask prefilter inlined:
        # no in-flight destination overlaps this instruction's
        # read/write set in the common case.
        scoreboard = warp.scoreboard
        instr = entry.instr
        if scoreboard._dst_mask & instr.hazard_mask:
            if not scoreboard.can_issue(
                instr, split.mask, slot if slot < 2 else 2
            ):
                entry = None
        elif instr.dst is not None and len(scoreboard.entries) >= scoreboard.capacity:
            entry = None
        if entry is None:
            retry = warp.model._settle_wake
            if slot == 0:
                warp.stall0 = retry
            else:
                warp.stall1 = retry
        return entry

    def _group_free(self, instr: Instruction, split: Split, now: int, co_issue: bool) -> bool:
        return (
            self.sm.backend.pick_group(instr.op_class, now, split.lane_mask, co_issue)
            is not None
        )

    def _sync_blocked(self, warp: TimingWarp, split: Split, instr: Instruction, now: int) -> bool:
        """SBI selective synchronization barrier (paper section 3.3).

        The *secondary* warp-split is suspended at a reconvergence
        marker while ``PCdiv < CPC1 < PCrec``; once ``CPC1`` leaves the
        divergent region (or reaches the marker and merges), it runs.
        """
        if not self.config.sbi_constraints or instr.sync_pcdiv is None:
            return False
        hot = warp.model.hot_splits(now)
        if len(hot) < 2 or hot[1] is not split:
            return False
        cpc1 = hot[0].pc
        if instr.sync_pcdiv < cpc1 < split.pc:
            self.sm.stats.sync_suspensions += 1
            return True
        return False

    def _pick_oldest(self, pool: List[TimingWarp], now: int) -> Optional[Candidate]:
        """Oldest ready CPC1 instruction over ``pool`` whose execution
        group is free this cycle."""
        best: Optional[Candidate] = None
        best_key = None
        ready_entry = self._ready_entry
        pick_group = self.sm.backend.pick_group
        for warp in pool:
            # Stall fast path first: a stalled warp skips even the
            # hot-split probe (safe because stalls are capped at the
            # model's settle wake — see _ready_entry).  ``done`` guards
            # a pool list captured before an earlier issue this cycle
            # retired one of its warps.
            if warp.done or now < warp.stall0:
                continue
            model = warp.model
            hot = model._hot_cache
            if hot is None:
                hot = model.hot_splits(now)
            if not hot:
                continue
            split = hot[0]
            entry = ready_entry(warp, 0, split, now)
            if entry is None:
                continue
            key = (entry.fetch_cycle, warp.wid)
            if best_key is not None and key >= best_key:
                continue
            if pick_group(entry.instr.op_class, now, split.lane_mask, False) is None:
                continue
            best_key = key
            best = (key, warp, 0, split, entry)
        return best


@SCHEDULERS.register("two_pool")
class BaselineScheduler(SchedulerBase):
    """Two independent pools of 32-wide warps, oldest-first."""

    def tick(self, now: int) -> int:
        issued = 0
        for pool in self.sm.live_warps_by_parity():
            best = self._pick_oldest(pool, now)
            if best is None:
                continue
            _, warp, slot, split, entry = best
            record = self.sm.issue(
                warp, slot, split, entry, now, ORIGIN_PRIMARY, co_issue=False
            )
            if record is not None:
                issued += 1
        return issued


@SCHEDULERS.register("single_issue")
class Warp64Scheduler(SchedulerBase):
    """Single pool, one issue per cycle (thread-frontier reference)."""

    def tick(self, now: int) -> int:
        best = self._pick_oldest(self.sm.live_warps(), now)
        if best is None:
            return 0
        _, warp, slot, split, entry = best
        record = self.sm.issue(
            warp, slot, split, entry, now, ORIGIN_PRIMARY, co_issue=False
        )
        return 1 if record is not None else 0


@SCHEDULERS.register("sbi_dual")
class SBIScheduler(SchedulerBase):
    """Dual front-end on one warp: co-issue CPC1 and CPC2 splits."""

    def tick(self, now: int) -> int:
        # Select the warp owning the oldest ready instruction in either slot.
        best: Optional[Candidate] = None
        ready_entry = self._ready_entry
        for warp in self.sm.live_warps():
            if now < warp.stall0 and now < warp.stall1:
                continue
            hot = warp.model.hot_splits(now)
            if len(hot) < 2 and now >= warp.stall1:
                # No secondary context: stall slot 1 so single-split
                # warps take the two-compare fast path above.  A second
                # hot split can only appear through a model change (the
                # on_change hook clears this) or a sideband promotion
                # (capped by the settle wake).
                warp.stall1 = warp.model._settle_wake
            for slot, split in enumerate(hot[:2]):
                entry = ready_entry(warp, slot, split, now)
                if entry is None:
                    continue
                if slot == 1 and self._sync_blocked(warp, split, entry.instr, now):
                    continue
                if not self._group_free(entry.instr, split, now, co_issue=slot == 1):
                    continue
                key = (entry.fetch_cycle, warp.wid)
                if best is None or key < best[0]:
                    best = (key, warp, slot, split, entry)
        if best is None:
            return 0
        warp = best[1]
        issued = 0
        primary: Optional[IssueRecord] = None
        hot = warp.model.hot_splits(now)
        if hot:
            split = hot[0]
            entry = self._ready_entry(warp, 0, split, now)
            if entry is not None:
                primary = self.sm.issue(warp, 0, split, entry, now, ORIGIN_PRIMARY, co_issue=False)
                if primary is not None:
                    issued += 1
        # Secondary front-end: re-read the heap (the primary may have
        # diverged or merged) and issue CPC2 when legal.
        hot = warp.model.hot_splits(now)
        if len(hot) > 1:
            split = hot[1]
            entry = self._ready_entry(warp, 1, split, now)
            if entry is not None and not self._sync_blocked(warp, split, entry.instr, now):
                one_divergence_ok = not (
                    entry.instr.is_branch and primary is not None and primary.diverged
                )
                if one_divergence_ok:
                    origin = ORIGIN_SBI
                    record = self.sm.issue(warp, 1, split, entry, now, origin, co_issue=True)
                    if record is not None:
                        issued += 1
        return issued


@SCHEDULERS.register("cascaded")
class CascadedScheduler(SchedulerBase):
    """SWI / SBI+SWI two-phase scheduler with conflict detection.

    Subclass hooks: :meth:`_pick_primary` chooses the warp whose CPC1
    issues next cycle (oldest-first here), :meth:`_secondary_key`
    ranks same-cycle lane-filling candidates (best-fit with a
    pseudo-random tie-break here, maximising is better).
    """

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        super().__init__(sm)
        self.pending: Optional[Tuple[TimingWarp, Split, IBufEntry]] = None

    # -- picks -----------------------------------------------------------

    def _primary_ready(self, warp: TimingWarp, now: int) -> Optional[Candidate]:
        """This warp's CPC1 as a primary candidate, if eligible."""
        if now < warp.stall0:
            return None
        model = warp.model
        hot = model._hot_cache
        if hot is None:
            hot = model.hot_splits(now)
        if not hot:
            return None
        split = hot[0]
        entry = self._ready_entry(warp, 0, split, now)
        if entry is None:
            return None
        # The group must plausibly be free at the issue stage.
        group = self.sm.backend.pick_group(
            entry.instr.op_class, now, split.lane_mask, co_issue=False
        )
        if group is None and not any(
            g.free_at <= now + 1
            for g in self.sm.backend.candidates(entry.instr.op_class)
        ):
            return None
        return ((entry.fetch_cycle, warp.wid), warp, 0, split, entry)

    def _pick_primary(self, now: int) -> Optional[Candidate]:
        """Oldest ready CPC1 instruction (issues next cycle)."""
        best: Optional[Candidate] = None
        primary_ready = self._primary_ready
        for warp in self.sm.live_warps():
            cand = primary_ready(warp, now)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        return best

    def _secondary_key(
        self, warp: TimingWarp, split: Split, entry: IBufEntry
    ) -> Tuple[int, ...]:
        """Ranking key of one SWI candidate (higher wins): best lane
        fit, pseudo-random among equals (paper section 4)."""
        return (popcount(split.mask), -self._rand())

    def _candidate_warps(self, primary: Optional[IssueRecord]) -> List[TimingWarp]:
        """Set-associative lookup window (paper section 4).

        A ``ways``-entry window of warp ids following the primary's,
        standing in for the banked instruction-buffer sets indexed by
        the primary warp id's low-order bits.  ``None`` = fully
        associative (search everything).
        """
        live = self.sm.live_warps()
        if primary is None or self.config.swi_ways is None:
            return live
        ways = self.config.swi_ways
        count = self.config.warp_count
        window = {(primary.warp.wid + 1 + i) % count for i in range(ways)}
        return [w for w in live if w.wid in window]

    def _pick_secondary(
        self, now: int, primary: Optional[IssueRecord]
    ) -> Optional[Tuple[str, TimingWarp, int, Split, IBufEntry]]:
        # SBI+SWI: prefer the same warp's CPC2 split.
        if primary is not None and self.config.uses_sbi:
            warp = primary.warp
            hot = warp.model.hot_splits(now)
            if len(hot) > 1:
                split = hot[1]
                entry = self._ready_entry(warp, 1, split, now)
                if (
                    entry is not None
                    and not self._sync_blocked(warp, split, entry.instr, now)
                    and not (entry.instr.is_branch and primary.diverged)
                    and self._group_free(entry.instr, split, now, co_issue=True)
                ):
                    return (ORIGIN_SBI, warp, 1, split, entry)
        # SWI: best-fit search over the candidate window.
        if primary is not None:
            self.sm.stats.swi_lookups += 1
        best = None
        best_key = None
        ready_entry = self._ready_entry
        for warp in self._candidate_warps(primary):
            if primary is not None and warp is primary.warp:
                continue
            if now < warp.stall0:
                continue
            model = warp.model
            hot = model._hot_cache
            if hot is None:
                hot = model.hot_splits(now)
            if not hot:
                continue
            split = hot[0]
            entry = ready_entry(warp, 0, split, now)
            if entry is None:
                continue
            if not self._group_free(entry.instr, split, now, co_issue=primary is not None):
                continue
            key = self._secondary_key(warp, split, entry)
            if best_key is None or key > best_key:
                best_key = key
                best = (ORIGIN_SWI if primary is not None else ORIGIN_PRIMARY, warp, 0, split, entry)
        return best

    # -- tick --------------------------------------------------------------

    def tick(self, now: int) -> int:
        issued = 0
        primary_rec: Optional[IssueRecord] = None

        # Issue stage: the primary picked last cycle issues now.
        if self.pending is not None:
            warp, split, entry = self.pending
            if warp.done or split.mask == 0 or split.pc != entry.pc:
                # The split died (merge/exit) or was redirected: void pick.
                split.pending = False
                # Unfreezing re-enables heap merges involving this
                # split: invalidate the model's memoized views.
                warp.model._touch()
                self.pending = None
            elif not warp.scoreboard.can_issue(
                entry.instr, split.mask, warp.model.slot_of(split, now)
            ):
                return 0  # hazard materialised; hold in the issue stage
            else:
                record = self.sm.issue(warp, 0, split, entry, now, ORIGIN_PRIMARY, co_issue=False)
                if record is None:
                    return 0  # structural stall: group still busy
                self.pending = None
                primary_rec = record
                issued += 1

        # Primary pick for the next cycle and secondary pick for this one
        # happen in decoupled schedulers "in parallel" — both observe the
        # same post-primary-issue state and may select the same
        # instruction; the conflict is detected a posteriori and the
        # primary's copy is discarded (paper section 4).
        nxt = self._pick_primary(now)
        secondary = self._pick_secondary(now, primary_rec)
        if secondary is not None and nxt is not None and secondary[4] is nxt[4]:
            self.sm.stats.scheduler_conflicts += 1
            nxt = None
        if nxt is not None:
            # Freeze the picked split before the secondary issues: a merge
            # triggered by that issue must not absorb or grow it while its
            # instruction sits in the scheduler pipeline stage.
            nxt[3].pending = True

        if secondary is not None:
            origin, warp, slot, split, entry = secondary
            record = self.sm.issue(
                warp, slot, split, entry, now, origin, co_issue=primary_rec is not None
            )
            if record is not None:
                issued += 1
                if origin == ORIGIN_SWI:
                    self.sm.stats.swi_hits += 1

        if nxt is not None:
            _, warp, _, split, entry = nxt
            self.pending = (warp, split, entry)
        return issued


class GreedyCascadedScheduler(CascadedScheduler):
    """Cascaded scheduler with a greedy-then-oldest secondary arbiter.

    Where the paper's SWI arbiter breaks best-fit ties pseudo-randomly
    (cheap in hardware), this variant is fully deterministic: widest
    split first, then the *oldest* fetched instruction, then the
    lowest warp id — trading arbiter wiring for starvation-freedom.
    """

    def _secondary_key(
        self, warp: TimingWarp, split: Split, entry: IBufEntry
    ) -> Tuple[int, ...]:
        return (popcount(split.mask), -entry.fetch_cycle, -warp.wid)


class LooseRoundRobinScheduler(CascadedScheduler):
    """Cascaded scheduler with a loose-round-robin primary arbiter.

    Instead of oldest-first, the primary pick rotates: scanning starts
    at the warp after the last picked one and takes the first ready
    CPC1 ("loose" because stalled warps are skipped, as in WaSP-style
    LRR scheduling).  The secondary arbiter is unchanged.
    """

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        super().__init__(sm)
        self._last_wid = -1

    def _pick_primary(self, now: int) -> Optional[Candidate]:
        count = self.config.warp_count
        order = sorted(
            self.sm.live_warps(),
            key=lambda w: (w.wid - self._last_wid - 1) % count,
        )
        for warp in order:
            cand = self._primary_ready(warp, now)
            if cand is not None:
                self._last_wid = warp.wid
                return cand
        return None


SCHEDULERS.register("cascaded_greedy", GreedyCascadedScheduler)
SCHEDULERS.register("cascaded_rr", LooseRoundRobinScheduler)


def make_scheduler(config, sm: StreamingMultiprocessor) -> SchedulerBase:
    """Instantiate the scheduler policy named by ``config.policy``."""
    return SCHEDULERS.get(config.policy.scheduler)(sm)
