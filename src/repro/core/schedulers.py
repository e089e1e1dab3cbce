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

Every policy arbitrates over the SM's **ready set** (see
:class:`SchedulerBase`): candidates are re-derived only for warps a
wake site touched, and a pick walks them in age order against one
unit-availability snapshot.

Custom schedulers subclass any of these (the extension hooks are
:meth:`CascadedScheduler._secondary_key` and
:meth:`CascadedScheduler._pick_primary`) and register under a new
name; a :class:`~repro.core.policy.PolicySpec` then makes them
selectable by mode string everywhere.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction, OpClass
from repro.core.policy import SCHEDULERS
from repro.core.policy.events import ORIGIN_PRIMARY, ORIGIN_SBI, ORIGIN_SWI
from repro.core.sm import IssueRecord, StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.timing.divergence import _NEVER, Split
from repro.timing.fetch import IBufEntry
from repro.timing.masks import popcount
from repro.timing.units import ExecGroup

#: Candidate tuple: (age key, warp, slot, split, entry, unit) — ``unit``
#: indexes :meth:`~repro.timing.units.Backend.free_classes`.  Age keys
#: ``(fetch_cycle, wid)`` are unique per slot, so sorting candidates
#: never compares past ``slot``.
Candidate = Tuple[Tuple[int, int], TimingWarp, int, Split, IBufEntry, int]

#: What a cascaded secondary pick hands the issue stage.
SecondaryPick = Tuple[str, TimingWarp, int, Split, IBufEntry, ExecGroup]

#: ``free_classes`` index of an op class (CTRL rides the MAD groups).
_UNIT_OF = {OpClass.MAD: 0, OpClass.CTRL: 0, OpClass.SFU: 1, OpClass.LSU: 2}


class SchedulerBase:
    """The ready set, its readiness predicate, and the pseudo-random
    tie-break.

    **What is probed when.**  The scheduler keeps, per warp, the
    verdict of the readiness predicate (:meth:`_ready_entry`) for its
    hot slot(s): a :data:`Candidate` in an age-ordered pool
    (``_pools``; ``TimingWarp.cand0``/``cand1`` point at it) or
    nothing.  A verdict is re-derived — :meth:`_probe`, from
    :meth:`_refresh` before each pick — only for warps on the pool's
    ``woken`` list, which :meth:`TimingWarp.wake`/``wake_issue`` feed
    from the wake sites: a divergence-model change (its ``on_change``
    hook — every issue ends in one), a scoreboard release some verdict
    was waiting for (``ScoreboardBase.awaited``), an
    instruction-buffer fill, a CTA launch, a cascaded pick freezing a
    split, and the timed wakes the predicate itself registers for
    verdicts that expire with the clock alone (decode delay, branch
    redirect).  Between wakes a verdict — *yes* as much as *no* —
    cannot change, so a ready warp that loses arbitration costs
    nothing next cycle.

    **The settle-wake cap.**  The SBI heap changes state on its read
    path: a cold context leaving the sideband sorter re-orders the hot
    pair at ``model._settle_wake`` with no mutation in between.  Every
    verdict, yes or no, therefore also registers a timed wake at that
    cycle, so the read-path settle runs on the cycle it first can.

    **Picking.**  A pick walks a pool oldest-first and takes the first
    candidate whose op class has a free unit in the one
    :meth:`~repro.timing.units.Backend.free_classes` snapshot taken
    for that pick; ``pick_group`` then runs once, for the winner, and
    the group goes to :meth:`StreamingMultiprocessor.issue`.
    """

    #: Age-ordered candidate pools; a warp belongs to ``wid % pools``.
    pools = 1

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        self.sm = sm
        self.config = sm.config
        self._rand_state = sm.config.seed & 0x7FFFFFFF or 1
        self._pools: Tuple[List[Candidate], ...] = tuple(
            [] for _ in range(self.pools)
        )
        #: Per pool, the warps whose verdicts must be re-derived before
        #: its next pick.
        self.woken: Tuple[List[TimingWarp], ...] = tuple(
            [] for _ in range(self.pools)
        )
        #: Per PC, a candidate's ``unit`` (resolved at launch).
        self._unit_of = [_UNIT_OF[i.op_class] for i in sm.kernel.program]

    def tick(self, now: int) -> int:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _rand(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state

    def _ready_entry(
        self, warp: TimingWarp, slot: int, split: Split, now: int
    ) -> Optional[IBufEntry]:
        """The readiness predicate: the decoded, fresh, hazard-free
        instruction this slot can issue at ``now``, if any.

        The verdict holds until a wake site touches the warp, except
        that a decode delay or a branch redirect ends with the clock
        alone and the SBI model can re-order the hot pair at its
        settle wake: the earliest of those is registered as a timed
        wake (:meth:`TimingWarp.wake_at`).
        """
        retry = _NEVER
        entry = None
        if split.parked or split.pending:
            pass  # suspended or frozen: wait for a model mutation
        elif split.redirect_ready_at > now:
            retry = split.redirect_ready_at  # branch still resolving
        else:
            # Tag match over the warp-bound buffer ways (PC tags are
            # unique per buffer, so the first match is the only one;
            # if it is still decoding, its ready time is the retry
            # cycle).
            pc = split.pc
            for e in warp.ibuf:
                if e is not None and e.pc == pc:
                    if e.ready_at <= now:
                        entry = e
                    else:
                        retry = e.ready_at
                    break
        if entry is not None:
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
                scoreboard.awaited = True  # a release can turn this verdict
        wake = warp.model._settle_wake
        if wake < retry:
            retry = wake
        if retry < warp.timer:
            warp.wake_at(retry)
        return entry

    def _sync_blocked(self, warp: TimingWarp, split: Split, instr: Instruction, now: int) -> bool:
        """SBI selective synchronization barrier (paper section 3.3).

        The *secondary* warp-split is suspended at a reconvergence
        marker while ``PCdiv < CPC1 < PCrec``; once ``CPC1`` leaves the
        divergent region (or reaches the marker and merges), it runs.
        Callers count ``sync_suspensions``: one per ready secondary
        found suspended, per look, per cycle.
        """
        if not self.config.sbi_constraints or instr.sync_pcdiv is None:
            return False
        hot = warp.model._hot_cache or warp.model.hot_splits(now)
        if len(hot) < 2 or hot[1] is not split:
            return False
        return instr.sync_pcdiv < hot[0].pc < split.pc

    # -- the ready set -----------------------------------------------------

    def _probe(self, warp: TimingWarp, now: int) -> None:
        """Re-derive and record one woken warp's slot-0 verdict."""
        cand = None
        if not warp.done:
            model = warp.model
            hot = model._hot_cache or model.hot_splits(now)
            if hot:
                split = hot[0]
                entry = self._ready_entry(warp, 0, split, now)
                if entry is not None:
                    cand = warp.cand0
                    if cand is None or cand[4] is not entry or cand[3] is not split:
                        age = (entry.fetch_cycle, warp.wid)
                        cand = (age, warp, 0, split, entry, self._unit_of[entry.pc])
            else:
                # Nothing hot yet: a cold context may be promoted.
                warp.wake_at(model._settle_wake)
        old = warp.cand0
        if cand is not old:
            pool = self._pools[warp.wid % self.pools]
            if old is not None:
                pool.remove(old)
            if cand is not None:
                insort(pool, cand)
            warp.cand0 = cand
        warp.issue_woken = False

    def _refresh(self, now: int, index: int = 0) -> None:
        """Bring pool ``index`` of the ready set up to date: one
        readiness pass over its warps woken since the last one (a pick
        reads one pool; another pool's woken warps wait for its pick,
        by when the fetch after an issue has usually landed too)."""
        woken = self.woken[index]
        probe = self._probe
        for warp in woken:
            probe(warp, now)
        del woken[:]

    def _pick_oldest(self, index: int, now: int) -> Optional[Candidate]:
        """Oldest ready instruction in pool ``index`` whose execution
        unit is free this cycle."""
        if self.woken[index]:
            self._refresh(now, index)
        pool = self._pools[index]
        if pool:
            free = self.sm.backend.free_classes(now)
            for cand in pool:
                if free[cand[5]]:
                    return cand
        return None


@SCHEDULERS.register("two_pool")
class BaselineScheduler(SchedulerBase):
    """Two independent pools of 32-wide warps (even/odd ids),
    oldest-first."""

    pools = 2

    def tick(self, now: int) -> int:
        issued = 0
        sm = self.sm
        for index in range(self.pools):
            best = self._pick_oldest(index, now)
            if best is None:
                continue
            _, warp, slot, split, entry, _ = best
            group = sm.backend.pick_group(
                entry.instr.op_class, now, split.lane_mask, False
            )
            sm.issue(warp, slot, split, entry, now, ORIGIN_PRIMARY, group)
            issued += 1
        return issued


@SCHEDULERS.register("single_issue")
class Warp64Scheduler(SchedulerBase):
    """Single pool, one issue per cycle (thread-frontier reference)."""

    def tick(self, now: int) -> int:
        best = self._pick_oldest(0, now)
        if best is None:
            return 0
        _, warp, slot, split, entry, _ = best
        sm = self.sm
        group = sm.backend.pick_group(
            entry.instr.op_class, now, split.lane_mask, False
        )
        sm.issue(warp, slot, split, entry, now, ORIGIN_PRIMARY, group)
        return 1


@SCHEDULERS.register("sbi_dual")
class SBIScheduler(SchedulerBase):
    """Dual front-end on one warp: co-issue CPC1 and CPC2 splits.

    The pool holds both hot slots' candidates; a ready CPC2 held by
    the selective synchronization barrier stays out of it and is
    counted in ``_suspended`` instead.
    """

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        super().__init__(sm)
        self._suspended = 0

    def _probe(self, warp: TimingWarp, now: int) -> None:
        """Re-derive and record both hot slots' verdicts."""
        pool = self._pools[0]
        if warp.cand0 is not None:
            pool.remove(warp.cand0)
        if warp.suspended:
            self._suspended -= 1
        elif warp.cand1 is not None:
            pool.remove(warp.cand1)
        cand0 = cand1 = None
        suspended = False
        if not warp.done:
            model = warp.model
            hot = model._hot_cache or model.hot_splits(now)
            if hot:
                split = hot[0]
                entry = self._ready_entry(warp, 0, split, now)
                if entry is not None:
                    age = (entry.fetch_cycle, warp.wid)
                    cand0 = (age, warp, 0, split, entry, self._unit_of[entry.pc])
                    insort(pool, cand0)
                if len(hot) > 1:
                    split = hot[1]
                    entry = self._ready_entry(warp, 1, split, now)
                    if entry is not None:
                        age = (entry.fetch_cycle, warp.wid)
                        cand1 = (age, warp, 1, split, entry, self._unit_of[entry.pc])
                        suspended = self._sync_blocked(warp, split, entry.instr, now)
                        if suspended:
                            self._suspended += 1
                        else:
                            insort(pool, cand1)
            else:
                # Nothing hot yet: a cold context may be promoted.
                warp.wake_at(model._settle_wake)
        warp.cand0 = cand0
        warp.cand1 = cand1
        warp.suspended = suspended
        warp.issue_woken = False

    def tick(self, now: int) -> int:
        # Select the warp owning the oldest ready instruction in either slot.
        sm = self.sm
        best = self._pick_oldest(0, now)
        stats = sm.stats
        stats.sync_suspensions += self._suspended
        if best is None:
            return 0
        warp = best[1]
        pick_group = sm.backend.pick_group
        issued = 0
        diverged = False
        # Primary front-end: nothing moved since the readiness pass.
        cand = warp.cand0
        if cand is not None:
            split, entry = cand[3], cand[4]
            group = pick_group(entry.instr.op_class, now, split.lane_mask, False)
            if group is not None:
                diverged = sm.issue(warp, 0, split, entry, now, ORIGIN_PRIMARY, group)
                issued = 1
        # Secondary front-end: re-read the heap (the primary may have
        # diverged or merged) and issue CPC2 when legal.
        hot = warp.model._hot_cache or warp.model.hot_splits(now)
        if len(hot) > 1:
            split = hot[1]
            entry = self._ready_entry(warp, 1, split, now)
            if entry is not None:
                instr = entry.instr
                if self._sync_blocked(warp, split, instr, now):
                    stats.sync_suspensions += 1
                elif not (instr.is_branch and diverged):  # one divergence per cycle
                    group = pick_group(instr.op_class, now, split.lane_mask, True)
                    if group is not None:
                        sm.issue(warp, 1, split, entry, now, ORIGIN_SBI, group)
                        issued += 1
        return issued


@SCHEDULERS.register("cascaded")
class CascadedScheduler(SchedulerBase):
    """SWI / SBI+SWI two-phase scheduler with conflict detection.

    Subclass hooks: :meth:`_pick_primary` chooses the warp whose CPC1
    issues next cycle (oldest-first here), :meth:`_secondary_key`
    ranks same-cycle lane-filling candidates (best-fit with a
    pseudo-random tie-break here, maximising is better).  Both pickers
    read the one readiness pass :meth:`tick` runs after its issue
    stage (``self._pools[0]``, oldest first).
    """

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        super().__init__(sm)
        self.pending: Optional[Tuple[TimingWarp, Split, IBufEntry]] = None
        self._uses_sbi = sm.config.uses_sbi

    # -- picks -----------------------------------------------------------

    def _pick_primary(self, now: int) -> Optional[Candidate]:
        """Oldest ready CPC1 instruction (issues next cycle) whose
        unit is plausibly free at the issue stage."""
        pool = self._pools[0]
        if pool:
            free = self.sm.backend.free_classes(now + 1)
            for cand in pool:
                if free[cand[5]]:
                    return cand
        return None

    def _secondary_key(
        self, warp: TimingWarp, split: Split, entry: IBufEntry
    ) -> Tuple[int, ...]:
        """Ranking key of one SWI candidate (higher wins): best lane
        fit, pseudo-random among equals (paper section 4)."""
        return (popcount(split.mask), -self._rand())

    def _pick_secondary(
        self, now: int, primary: Optional[IssueRecord]
    ) -> Optional[SecondaryPick]:
        pick_group = self.sm.backend.pick_group
        stats = self.sm.stats
        # SBI+SWI: prefer the same warp's CPC2 split.
        if primary is not None and self._uses_sbi:
            warp = primary.warp
            hot = warp.model._hot_cache or warp.model.hot_splits(now)
            if len(hot) > 1:
                split = hot[1]
                entry = self._ready_entry(warp, 1, split, now)
                if entry is not None:
                    instr = entry.instr
                    if self._sync_blocked(warp, split, instr, now):
                        stats.sync_suspensions += 1
                    elif not (instr.is_branch and primary.diverged):
                        group = pick_group(instr.op_class, now, split.lane_mask, True)
                        if group is not None:
                            return (ORIGIN_SBI, warp, 1, split, entry, group)
        # SWI: best-fit search over the candidate window.
        co_issue = primary is not None
        skip = taken = window = None
        if primary is not None:
            stats.swi_lookups += 1
            skip = primary.warp
            taken = primary.lane_mask
            ways = self.config.swi_ways
            if ways is not None:
                # Set-associative lookup (paper section 4): a
                # ``ways``-entry window of warp ids following the
                # primary's, standing in for the banked
                # instruction-buffer sets indexed by the primary warp
                # id's low-order bits.  None = fully associative.
                count = self.config.warp_count
                window = {(skip.wid + 1 + i) % count for i in range(ways)}
        pool = self._pools[0]
        if not pool:
            return None
        free = self.sm.backend.free_classes(now)
        eligible = []
        for cand in pool:
            warp = cand[1]
            if warp is skip or (window is not None and warp.wid not in window):
                continue
            if not free[cand[5]]:
                # No unit to itself: it can only share the group the
                # primary took this cycle, on disjoint lanes.
                if taken is None:
                    continue
                lanes = cand[3].lane_mask
                if lanes & taken or pick_group(
                    cand[4].instr.op_class, now, lanes, True
                ) is None:
                    continue
            eligible.append((warp.wid, cand))
        # Ranked in warp-id order, the order the tie-break's
        # pseudo-random draws are consumed in.
        eligible.sort()
        best = None
        best_key = None
        for _, cand in eligible:
            key = self._secondary_key(cand[1], cand[3], cand[4])
            if best_key is None or key > best_key:
                best_key = key
                best = cand
        if best is None:
            return None
        split, entry = best[3], best[4]
        group = pick_group(entry.instr.op_class, now, split.lane_mask, co_issue)
        origin = ORIGIN_SWI if co_issue else ORIGIN_PRIMARY
        return (origin, best[1], 0, split, entry, group)

    # -- tick --------------------------------------------------------------

    def tick(self, now: int) -> int:
        issued = 0
        primary: Optional[IssueRecord] = None
        sm = self.sm

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
            else:
                # The context slot the split stands in by now (it was
                # CPC1 when picked): the scoreboard's view of it.
                slot = warp.model.slot_of(split, now)
                if not warp.scoreboard.can_issue(entry.instr, split.mask, slot):
                    return 0  # hazard materialised; hold in the issue stage
                lanes = split.lane_mask
                group = sm.backend.pick_group(entry.instr.op_class, now, lanes, False)
                if group is None:
                    return 0  # structural stall: group still busy
                diverged = sm.issue(warp, slot, split, entry, now, ORIGIN_PRIMARY, group)
                self.pending = None
                primary = IssueRecord(warp, lanes, diverged)
                issued += 1

        # Primary pick for the next cycle and secondary pick for this one
        # happen in decoupled schedulers "in parallel" — both observe the
        # same post-primary-issue state (one readiness pass) and may
        # select the same instruction; the conflict is detected a
        # posteriori and the primary's copy is discarded (paper section 4).
        if self.woken[0]:
            self._refresh(now)
        nxt = self._pick_primary(now)
        secondary = self._pick_secondary(now, primary)
        if secondary is not None and nxt is not None and secondary[4] is nxt[4]:
            sm.stats.scheduler_conflicts += 1
            nxt = None
        if nxt is not None:
            # Freeze the picked split before the secondary issues: a merge
            # triggered by that issue must not absorb or grow it while its
            # instruction sits in the scheduler pipeline stage.  Frozen,
            # it is no candidate either: its verdict must be re-derived.
            nxt[3].pending = True
            nxt[1].wake_issue()

        if secondary is not None:
            origin, warp, slot, split, entry, group = secondary
            sm.issue(warp, slot, split, entry, now, origin, group)
            issued += 1
            if origin == ORIGIN_SWI:
                sm.stats.swi_hits += 1

        if nxt is not None:
            self.pending = (nxt[1], nxt[3], nxt[4])
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
        first = self._last_wid + 1
        free = self.sm.backend.free_classes(now + 1)
        best = None
        best_turn = count
        for cand in self._pools[0]:
            if free[cand[5]]:
                turn = (cand[1].wid - first) % count
                if turn < best_turn:
                    best_turn = turn
                    best = cand
        if best is not None:
            self._last_wid = best[1].wid
        return best


SCHEDULERS.register("cascaded_greedy", GreedyCascadedScheduler)
SCHEDULERS.register("cascaded_rr", LooseRoundRobinScheduler)


def make_scheduler(config, sm: StreamingMultiprocessor) -> SchedulerBase:
    """Instantiate the scheduler policy named by ``config.policy``."""
    return SCHEDULERS.get(config.policy.scheduler)(sm)
