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
from operator import itemgetter
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.core.policy import SCHEDULERS
from repro.core.policy.events import ORIGIN_PRIMARY, ORIGIN_SBI, ORIGIN_SWI
from repro.core.sm import StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.timing.divergence import Split
from repro.timing.fetch import IBufEntry
from repro.timing.masks import popcount
from repro.timing.units import UNIT_OF, ExecGroup

#: Candidate tuple: (fetch cycle, wid, slot, warp, split, entry, unit)
#: — ``unit`` is the instruction's route (:data:`~repro.timing.units.UNIT_OF`):
#: it indexes :meth:`~repro.timing.units.Backend.free_classes` and is
#: what :meth:`~repro.timing.units.Backend.pick_group` takes.
#: The leading ``(fetch_cycle, wid, slot)`` is the age order, unique per
#: candidate, so sorting never compares past ``slot``.
Candidate = Tuple[int, int, int, TimingWarp, Split, IBufEntry, int]

#: What a cascaded secondary pick hands the issue stage.
SecondaryPick = Tuple[str, TimingWarp, int, Split, IBufEntry, ExecGroup]

#: Warp-id order of candidates.
_by_wid = itemgetter(1)


class SchedulerBase:
    """The ready set and its readiness predicate.

    **What is probed when.**  The scheduler keeps, per warp, the
    verdict of the readiness predicate (:meth:`_ready_entry`) for its
    hot slot(s): a :data:`Candidate` in an age-ordered pool
    (``_pools``; ``TimingWarp.cand0``/``cand1`` point at it) or
    nothing.  A verdict is re-derived — by :meth:`_refresh`, before
    each pick — only for warps on the pool's ``woken`` list, which
    :meth:`TimingWarp.wake`/``wake_issue`` feed from the wake sites: a
    divergence-model change (its ``on_change`` hook — every issue ends
    in one), a release of a refusal the scoreboard could not keep, a
    slot-1 fill, a CTA launch, and the timed wakes the predicate
    itself registers for verdicts that expire with the clock alone
    (decode delay, branch redirect).  Between wakes a verdict — *yes*
    as much as *no* — cannot change, so a ready warp that loses
    arbitration costs nothing next cycle.

    **What is not probed.**  The candidate a pick issues, or freezes
    for the cascaded issue stage, is *no* from there on: :meth:`tick`
    drops it.  A warp whose buffer ways are all empty matches no tag
    until a fill: :meth:`TimingWarp.wake` leaves its issue side alone.
    A slot-0 fill is the verdict (see ``FetchEngine.tick``): a *no*
    the scoreboard keeps (``refused``), the release re-checking it
    alone while the model is as it was, or a *yes* from the next cycle
    (:meth:`TimingWarp.ready`), as is such a release's.  SBI's slot-1
    verdict survives its primary's issue unless the hot pair moved:
    only the scoreboard entry that issue added is re-checked.

    **The settle-wake cap.**  The SBI heap changes state on its read
    path: a cold context leaving the sideband sorter re-orders the hot
    pair at ``model._settle_wake`` with no mutation in between.  Every
    verdict, yes or no, therefore also registers a timed wake at that
    cycle (for a warp left unprobed, the fetch engine's visit does),
    so the read-path settle runs on the cycle it first can.

    **Picking.**  A pick walks a pool oldest-first and takes the first
    candidate whose op class has a free unit in the one
    :meth:`~repro.timing.units.Backend.free_classes` snapshot taken
    for that pick; the snapshot names the group, which goes to
    :meth:`StreamingMultiprocessor.issue` with the winner.
    """

    #: Age-ordered candidate pools; a warp belongs to ``wid % pools``.
    pools = 1
    #: Instructions the policy may issue per cycle: what
    #: ``SMConfig.issue_width`` / ``peak_ipc`` and the cost model's
    #: front-end width read (through ``PolicySpec.issue_width``).
    issue_width = 2
    #: Whether the readiness pass records slot-1 verdicts too.
    _slot1 = False

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        self.sm = sm
        self.config = sm.config
        self._pools: Tuple[List[Candidate], ...] = tuple(
            [] for _ in range(self.pools)
        )
        #: Per pool, the warps whose verdicts must be re-derived before
        #: its next pick.
        self.woken: Tuple[List[TimingWarp], ...] = tuple(
            [] for _ in range(self.pools)
        )
        #: Per PC, a candidate's ``unit`` (resolved at launch).
        self._unit_of = [UNIT_OF[i.op_class] for i in sm.kernel.program]
        #: Slot-1 candidates the barrier holds out of the pool.
        self._suspended = 0

    def tick(self, now: int) -> int:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

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
        retry = warp.model._settle_wake  # or what ends before it
        entry = None
        if split.parked or split.pending:
            pass  # suspended or frozen: wait for a model mutation
        elif split.redirect_ready_at > now:
            if split.redirect_ready_at < retry:
                retry = split.redirect_ready_at  # branch still resolving
        else:
            # Tag match over the warp-bound buffer ways (PC tags are
            # unique per buffer, so the first match is the only one;
            # if it is still decoding, its ready time is the retry
            # cycle).
            pc = split.pc
            for e in warp.ibuf:
                if e is not None and e.pc == pc:
                    if e.fetch_cycle < now:
                        entry = e
                    elif e.fetch_cycle + 1 < retry:
                        retry = e.fetch_cycle + 1
                    break
        if entry is not None:
            # Scoreboard check with the register-mask prefilter inlined:
            # no in-flight destination overlaps this instruction's
            # read/write set in the common case.
            scoreboard = warp.scoreboard
            instr = entry.instr
            if scoreboard._dst_mask & instr.hazard_mask or (
                instr.dst is not None and len(scoreboard.entries) >= scoreboard.capacity
            ):
                if not scoreboard.can_issue(instr, split.mask, slot):
                    scoreboard.refused(slot, split, entry, warp.model.version)
                    entry = None
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

    def _cpc2_group(
        self, warp: TimingWarp, split: Split, entry: IBufEntry, now: int, diverged: bool
    ) -> Optional[ExecGroup]:
        """The CPC2 co-issue rule: the group ``warp``'s ready secondary
        split issues ``entry`` on beside its CPC1 this cycle, or None.
        It is held by the selective synchronization barrier (counted in
        ``sync_suspensions``), by a branch when CPC1 diverged (one
        divergence per cycle), or for want of a group that is free or
        lane-disjoint beside CPC1."""
        instr = entry.instr
        if self._sync_blocked(warp, split, instr, now):
            self.sm.stats.sync_suspensions += 1
            return None
        if instr.is_branch and diverged:
            return None
        return self.sm.backend.pick_group(self._unit_of[entry.pc], now, split.lane_mask, True)

    # -- the ready set -----------------------------------------------------

    def _refresh(self, now: int, index: int = 0) -> None:
        """Bring pool ``index`` of the ready set up to date: re-derive
        and record the verdicts of its warps woken since the last pass —
        slot 0's, and with ``_slot1`` slot 1's, pickable unless the
        selective synchronization barrier holds it (``suspended``).  A
        candidate whose split and entry are on record keeps its place."""
        woken = self.woken[index]
        pool = self._pools[index]
        ready_entry = self._ready_entry
        slot1 = self._slot1
        for warp in woken:
            cand = None
            if not warp.done:
                model = warp.model
                hot = model._hot_cache or model.hot_splits(now)
                if hot:
                    split = hot[0]
                    entry = ready_entry(warp, 0, split, now)
                    if entry is not None:
                        cand = warp.cand0
                        if cand is None or cand[5] is not entry or cand[4] is not split:
                            cand = (entry.fetch_cycle, warp.wid, 0, warp, split, entry,
                                    self._unit_of[entry.pc])
                else:
                    # Nothing hot yet: a cold context may be promoted.
                    warp.wake_at(model._settle_wake)
            old = warp.cand0
            if cand is not old:
                if old is not None:
                    pool.remove(old)
                if cand is not None:
                    insort(pool, cand)
                warp.cand0 = cand
            if slot1:
                cand = None
                suspended = False
                if not warp.done and len(hot) > 1:
                    split = hot[1]
                    entry = ready_entry(warp, 1, split, now)
                    if entry is not None:
                        cand = warp.cand1
                        if cand is None or cand[5] is not entry or cand[4] is not split:
                            cand = (entry.fetch_cycle, warp.wid, 1, warp, split, entry,
                                    self._unit_of[entry.pc])
                        suspended = self._sync_blocked(warp, split, entry.instr, now)
                old = warp.cand1
                held = warp.suspended
                if cand is not old or suspended != held:
                    if old is not None:
                        if held:
                            self._suspended -= 1
                        else:
                            pool.remove(old)
                    if cand is not None:
                        if suspended:
                            self._suspended += 1
                        else:
                            insort(pool, cand)
                    warp.cand1 = cand
                    warp.suspended = suspended
            warp.issue_woken = False
        del woken[:]


@SCHEDULERS.register("two_pool")
class BaselineScheduler(SchedulerBase):
    """Two independent pools of 32-wide warps (even/odd ids),
    oldest-first."""

    pools = 2

    def tick(self, now: int) -> int:
        issued = 0
        sm = self.sm
        backend = sm.backend
        for index, pool in enumerate(self._pools):
            if self.woken[index]:
                self._refresh(now, index)
            if not pool:
                continue
            # Oldest ready instruction whose execution unit is free.
            free = backend.free_classes(now)
            for cand in pool:
                group = free[cand[6]]
                if group is not None:
                    slot, warp, split, entry = cand[2:6]
                    pool.remove(cand)  # consumed: no probe need say so
                    warp.cand0 = None
                    sm.issue(warp, slot, split, entry, now, ORIGIN_PRIMARY, group)
                    issued += 1
                    break
        return issued


@SCHEDULERS.register("single_issue")
class Warp64Scheduler(BaselineScheduler):
    """Single pool, one issue per cycle (thread-frontier reference)."""

    pools = 1
    issue_width = 1


@SCHEDULERS.register("sbi_dual")
class SBIScheduler(SchedulerBase):
    """Dual front-end on one warp: co-issue CPC1 and CPC2 splits.

    The pool holds both hot slots' candidates; a ready CPC2 held by
    the selective synchronization barrier stays out of it and is
    counted in ``_suspended`` instead.
    """

    _slot1 = True

    def tick(self, now: int) -> int:
        sm = self.sm
        if self.woken[0]:
            self._refresh(now)
        if self._suspended:
            sm.stats.sync_suspensions += self._suspended
        pool = self._pools[0]
        if not pool:
            return 0
        # Select the warp owning the oldest ready instruction in either
        # slot whose execution unit is free.
        free = sm.backend.free_classes(now)
        for cand in pool:
            if free[cand[6]]:
                break
        else:
            return 0
        warp = cand[3]
        model = warp.model
        seen = model.slot_version
        issued = 0
        diverged = False
        # Primary front-end: nothing moved since the readiness pass.
        cand = warp.cand0
        if cand is not None:
            split, entry = cand[4], cand[5]
            group = free[cand[6]]
            if group is not None:
                pool.remove(cand)  # consumed: no probe need say so
                warp.cand0 = None
                diverged = sm.issue(warp, 0, split, entry, now, ORIGIN_PRIMARY, group)
                issued = 1
        # Secondary front-end: CPC2 when legal.  The pass's slot-1
        # verdict stands with the hot pair as it was but for the entry
        # the primary may have added; else (it diverged, merged or
        # re-ordered the pair) re-derive.
        if model.slot_version == seen:
            cand = warp.cand1
            if cand is None:
                return issued
            added = issued and entry.instr.dst is not None
            split, entry = cand[4], cand[5]
            scoreboard = warp.scoreboard
            if added and not scoreboard.can_issue(entry.instr, split.mask, 1):
                scoreboard.refused(1, split, entry, model.version)
                return issued
        else:
            hot = model._hot_cache or model.hot_splits(now)
            if len(hot) < 2:
                return issued
            split = hot[1]
            entry = self._ready_entry(warp, 1, split, now)
            if entry is None:
                return issued
        group = self._cpc2_group(warp, split, entry, now, diverged)
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
    stage (``self._pools[0]``, oldest first), both in :meth:`_pick`.
    """

    def __init__(self, sm: StreamingMultiprocessor) -> None:
        super().__init__(sm)
        self.pending: Optional[Candidate] = None  # last cycle's primary, frozen
        self._uses_sbi = sm.config.uses_sbi
        self._rand_state = sm.config.seed & 0x7FFFFFFF or 1  # the tie-break's LCG
        # The stock hooks run inline, an override is called.
        cls = type(self)
        self._stock_key = cls._secondary_key is CascadedScheduler._secondary_key
        self._stock_primary = cls._pick_primary is CascadedScheduler._pick_primary

    # -- picks -----------------------------------------------------------

    def _pick_primary(self, now: int) -> Optional[Candidate]:
        """Oldest ready CPC1 instruction (issues next cycle) whose
        unit is plausibly free at the issue stage."""
        pool = self._pools[0]
        if pool:
            free = self.sm.backend.free_classes(now + 1)
            for cand in pool:
                if free[cand[6]]:
                    return cand
        return None

    def _secondary_key(
        self, warp: TimingWarp, split: Split, entry: IBufEntry
    ) -> Tuple[int, ...]:
        """Ranking key of one SWI candidate (higher wins): best lane
        fit, pseudo-random among equals (paper section 4)."""
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return (popcount(split.mask), -self._rand_state)

    def _pick(
        self, now: int, primary: Optional[TimingWarp], unit: int, taken: int, diverged: bool
    ) -> Tuple[Optional[Candidate], Optional[SecondaryPick]]:
        """Next cycle's primary and this cycle's second instruction,
        beside the one the issue stage issued (if any) from warp
        ``primary``, on unit class ``unit`` (-1 with no issue) and lanes
        ``taken``, diverging or not.

        One ``free_classes(now)`` snapshot serves both: the stock primary
        is the oldest candidate if its unit is free now, else the first
        whose unit is plausibly free next cycle; the pool walk yields the
        eligible secondaries.  An overridden :meth:`_pick_primary` is
        called first, as the hook it is."""
        stock = self._stock_primary
        nxt = None if stock else self._pick_primary(now)
        backend = self.sm.backend
        secondary = None
        if primary is not None:
            # SBI+SWI: prefer the same warp's CPC2 split.
            if self._uses_sbi:
                hot = primary.model._hot_cache or primary.model.hot_splits(now)
                if len(hot) > 1:
                    split = hot[1]
                    entry = self._ready_entry(primary, 1, split, now)
                    if entry is not None:
                        group = self._cpc2_group(primary, split, entry, now, diverged)
                        if group is not None:
                            secondary = (ORIGIN_SBI, primary, 1, split, entry, group)
            if secondary is None:
                self.sm.stats.swi_lookups += 1
        pool = self._pools[0]
        if secondary is not None or not pool:
            return (self._pick_primary(now) if stock else nxt), secondary
        free = backend.free_classes(now)
        if stock:
            # The oldest candidate whose unit is plausibly free at the
            # issue stage: the first, if its unit is free already.
            nxt = pool[0]
            if not free[nxt[6]]:
                soon = backend.free_classes(now + 1)
                for nxt in pool:
                    if soon[nxt[6]]:
                        break
                else:
                    nxt = None
        if primary is None:
            # Nothing issued this cycle: a unit to itself, or no issue.
            eligible = [cand for cand in pool if free[cand[6]]]
        else:
            # No unit to itself: it can only share the one group holding
            # an instruction this cycle — the primary's, so of its class
            # — on disjoint lanes.
            mine = primary.cand0
            eligible = [
                cand for cand in pool if cand is not mine and (
                    free[cand[6]] or cand[6] == unit and not taken & cand[4].lane_mask
                )
            ]
            ways = self.config.swi_ways
            if ways is not None:
                # Set-associative lookup (paper section 4): a
                # ``ways``-entry window of warp ids following the
                # primary's, standing in for the banked
                # instruction-buffer sets indexed by the primary warp
                # id's low-order bits.  None = fully associative.
                count = self.config.warp_count
                window = {(primary.wid + 1 + i) % count for i in range(ways)}
                eligible = [cand for cand in eligible if cand[1] in window]
        if not eligible:
            return nxt, None
        # Ranked in warp-id order, the order the tie-break's
        # pseudo-random draws are consumed in (one per candidate).
        if len(eligible) > 1:
            eligible.sort(key=_by_wid)
        best = eligible[0]
        best_key = None
        if self._stock_key:
            # :meth:`_secondary_key` and its draw, inline.
            state = self._rand_state
            for cand in eligible:
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                key = (cand[4].mask.bit_count(), -state)
                if best_key is None or key > best_key:
                    best_key = key
                    best = cand
            self._rand_state = state
        else:
            secondary_key = self._secondary_key
            for cand in eligible:
                key = secondary_key(cand[3], cand[4], cand[5])
                if best_key is None or key > best_key:
                    best_key = key
                    best = cand
        split, entry = best[4], best[5]
        # A group to itself before co-issue sharing, as ``pick_group``.
        group = free[best[6]] or backend.pick_group(best[6], now, split.lane_mask, True)
        origin = ORIGIN_SWI if primary is not None else ORIGIN_PRIMARY
        return nxt, (origin, best[3], 0, split, entry, group)

    # -- tick --------------------------------------------------------------

    def tick(self, now: int) -> int:
        issued = 0
        # The issue stage's warp, unit class, lanes, and divergence.
        primary: Optional[TimingWarp] = None
        unit, taken = -1, 0
        diverged = False
        sm = self.sm

        # Issue stage: the primary picked last cycle issues now.
        if self.pending is not None:
            _, _, _, warp, split, entry, route = self.pending
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
                model = warp.model
                hot = model._hot_cache or model.hot_splits(now)
                slot = 0 if hot and hot[0] is split else 1 if len(hot) > 1 and hot[1] is split else 2
                instr = entry.instr
                scoreboard = warp.scoreboard
                if (scoreboard._dst_mask & instr.hazard_mask or (
                    instr.dst is not None and len(scoreboard.entries) >= scoreboard.capacity
                )) and not scoreboard.can_issue(instr, split.mask, slot):
                    return 0  # hazard materialised; hold in the issue stage
                group = sm.backend.pick_group(route, now, split.lane_mask, False)
                if group is None:
                    return 0  # structural stall: group still busy
                unit, taken = route, split.lane_mask
                diverged = sm.issue(warp, slot, split, entry, now, ORIGIN_PRIMARY, group)
                self.pending = None
                primary = warp
                issued += 1

        # Primary pick for the next cycle and secondary pick for this one
        # happen in decoupled schedulers "in parallel" — both observe the
        # same post-primary-issue state (one readiness pass) and may
        # select the same instruction; the conflict is detected a
        # posteriori and the primary's copy is discarded (paper section 4).
        if self.woken[0]:
            self._refresh(now)
        nxt, secondary = self._pick(now, primary, unit, taken, diverged)
        if secondary is not None and nxt is not None and secondary[4] is nxt[5]:
            sm.stats.scheduler_conflicts += 1
            nxt = None
        if nxt is not None:
            # Freeze the picked split before the secondary issues: a merge
            # triggered by that issue must not absorb or grow it while its
            # instruction sits in the scheduler pipeline stage.  Frozen,
            # it is no candidate either: it leaves the pool here.
            nxt[4].pending = True
            self._pools[0].remove(nxt)
            nxt[3].cand0 = None
            self.pending = nxt

        if secondary is not None:
            origin, warp, slot, split, entry, group = secondary
            if origin != ORIGIN_SBI:  # consumed: gone with its entry
                self._pools[0].remove(warp.cand0)
                warp.cand0 = None
            sm.issue(warp, slot, split, entry, now, origin, group)
            issued += 1
            if origin == ORIGIN_SWI:
                sm.stats.swi_hits += 1
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
            if free[cand[6]]:
                turn = (cand[1] - first) % count
                if turn < best_turn:
                    best_turn = turn
                    best = cand
        if best is not None:
            self._last_wid = best[1]
        return best


SCHEDULERS.register("cascaded_greedy", GreedyCascadedScheduler)
SCHEDULERS.register("cascaded_rr", LooseRoundRobinScheduler)


def make_scheduler(config, sm: StreamingMultiprocessor) -> SchedulerBase:
    """Instantiate the scheduler policy named by ``config.policy``."""
    return SCHEDULERS.get(config.policy.scheduler)(sm)
