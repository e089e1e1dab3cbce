"""The SM pipeline: ties front end, back end and memory together.

One :class:`StreamingMultiprocessor` models one SM of a kernel launch
(the paper evaluates one SM with a 10 GB/s memory share).  CTAs are
dispatched onto warp slots as earlier CTAs retire; each cycle the
mode-specific scheduler issues up to two instructions, the fetch
engine refills up to two instruction buffers, and timed events
(writebacks, DRAM fills, branch redirects, CCT insertions) release
stalled resources.  The SM has no run loop of its own: a
:class:`~repro.core.gpu.GPUDevice` (one SM for
:func:`~repro.core.simulator.simulate`) drives it through
:meth:`~StreamingMultiprocessor.step` and jumps over the cycles where
nothing can happen, up to
:meth:`~StreamingMultiprocessor.next_event_cycle`.

The device also owns what the SMs share: the executor (one set of
compiled plans per launch), the launch rows (each warp's thread
identity, built once per launch:
:class:`~repro.functional.executor.LaunchRows`) and the run's teardown
(:meth:`~repro.core.gpu.GPUDevice.release`).  A CTA lives from its
launch to the retire of its last warp, which detaches all of its warps
(:meth:`~repro.core.warp.TimingWarp.detach`): no reference cycle holds
a retired CTA's register files and shared memory until the next
garbage collection.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.functional.executor import Executor, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import Kernel
from repro.isa.instructions import Op
from repro.core.policy import IssueEvent, MemEvent, RetireEvent, SplitEvent
from repro.core.policy.events import (
    LEVEL_L1,
    ORIGIN_PRIMARY,
    ORIGIN_SBI,
    ORIGIN_SWI,
)
from repro.core.warp import TimingWarp
from repro.timing.cache import L1Cache
from repro.timing.config import SMConfig
from repro.timing.fetch import FetchEngine, IBufEntry
from repro.timing.lsu import LoadStoreUnit
from repro.timing.masks import bools_to_mask
from repro.timing.scoreboard import build_transition
from repro.timing.stats import Stats
from repro.timing.units import Backend, ExecGroup
from repro.timing.divergence import Split


class SimulationError(Exception):
    """Deadlock or cycle-limit overrun."""


#: Control kind of an opcode, as :meth:`StreamingMultiprocessor.issue`
#: dispatches on it: everything but these three just advances the PC.
_PLAIN, _BRANCH, _EXIT, _BARRIER = range(4)
_CONTROL = {Op.BRA: _BRANCH, Op.EXIT: _EXIT, Op.BAR: _BARRIER}


class StreamingMultiprocessor:
    """Cycle-level model of one SM running one kernel launch.

    Built by a :class:`repro.core.gpu.GPUDevice`, which hands it the
    device's memory sink (L2 system or per-SM DRAM channel), its
    GigaThread dispatcher, its executor and its launch rows, and drives
    its SMs in lock-step through :meth:`step` / :meth:`next_event_cycle`.
    """

    __slots__ = (
        "kernel",
        "memory",
        "config",
        "sm_id",
        "wake",
        "stats",
        "executor",
        "launch_rows",
        "backend",
        "cache",
        "dram",
        "lsu_logic",
        "fetch",
        "scheduler",
        "observers",
        "dispatcher",
        "warp_slots",
        "cta_warps",
        "pending_launches",
        "_wb_heap",
        "_seq",
        "_timers",
        "_gated",
        "_live_cache",
        "_statics",
        "_issue_to_wb",
        "_delivery_latency",
        "_branch_latency",
    )

    def __init__(
        self,
        kernel: Kernel,
        memory: MemoryImage,
        config: SMConfig,
        *,
        dispatcher,
        memory_sink,
        executor: Executor,
        launch_rows: LaunchRows,
        sm_id: int = 0,
        observers=None,
    ) -> None:
        from repro.core.schedulers import make_scheduler  # cycle-free import

        self.kernel = kernel
        self.memory = memory
        self.config = config
        self.sm_id = sm_id
        #: The device cycle at which the run loop next steps this SM.
        self.wake = 0
        self.stats = Stats()
        # The device's one executor and launch rows: every SM runs the
        # same kernel on the same memory image.
        self.executor = executor
        self.launch_rows = launch_rows
        self.backend = Backend(config)
        self.cache = L1Cache(config.l1_size, config.l1_ways, config.l1_block)
        self.dram = memory_sink
        self.lsu_logic = LoadStoreUnit(config, self.cache, self.dram, self.stats)
        self.fetch = FetchEngine(
            kernel.program, config.fetch_width, config.policy.hot_capacity
        )
        self.scheduler = make_scheduler(config, self)
        #: Attached cycle-level observers (see :mod:`repro.core.policy`).
        #: Event construction is skipped entirely when the list is empty.
        self.observers = list(observers or ())
        self.dispatcher = dispatcher
        self.warp_slots: List[Optional[TimingWarp]] = [None] * config.warp_count
        self.cta_warps: Dict[int, List[TimingWarp]] = {}
        self.pending_launches: List[Tuple[int, Tuple[int, ...]]] = []
        self._wb_heap: List[Tuple[int, int, TimingWarp, object]] = []
        self._seq = 0
        #: Timed wakes registered by :meth:`TimingWarp.wake_at`.
        self._timers: List[Tuple[int, int, int, TimingWarp]] = []
        #: Warps whose last branch's split wakes may lie ahead.
        self._gated: List[TimingWarp] = []
        self._live_cache: Optional[List[TimingWarp]] = None
        # Resolved once per launch rather than once per issue: what
        # :meth:`issue` reads of every PC's instruction — (is memory,
        # destination register, control kind, per-op-class stats key)
        # — and the latencies that SMConfig derives through properties.
        self._statics = [
            (i.is_memory, i.dst, _CONTROL.get(i.op, _PLAIN), i.op_class.value)
            for i in kernel.program
        ]
        self._issue_to_wb = config.issue_to_writeback
        self._delivery_latency = config.delivery_latency
        self._branch_latency = config.branch_latency

        if kernel.cta_size > config.total_threads:
            raise SimulationError(
                "CTA of %d threads does not fit on the SM (%d threads)"
                % (kernel.cta_size, config.total_threads)
            )

    # ------------------------------------------------------------------
    # CTA dispatch
    # ------------------------------------------------------------------

    @property
    def warps_per_cta(self) -> int:
        width = self.config.warp_width
        return (self.kernel.cta_size + width - 1) // width

    def _free_slots(self) -> List[int]:
        return [i for i, w in enumerate(self.warp_slots) if w is None]

    def _launch_cta(self, cta: int, slots: Tuple[int, ...], now: int) -> None:
        shared = SharedMemory(max(self.kernel.shared_bytes, 4))
        warps = []
        for i, slot in enumerate(slots):
            warp = TimingWarp(slot, cta, self.config, self.launch_rows, i, shared)
            warp.attach(
                self.scheduler.woken[slot % self.scheduler.pools],
                self.fetch.woken,
                self._timers,
                self.scheduler._pools[slot % self.scheduler.pools],
                self.scheduler._unit_of,
            )
            self.warp_slots[slot] = warp
            warps.append(warp)
        self.cta_warps[cta] = warps
        self.stats.ctas_launched += 1
        self._live_cache = None

    def try_launch_cta(self, now: int) -> bool:
        """Accept one CTA from the dispatcher if a slot set is free."""
        if not self.dispatcher.has_pending():
            return False
        free = self._free_slots()
        if len(free) < self.warps_per_cta:
            return False
        cta = self.dispatcher.acquire()
        if cta is None:
            return False
        self._launch_cta(cta, tuple(free[: self.warps_per_cta]), now)
        return True

    def _launch_pending(self, now: int) -> None:
        while self.pending_launches and self.pending_launches[0][0] <= now:
            _, slots = heappop(self.pending_launches)
            # Another SM may have drained the grid since the retire
            # that scheduled this launch; the slots simply stay free.
            cta = self.dispatcher.acquire()
            if cta is not None:
                self._launch_cta(cta, slots, now)

    def _retire_warp(self, warp: TimingWarp, now: int) -> None:
        """``warp`` ran its last thread out.  When it is the last of its
        CTA, the CTA's slots free up (a launch into them is scheduled
        if the grid has CTAs left) and every warp of it is detached
        (:meth:`TimingWarp.detach`): the CTA's warps, register files
        and shared memory go by refcount as soon as the SM's queues
        let go of them."""
        warp.done = True
        self.stats.warps_retired += 1
        self.stats.merges += warp.model.merge_count
        if self.observers:
            event = RetireEvent(now, self.sm_id, warp.wid, warp.cta_id)
            for observer in self.observers:
                observer.on_retire(event)
        cta_warps = self.cta_warps[warp.cta_id]
        if all(w.done for w in cta_warps):
            slots = tuple(w.wid for w in cta_warps)
            for w in cta_warps:
                self.warp_slots[w.wid] = None
                w.detach()
            del self.cta_warps[warp.cta_id]
            if self.dispatcher.has_pending():
                heappush(
                    self.pending_launches,
                    (now + self.config.cta_launch_latency, slots),
                )
        self._live_cache = None

    def live_warps(self) -> List[TimingWarp]:
        if self._live_cache is None:
            self._live_cache = [
                w for w in self.warp_slots if w is not None and not w.done
            ]
        return self._live_cache

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def issue(
        self,
        warp: TimingWarp,
        slot: int,
        split: Split,
        entry: IBufEntry,
        now: int,
        origin: str,
        group: ExecGroup,
    ) -> bool:
        """Issue one instruction in this one frame: execute it, book
        the execution group the scheduler picked
        (:meth:`~repro.timing.units.Backend.pick_group`, this cycle),
        the scoreboard entry and its writeback, free the buffer way,
        apply the control effect to the divergence model.

        ``slot`` is the context slot ``split`` stands in this cycle (0
        CPC1, 1 CPC2, 2 the rest of the heap); instruction
        statics come from the per-PC ``_statics``.  The closing model
        mutation is the warp's one wake (``on_change``) — of its fetch
        side alone if that left every buffer way empty; the matrix
        scoreboard's slot masks are recomputed only if it moved
        ``slot_version``.

        Returns whether the instruction was a branch that diverged.
        """
        pc = entry.pc
        instr = entry.instr
        is_memory, dst, control, oc = self._statics[pc]
        mask = split.mask
        # Freeze the split while its instruction is in flight through the
        # issue path: structural queries below may pop CCT entries, and a
        # merge changing this mask mid-issue would corrupt both the lane
        # reservation and the set of threads executing the instruction.
        split.pending = True
        model = warp.model
        matrix = warp.matrix_sb
        if matrix:
            # Only the matrix scoreboard reads context slots.
            old_masks = warp.slot_masks
            if warp.slots_seen != model.slot_version:
                old_masks = self._slot_masks(warp, now)
            slots_seen = model.slot_version  # after: an SBI read can settle

        outcome = self.executor.execute(instr, warp.fwarp, mask)
        # No outcome: unpredicated, nothing to report but "done".
        active_mask = mask if outcome is None else outcome.active_mask
        active_bits = active_mask.bit_count()
        # Issue accounting, in this frame: it runs once per issued
        # instruction and a call's overhead is measurable.
        stats = self.stats
        stats.instructions_issued += 1
        stats.thread_instructions += active_bits
        per_op = stats.per_op_class
        per_op[oc] = per_op.get(oc, 0) + active_bits
        if origin == ORIGIN_PRIMARY:
            stats.issued_primary += 1
        elif origin == ORIGIN_SBI:
            stats.issued_sbi_secondary += 1
        elif origin == ORIGIN_SWI:
            stats.issued_swi_secondary += 1
        else:
            raise ValueError("unknown issue origin %r" % origin)
        observers = self.observers
        if observers:
            event = IssueEvent(
                now, self.sm_id, warp.wid, pc, origin,
                mask, group.name, active_bits,
            )
            for observer in observers:
                observer.on_issue(event)

        # Timing: occupancy and writeback.  A full-width group's first
        # instruction of the cycle is one wave on a unit pick_group
        # found free: booked here; a co-issued second one and narrow
        # groups go through ExecGroup.accept and its checks.
        lane_mask = split.lane_mask
        if group.width >= group.warp_width and (
            group.cycle != now or not group.issue_count
        ):
            group.cycle = now
            group.lane_mask = lane_mask
            group.issue_count = 1
            if group.free_at <= now:
                group.free_at = now + 1
            waves = 1
        else:
            waves = group.accept(now, lane_mask)
        if is_memory:
            assert outcome is not None  # a memory plan always reports
            misses_before = stats.l1_misses
            occupancy, wb = self.lsu_logic.access(instr, outcome.lane_addresses, now)
            if observers and stats.l1_misses > misses_before:
                event = MemEvent(
                    now, self.sm_id, LEVEL_L1, stats.l1_misses - misses_before
                )
                for observer in observers:
                    observer.on_l1_miss(event)
            group.hold(now + occupancy)
            wb += self._delivery_latency
        else:
            wb = now + self._issue_to_wb + (waves - 1)
        if dst is not None:
            sb_entry = warp.scoreboard.add(instr, mask, slot)
            heappush(self._wb_heap, (wb, self._seq, warp, sb_entry))
            self._seq += 1

        ways = warp.ibuf
        if entry in ways:  # not evicted since the pick
            ways[ways.index(entry)] = None
        split.pending = False

        # Architectural control effects.  Each ends in a model
        # mutation, whose change hook wakes the warp.
        diverged = False
        if control == _PLAIN:
            model.advance(split, now)
        elif control == _BRANCH:
            assert outcome is not None  # a branch plan always reports
            stats.branches += 1
            taken = bools_to_mask(outcome.taken) & active_mask
            split.redirect_ready_at = now + self._branch_latency
            if warp not in self._gated:
                self._gated.append(warp)
            diverged = model.branch(split, taken, instr.target, instr.reconv_pc, now)
            if diverged:
                stats.divergent_branches += 1
                n_splits = sum(1 for _ in model.all_splits())
                stats.max_live_splits = max(stats.max_live_splits, n_splits)
                if observers:
                    event = SplitEvent(now, self.sm_id, warp.wid, pc, n_splits)
                    for observer in observers:
                        observer.on_split(event)
        elif control == _EXIT:
            model.exit_threads(split, active_mask, now)
            if split.mask:
                model.advance(split, now)
            if model.done:
                self._retire_warp(warp, now)
            self._check_barrier(warp.cta_id, now)
        else:
            model.park(split, now)
            self._check_barrier(warp.cta_id, now)

        if matrix and model.slot_version != slots_seen:
            self._slots_moved(warp, old_masks, now)
        return diverged

    def _slot_masks(self, warp: TimingWarp, now: int) -> Tuple[int, int, int]:
        """The warp's context-slot masks, recomputed only when its
        model's ``slot_version`` moved since they were last read."""
        model = warp.model
        if warp.slots_seen != model.slot_version:
            warp.slot_masks = model.slot_masks(now)
            # Read after the call: an SBI read can settle.
            warp.slots_seen = model.slot_version
        return warp.slot_masks

    def _slots_moved(self, warp: TimingWarp, old_masks, now: int) -> None:
        """Feed the matrix scoreboard the transition since ``old_masks``."""
        new_masks = self._slot_masks(warp, now)
        if new_masks != old_masks:
            warp.scoreboard.on_transition(build_transition(old_masks, new_masks))

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------

    def _check_barrier(self, cta_id: int, now: int) -> None:
        """Release the CTA's barrier once every live thread of it is
        parked there.  O(warps): each model keeps its parked-thread
        count (a retired warp's live threads are 0)."""
        warps = self.cta_warps.get(cta_id)
        if not warps:
            return
        live = parked = 0
        for warp in warps:
            model = warp.model
            parked += model.parked_threads
            # model.live_mask(), inline: one call fewer per warp.
            live += (model.launch_mask & ~model.exited_mask).bit_count()
        if not parked or parked < live:
            return
        for warp in warps:
            if warp.done:
                continue
            if warp.matrix_sb:
                old_masks = self._slot_masks(warp, now)
                warp.model.unpark_all(now)
                self._slots_moved(warp, old_masks, now)
            else:
                warp.model.unpark_all(now)

    # ------------------------------------------------------------------
    # Timed events
    # ------------------------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest future cycle at which anything can happen here.

        ``None`` means this SM has no scheduled events: it has finished,
        or it is stuck until the whole device deadlocks.

        Split wake-ups (branch redirects, CCT sideband insertions) are
        served from a per-warp sorted cache keyed on the divergence
        model's mutation counter, so idle scans stop re-walking every
        live split: only warps whose model changed since the last scan
        rebuild their wake list.  Only a branch issue sets a split wake,
        so only warps that issued one since their wakes ran out are asked.
        """
        best: Optional[int] = None
        if self._wb_heap:
            c = self._wb_heap[0][0]
            if c <= now:  # caller did not drain writebacks first (tests)
                c = min((w for w, _, _, _ in self._wb_heap if w > now), default=None)
            if c is not None:
                best = c
        nxt = self.backend.next_free_cycle(now)
        if nxt is not None and (best is None or nxt < best):
            best = nxt
        if self.pending_launches:
            c = self.pending_launches[0][0]
            if c <= now:
                c = min((p for p, _ in self.pending_launches if p > now), default=None)
            if c is not None and (best is None or c < best):
                best = c
        gated, self._gated = self._gated, []
        for warp in gated:
            if warp.done:
                continue
            model = warp.model
            if warp.wake_version != model.version:
                # Only cycles still ahead of the clock: most often none.
                wakes = set()
                for s in model.all_splits():
                    if s.redirect_ready_at > now:
                        wakes.add(s.redirect_ready_at)
                    if s.ready_at > now:
                        wakes.add(s.ready_at)
                warp.wake_cache = sorted(wakes)
                warp.wake_version = model.version
            cache = warp.wake_cache
            if cache and cache[-1] > now:
                self._gated.append(warp)
                c = cache[bisect_right(cache, now)]
                if best is None or c < best:
                    best = c
        return best

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return (
            not self.live_warps()
            and not self.pending_launches
            and not self.dispatcher.has_pending()
        )

    def step(self, now: int) -> bool:
        """Simulate one cycle; True when any issue or fetch happened.

        After a ``False`` step nothing can happen here before
        :meth:`next_event_cycle`, so the driver may jump its clock
        there (:meth:`repro.core.gpu.GPUDevice.run` does).

        Drivers stepping the SM directly should enter
        ``np.errstate(all="ignore")`` around their loop (as
        :meth:`~repro.core.gpu.GPUDevice.run` does):
        compiled plans skip the per-issue errstate the interpreter
        pays, so garbage-lane arithmetic may otherwise emit numpy
        RuntimeWarnings — results are unaffected either way.
        """
        if self.pending_launches:
            self._launch_pending(now)
        heap = self._wb_heap
        while heap and heap[0][0] <= now:
            # Writeback: the release can unblock either hot slot of
            # its warp, if a verdict was waiting on one.
            _, _, warp, sb_entry = heappop(heap)
            scoreboard = warp.scoreboard
            scoreboard.release(sb_entry)
            refused = scoreboard.awaited
            if refused:
                # A verdict waited on the scoreboard: with the model as
                # the refusal left it, no settle due, re-check it alone.
                scoreboard.awaited = False
                if not isinstance(refused, tuple) or warp.issue_woken:
                    warp.wake_issue()
                else:
                    split, entry, version = refused
                    model = warp.model
                    if model.version != version or model._settle_wake <= now:
                        warp.wake_issue()
                    elif scoreboard.can_issue(entry.instr, split.mask, 0):
                        warp.ready(split, entry)
                    else:
                        scoreboard.awaited = refused
        timers = self._timers
        while timers and timers[0][0] <= now:
            heappop(timers)[3].timer_due()
        issued = self.scheduler.tick(now)
        warps = self._live_cache
        if warps is None:
            warps = self.live_warps()
        fetched = self.fetch.tick(now, warps)
        if issued:
            self.stats.busy_cycles += 1
            return True
        return fetched > 0
