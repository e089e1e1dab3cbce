"""Whole-device model and the one run loop: SMs behind a shared memory.

A :class:`GPUDevice` shards one kernel grid across ``sm_count``
:class:`~repro.core.sm.StreamingMultiprocessor` instances.  CTAs are
handed out by a GigaThread-style :class:`CTADispatcher` — breadth
first at launch (one CTA per SM per round, as the hardware work
distributor balances occupancy) and then on demand as earlier CTAs
retire.  All SMs read and write the same functional
:class:`~repro.functional.memory.MemoryImage`, and their L1 misses
meet either in a shared :class:`~repro.timing.l2.L2System` (sectored,
set-associative, partitioned across DRAM channels) or, with the L2
disabled, in private per-SM channels carrying a ``1/sm_count`` share
of the device bandwidth.

:meth:`GPUDevice.run` is the simulator's only cycle loop: the
single-SM :func:`~repro.core.simulator.simulate` is a one-SM device.
Each global cycle every awake SM takes one
:meth:`~repro.core.sm.StreamingMultiprocessor.step`, and idle
stretches skip to the earliest event over the whole device.  Stepping
order is fixed (SM 0 first), so runs are deterministic.  A run that
wedges (no scheduled event while warps are live) or overruns
``max_cycles`` raises :class:`~repro.core.sm.SimulationError` with
the message :func:`deadlock_report` / :func:`overrun_report` build.
"""

from __future__ import annotations

import sys
from typing import List, Optional

import numpy as np

from repro.functional.executor import Executor, LaunchRows
from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel
from repro.core.policy import MemEvent
from repro.core.policy.events import LEVEL_L2
from repro.core.sm import SimulationError, StreamingMultiprocessor
from repro.timing.config import GPUConfig
from repro.timing.dram import DRAMChannel
from repro.timing.l2 import L2System
from repro.timing.stats import DeviceStats

#: The wake of an SM that has finished or has no scheduled event.
_NEVER = sys.maxsize


class CTADispatcher:
    """GigaThread work distributor: hands out CTA ids in grid order.

    Shared by every SM of a device; with a single SM it degenerates to
    the sequential dispatch of the original single-SM model.
    """

    def __init__(self, grid_size: int) -> None:
        if grid_size < 0:
            raise ValueError("grid_size must be >= 0")
        self.grid_size = grid_size
        self.next_cta = 0

    def has_pending(self) -> bool:
        return self.next_cta < self.grid_size

    def acquire(self) -> Optional[int]:
        """Claim the next CTA id, or None once the grid is drained."""
        if self.next_cta >= self.grid_size:
            return None
        cta = self.next_cta
        self.next_cta += 1
        return cta

    @property
    def remaining(self) -> int:
        return self.grid_size - self.next_cta


def overrun_report(kernel_name: str, limit: int, now: int, stats_like, sm_count: int = 1) -> str:
    """Cycle-limit message: progress counters plus a correct IPC.

    ``stats_like`` needs ``instructions_issued`` and
    ``thread_instructions`` (a :class:`~repro.timing.stats.Stats` or a
    device total); ``sm_count`` > 1 appends the device suffix.
    """
    cycles = max(now, 1)
    msg = (
        "kernel %s exceeded the %d-cycle limit at cycle %d: "
        "%d instructions issued, %d thread instructions so far "
        "(IPC %.2f, issue IPC %.3f)"
        % (
            kernel_name,
            limit,
            now,
            stats_like.instructions_issued,
            stats_like.thread_instructions,
            stats_like.thread_instructions / cycles,
            stats_like.instructions_issued / cycles,
        )
    )
    if sm_count > 1:
        msg = "%s (%d SMs)" % (msg, sm_count)
    return msg


def deadlock_report(header: str, sms, now: int) -> str:
    """Per-SM warp states, each with its next wake, one SM per block.

    When a run wedges the first question is "what was the engine
    waiting for": each live warp's splits and next split wake, and
    each SM's :meth:`~repro.core.sm.StreamingMultiprocessor.next_event_cycle`.
    """
    lines: List[str] = [header]
    for sm in sms:
        # Also refreshes the ``wake_cache`` (read below) of warps with one.
        next_event = sm.next_event_cycle(now)
        for warp in sm.live_warps():
            splits = ", ".join(repr(s) for s in warp.model.all_splits())
            lines.append(
                "  warp %d (cta %d): %s; scoreboard=%d; next wake %s"
                % (
                    warp.wid,
                    warp.cta_id,
                    splits,
                    len(warp.scoreboard),
                    next((c for c in warp.wake_cache if c > now), "none"),
                )
            )
        lines.append(
            "  next event (SM %d): %s"
            % (sm.sm_id, "none" if next_event is None else next_event)
        )
    return "\n".join(lines)


class GPUDevice:
    """Cycle-level model of one GPU running one kernel launch.

    Every SM runs the same kernel on the same memory image, so the
    device builds one :class:`~repro.functional.executor.Executor` and
    one :class:`~repro.functional.executor.LaunchRows` (the image and
    the launch constants) for the launch and hands them to every SM:
    each thread-identity row is made once per launch, not once per SM,
    and each instruction's plan once per program and warp width in the
    process (:meth:`~repro.isa.program.Program.plan_table`).
    ``compiled`` selects the plan maker (see
    :func:`~repro.core.simulator.simulate`).
    :meth:`release` tears a finished or failed run down.
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: MemoryImage,
        config: GPUConfig,
        observers=None,
        *,
        compiled: bool = True,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.config = config
        self.dispatcher = CTADispatcher(kernel.grid_size)
        self.l2: Optional[L2System] = L2System(config) if config.uses_l2 else None
        #: Cycle-level observers: shared with every SM (issue/retire/
        #: split/L1 events); the device itself reports L2 misses.
        self.observers = list(observers or ())
        # ``compiled`` is deliberately not a config field: cache keys
        # must not change with it (identical architectural behaviour;
        # see repro.functional.compiled).
        self.executor = Executor(kernel, compiled=compiled)
        launch_rows = LaunchRows(kernel, config.sm.warp_width, memory)
        self.sms: List[StreamingMultiprocessor] = []
        for i in range(config.sm_count):
            if self.l2 is not None:
                sink = self.l2
            else:
                sink = DRAMChannel(config.sm_dram_share, config.effective_dram_latency)
            self.sms.append(
                StreamingMultiprocessor(
                    kernel,
                    memory,
                    config.sm,
                    dispatcher=self.dispatcher,
                    memory_sink=sink,
                    executor=self.executor,
                    launch_rows=launch_rows,
                    sm_id=i,
                    observers=self.observers,
                )
            )

    # ------------------------------------------------------------------

    def _initial_launch(self) -> None:
        """Breadth-first fill: one CTA per SM per round until full."""
        launched = True
        while launched:
            launched = False
            for sm in self.sms:
                if sm.try_launch_cta(0):
                    launched = True

    def _deadlock_report(self, now: int) -> str:
        stuck = [sm for sm in self.sms if not sm.finished]
        header = "deadlock at cycle %d in kernel %s (SM%s %s)" % (
            now,
            self.kernel.name,
            "s" if len(stuck) > 1 else "",
            ", ".join(str(sm.sm_id) for sm in stuck),
        )
        return deadlock_report(header, stuck, now)

    def run(self) -> DeviceStats:
        """Simulate to completion and return aggregated statistics.

        Each device cycle steps every SM whose ``wake`` has come, in
        SM-index order.  A step that issued or fetched wakes its SM the
        next cycle; one that did neither cannot do anything before the
        SM's :meth:`~repro.core.sm.StreamingMultiprocessor.next_event_cycle`
        (no cross-SM coupling creates work without a local event), so
        the SM sleeps until then.  The clock moves to the soonest wake,
        skipping idle spans; a finished SM never wakes, and the run
        ends when the last one finishes.
        """
        self._initial_launch()
        sms = self.sms
        # The device reports L2 misses only to observers.
        l2 = self.l2 if self.observers else None
        l2_misses_seen = 0
        never = _NEVER
        now = 0
        max_cycles = self.config.sm.max_cycles
        live = len(sms)
        # One errstate for the whole run: compiled plans deliberately
        # skip the per-issue ``np.errstate`` the interpreter pays.
        with np.errstate(all="ignore"):
            while True:
                soonest = never
                for sm in sms:
                    at = sm.wake
                    if at > now:
                        if at < soonest:
                            soonest = at
                        continue
                    if sm.step(now):
                        # Every wake lies ahead: none before next cycle.
                        sm.wake = soonest = now + 1
                    else:
                        # A next event lies ahead, so it is never 0.
                        sm.wake = at = sm.next_event_cycle(now) or never
                        if at < soonest:
                            soonest = at
                    if l2 is not None and l2.misses != l2_misses_seen:
                        event = MemEvent(now, sm.sm_id, LEVEL_L2, l2.misses - l2_misses_seen)
                        l2_misses_seen = l2.misses
                        for observer in self.observers:
                            observer.on_l2_miss(event)
                    # ``finished`` needs an empty live list, and a
                    # retire drops the cached one.
                    if not sm._live_cache and sm.finished:
                        sm.stats.cycles = now + 1
                        live -= 1
                        if not live:
                            return self._collect(now + 1)
                        sm.wake = never
                        # SMs still due this cycle fold in when stepped.
                        soonest = min(other.wake for other in sms if other.wake > now)
                if soonest >= max_cycles:
                    break
                now = soonest
        if soonest == never:
            raise SimulationError(self._deadlock_report(now))
        totals = DeviceStats(cycles=soonest, sm_stats=[sm.stats for sm in sms])
        raise SimulationError(
            overrun_report(self.kernel.name, max_cycles, soonest, totals, len(sms))
        )

    def release(self) -> None:
        """Break the reference cycles a run leaves, finished or failed:
        detach every warp still resident (a finished run's retired
        CTAs detached theirs, :meth:`TimingWarp.detach
        <repro.core.warp.TimingWarp.detach>`) and part each SM from
        its scheduler.  Then the run's SMs, warps and memory image go
        by refcount with their last reference, not at the next full
        collection.  The device cannot run again."""
        for sm in self.sms:
            for warp in sm.warp_slots:
                if warp is not None:
                    warp.detach()
            del sm.scheduler

    def _collect(self, device_cycles: int) -> DeviceStats:
        stats = DeviceStats(
            cycles=device_cycles,
            sm_stats=[sm.stats for sm in self.sms],
        )
        if self.l2 is not None:
            stats.l2_accesses = self.l2.accesses
            stats.l2_hits = self.l2.hits
            stats.l2_misses = self.l2.misses
            stats.l2_sector_fills = self.l2.sector_fills
            stats.dram_bytes = self.l2.dram_bytes
        else:
            stats.dram_bytes = sum(sm.dram.bytes_transferred for sm in self.sms)
        return stats


def check_engine(engine: str) -> None:
    """Reject any ``engine`` but ``"reference"``, the one run loop.

    The keyword survives on :func:`simulate`/:func:`simulate_device`
    only because ``benchmarks/perf/probes.py`` (frozen outside
    ``benchmark`` PRs) still calls ``simulate(..., engine="reference")``.
    """
    if engine != "reference":
        raise ValueError(
            "unknown engine %r: the only run loop is engine=\"reference\""
            % (engine,)
        )


def simulate_device(
    kernel: Kernel,
    memory: MemoryImage,
    config: Optional[GPUConfig] = None,
    observers=None,
    engine: str = "reference",
) -> DeviceStats:
    """Run ``kernel`` on a whole device and return its :class:`DeviceStats`.

    ``memory`` is mutated, exactly as with :func:`simulate`; with the
    default ``GPUConfig()`` (one SM, no L2) the run is cycle-identical
    to ``simulate(kernel, memory, config.sm)``.  ``observers`` attaches
    cycle-level listeners to every SM (and to the shared L2), finalized
    with the device stats before the run returns.
    ``engine`` accepts only ``"reference"`` (see :func:`check_engine`)
    and is checked before the device is built.
    """
    check_engine(engine)
    if config is None:
        config = GPUConfig()
    device = GPUDevice(kernel, memory, config, observers=observers)
    try:
        stats = device.run()
    finally:
        device.release()
    for observer in device.observers:
        observer.finalize(stats)
    return stats


__all__ = ["CTADispatcher", "GPUDevice", "simulate_device"]
