"""Whole-device model: many SMs behind a shared memory hierarchy.

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

The SMs are driven in lock-step: each global cycle every unfinished
SM takes one :meth:`~repro.core.sm.StreamingMultiprocessor.step`, and
idle stretches skip to the earliest event over the whole device.
Stepping order is fixed (SM 0 first), so runs are deterministic, and
a ``GPUConfig(sm_count=1)`` device executes the exact event sequence
of the single-SM :func:`~repro.core.simulator.simulate` path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel
from repro.core.policy import MemEvent
from repro.core.policy.events import LEVEL_L2
from repro.core.report import deadlock_report, overrun_report
from repro.core.sm import SimulationError, StreamingMultiprocessor
from repro.timing.config import GPUConfig
from repro.timing.dram import DRAMChannel
from repro.timing.l2 import L2System
from repro.timing.stats import DeviceStats


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


class GPUDevice:
    """Cycle-level model of one GPU running one kernel launch."""

    def __init__(
        self,
        kernel: Kernel,
        memory: MemoryImage,
        config: GPUConfig,
        observers=None,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.config = config
        self.dispatcher = CTADispatcher(kernel.grid_size)
        self.l2: Optional[L2System] = L2System(config) if config.uses_l2 else None
        #: Cycle-level observers: shared with every SM (issue/retire/
        #: split/L1 events); the device itself reports L2 misses.
        self.observers = list(observers or ())
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
        header = "device deadlock at cycle %d (%d SMs)" % (now, len(self.sms))
        return deadlock_report(
            header, [sm for sm in self.sms if not sm.finished], now
        )

    def run(self) -> DeviceStats:
        """Simulate to completion and return aggregated statistics.

        One lock-step cycle loop: each device cycle steps every SM that
        is awake, in SM-index order; when no SM made progress the clock
        jumps to the earliest per-SM wake, skipping the idle span.
        """
        self._initial_launch()
        sms = self.sms
        observers = self.observers
        l2 = self.l2
        now = 0
        max_cycles = self.config.sm.max_cycles
        done = [False] * len(sms)
        # Per-SM wake times: an SM whose step made no progress cannot
        # do anything before its own next scheduled event (the same
        # assumption the single-SM loop's event skip rests on — no
        # cross-SM coupling creates work without a local event), so it
        # sleeps instead of burning a no-op step every device cycle.
        # None = no scheduled events at all.
        wake: List[Optional[int]] = [0] * len(sms)
        l2_misses_seen = 0
        # One errstate for the whole run: compiled plans deliberately
        # skip the per-issue ``np.errstate`` the interpreter pays.
        with np.errstate(all="ignore"):
            while now < max_cycles:
                progressed = False
                for i, sm in enumerate(sms):
                    if done[i] or wake[i] is None or wake[i] > now:
                        continue
                    if sm.step(now):
                        progressed = True
                        wake[i] = now + 1
                    else:
                        wake[i] = sm.next_event_cycle(now)
                    if observers and l2 is not None:
                        new_misses = l2.misses - l2_misses_seen
                        if new_misses:
                            l2_misses_seen = l2.misses
                            event = MemEvent(now, sm.sm_id, LEVEL_L2, new_misses)
                            for observer in observers:
                                observer.on_l2_miss(event)
                    # ``finished`` needs an empty live list, and a
                    # retire drops the cached one (as in SM.run).
                    if not sm._live_cache and sm.finished:
                        done[i] = True
                        sm.stats.cycles = now + 1
                if all(done):
                    return self._collect(now + 1)
                if progressed:
                    now += 1
                else:
                    candidates = [
                        wake[i]
                        for i in range(len(sms))
                        if not done[i] and wake[i] is not None and wake[i] > now
                    ]
                    if not candidates:
                        raise SimulationError(self._deadlock_report(now))
                    now = min(candidates)
        totals = DeviceStats(cycles=now, sm_stats=[sm.stats for sm in sms])
        raise SimulationError(
            overrun_report(
                self.kernel.name, max_cycles, now, totals, sm_count=len(sms)
            )
        )

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
        for sm in device.sms:  # break the cycles, as ``simulate`` does
            del sm.scheduler
    for observer in device.observers:
        observer.finalize(stats)
    return stats


__all__ = ["CTADispatcher", "GPUDevice", "simulate_device"]
