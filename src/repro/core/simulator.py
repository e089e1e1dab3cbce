"""Public simulation entry points.

``simulate`` runs one kernel on a single SM (the paper's evaluation
setup); ``simulate_device`` — re-exported from
:mod:`repro.core.gpu` — runs it on a whole multi-SM device with a
shared memory hierarchy.  Both go through the one run loop,
:meth:`repro.core.gpu.GPUDevice.run`: a single SM is a one-SM device.
"""

from __future__ import annotations

from typing import Optional

from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel
from repro.core.gpu import GPUDevice, check_engine, simulate_device
from repro.core.sm import SimulationError
from repro.timing.config import GPUConfig, SMConfig
from repro.timing.stats import Stats


def simulate(
    kernel: Kernel,
    memory: MemoryImage,
    config: Optional[SMConfig] = None,
    observers=None,
    compiled: bool = True,
    engine: str = "reference",
) -> Stats:
    """Run ``kernel`` on one SM and return its :class:`Stats`.

    The SM is a one-SM :class:`~repro.core.gpu.GPUDevice` (no L2, the
    SM's own DRAM share), run by :meth:`~repro.core.gpu.GPUDevice.run`;
    the result is that SM's stats.

    ``memory`` is mutated — read results back with
    :meth:`MemoryImage.read_array`.  The functional outcome is
    identical for every configuration; only the timing differs.
    ``observers`` attaches cycle-level listeners
    (:class:`repro.core.policy.Observer`), which never affect timing
    and are finalized with the run's stats before it returns.
    Every issued instruction runs a plan; ``compiled=False`` makes
    each plan the reference interpreter bound to its instruction
    instead of a compiled closure — same stats, slower; it exists for
    differential testing.  ``engine`` accepts only ``"reference"``
    (see :func:`repro.core.gpu.check_engine`).
    """
    check_engine(engine)
    if config is None:
        config = SMConfig()
    device = GPUDevice(
        kernel, memory, GPUConfig(sm=config), observers, compiled=compiled
    )
    (sm,) = device.sms
    try:
        device.run()
    finally:
        device.release()
    stats = sm.stats
    for observer in device.observers:
        observer.finalize(stats)
    return stats


__all__ = ["simulate", "simulate_device", "SimulationError"]
