"""Every configuration knob moves a statistic somewhere.

One row per :class:`SMConfig` and :class:`GPUConfig` field names a cell
— policy, workload, size, the value to set and whatever else the cell
needs — where setting the field changes at least one field of the
run's :class:`Stats` (:class:`DeviceStats` for a device field), or, for
``max_cycles``, stops the run with :class:`SimulationError`.  A knob
that moves nothing on any cell is a strict xfail naming the ROADMAP
item that says so; a new field fails the completeness check until it
names a cell where it bites.

Most fields bite on a tiny cell at their preset.  Those that do not
need a cell built for them: ``sfu_width`` an SFU kernel (blackscholes);
``l1_size`` a footprint larger than the L1; ``l1_ways`` such an L1
(1.5 KB); ``cta_launch_latency`` more CTAs than fit at once (8 warps);
``scoreboard_kind`` threads of one warp in two splits at once with a
register in common (tmd2 under SBI); ``l2_size``, ``l2_ways`` and
``l2_block`` an L2 of a few KB behind a 1.5 KB L1.
"""

from dataclasses import fields, replace
from typing import Any, Dict, NamedTuple

import pytest

from repro.core import presets
from repro.core.simulator import simulate, simulate_device
from repro.core.sm import SimulationError
from repro.timing.config import GPUConfig, SMConfig
from repro.workloads import get_workload


class Cell(NamedTuple):
    policy: str
    workload: str
    size: str
    value: Any
    #: Other :class:`SMConfig` fields the cell needs, on both sides.
    sm: Dict[str, Any] = {}
    #: Other :class:`GPUConfig` fields the cell needs (device rows).
    gpu: Dict[str, Any] = {}


SMALL_L1 = {"l1_size": 1536}

SM_KNOBS = {
    "mode": Cell("baseline", "mandelbrot", "tiny", "sbi"),
    "warp_count": Cell("baseline", "transpose", "tiny", 8),
    "warp_width": Cell("baseline", "mandelbrot", "tiny", 16),
    "scheduler_latency": Cell("baseline", "mandelbrot", "tiny", 3),
    "delivery_latency": Cell("baseline", "mandelbrot", "tiny", 2),
    "fetch_width": Cell("baseline", "mandelbrot", "tiny", 1),
    "scoreboard_entries": Cell("baseline", "mandelbrot", "tiny", 2),
    "scoreboard_kind": Cell("sbi", "tmd2", "tiny", "warp"),
    "exec_latency": Cell("baseline", "mandelbrot", "tiny", 4),
    "mad_lanes": Cell("baseline", "mandelbrot", "tiny", 32),
    "sfu_width": Cell("baseline", "blackscholes", "tiny", 2),
    "lsu_width": Cell("baseline", "transpose", "tiny", 8),
    "sbi_constraints": Cell("sbi", "bfs", "tiny", False),
    "cct_capacity": Cell("sbi", "bfs", "tiny", 0),
    "cct_insert_delay": Cell("sbi", "bfs", "tiny", 9),
    "lane_shuffle": Cell("swi", "bfs", "tiny", "xor"),
    "swi_ways": Cell("swi", "transpose", "tiny", 1),
    "l1_size": Cell("baseline", "transpose", "tiny", 1536),
    "l1_ways": Cell("baseline", "transpose", "tiny", 1, SMALL_L1),
    "l1_block": Cell("baseline", "transpose", "tiny", 64),
    "l1_latency": Cell("baseline", "bfs", "tiny", 9),
    "shared_latency": Cell("baseline", "hotspot", "tiny", 9),
    "shared_banks": Cell("baseline", "transpose", "tiny", 4),
    "dram_bandwidth": Cell("baseline", "transpose", "tiny", 2.0),
    "dram_latency": Cell("baseline", "transpose", "tiny", 50),
    "store_segment": Cell("baseline", "transpose", "tiny", 128),
    "cta_launch_latency": Cell("baseline", "transpose", "tiny", 500, {"warp_count": 8}),
    "max_cycles": Cell("baseline", "transpose", "tiny", 100),
    "seed": Cell("swi", "transpose", "tiny", 7),
}

L2 = {"l2_size": 64 * 1024}

DEVICE_KNOBS = {
    "sm": Cell("baseline", "mandelbrot", "tiny", presets.by_name("baseline", exec_latency=4)),
    "sm_count": Cell("baseline", "transpose", "tiny", 2),
    "l2_size": Cell("baseline", "transpose", "tiny", 2048, SMALL_L1, {"l2_size": 4096}),
    "l2_ways": Cell("baseline", "bfs", "tiny", 1, SMALL_L1, {"l2_size": 2048}),
    "l2_block": Cell("baseline", "transpose", "tiny", 256, SMALL_L1, {"l2_size": 4096}),
    "l2_sector": Cell("baseline", "transpose", "tiny", 64, {}, L2),
    "l2_latency": Cell("baseline", "transpose", "tiny", 90, {}, L2),
    "dram_partitions": Cell("baseline", "transpose", "tiny", 2, {}, L2),
    "dram_bandwidth": Cell("baseline", "transpose", "tiny", 1.0),
    "dram_latency": Cell("baseline", "transpose", "tiny", 50),
}

#: Knobs no statistic reads, by the ROADMAP item that says why.
INERT = {
    ("sm", "cct_capacity"): "ROADMAP item 3 (g): the CCT capacity is not modelled: "
    "an overflowing heap neither stalls nor spills",
}

_RUNS: Dict[tuple, Any] = {}


def _run(cell, config):
    """The stats of ``cell``'s workload under ``config``; each distinct
    configuration runs once per test process (rows share their baselines)."""
    key = (cell.workload, cell.size, repr(config))
    if key not in _RUNS:
        inst = get_workload(cell.workload, cell.size)
        if isinstance(config, GPUConfig):
            _RUNS[key] = simulate_device(inst.kernel, inst.memory, config)
        else:
            _RUNS[key] = simulate(inst.kernel, inst.memory, config)
    return _RUNS[key]


def _rows():
    for level, table in (("sm", SM_KNOBS), ("device", DEVICE_KNOBS)):
        for name, cell in table.items():
            marks = ()
            if (level, name) in INERT:
                marks = pytest.mark.xfail(strict=True, reason=INERT[level, name])
            yield pytest.param(level, name, cell, id="%s-%s" % (level, name), marks=marks)


def test_every_field_names_a_cell():
    assert sorted(SM_KNOBS) == sorted(f.name for f in fields(SMConfig))
    assert sorted(DEVICE_KNOBS) == sorted(f.name for f in fields(GPUConfig))


@pytest.mark.parametrize("level,name,cell", _rows())
def test_setting_the_field_moves_a_statistic(level, name, cell):
    sm = presets.by_name(cell.policy, **cell.sm)
    base = sm if level == "sm" else GPUConfig(sm=sm, **cell.gpu)
    assert getattr(base, name) != cell.value, "the row must change the field"
    changed = replace(base, **{name: cell.value})
    if name == "max_cycles":
        _run(cell, base)
        with pytest.raises(SimulationError):
            _run(cell, changed)
        return
    assert _run(cell, changed) != _run(cell, base)
