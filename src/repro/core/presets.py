"""Configuration presets — registry entries with paper Table 2 defaults.

===================  =========  =======  =======  =========
Parameter            Baseline   SBI      SWI      SBI+SWI
===================  =========  =======  =======  =========
Warps x width        32 x 32    16 x 64  16 x 64  16 x 64
Scheduler latency    1          1        2        2
Delivery latency     0          1        1        1
Execution latency    8          8        8        8
Scoreboard           6/warp     matrix   6/warp   matrix
Reconvergence        stack      HCT/CCT  frontier HCT/CCT
===================  =========  =======  =======  =========

``warp64`` is the Figure 7 reference: thread frontiers with 64-wide
warps and a single conventional scheduler.

Every preset is a :class:`~repro.core.policy.PolicySpec` in
:data:`repro.core.policy.POLICIES` carrying these defaults;
:func:`by_name` builds any registered policy's machine — including
third-party ones — and takes overrides by ``SMConfig`` field name, the
one spelling.  The five functions below it name the paper's modes.
"""

from __future__ import annotations

from repro.core.policy import POLICIES
from repro.timing.config import GPUConfig, SMConfig


def by_name(name: str, **overrides) -> SMConfig:
    """An :class:`SMConfig` for any registered policy: the spec's
    preset defaults, with ``overrides`` applied on top."""
    spec = POLICIES.get(name)
    return SMConfig(mode=spec.name, **{**spec.preset, **overrides})


def baseline(**overrides) -> SMConfig:
    """Fermi-like baseline: 32 x 32 warps, two pools, IPDOM stack."""
    return by_name("baseline", **overrides)


def warp64(**overrides) -> SMConfig:
    """Thread-frontier 64-wide reference point (Figure 7)."""
    return by_name("warp64", **overrides)


def sbi(**overrides) -> SMConfig:
    """Simultaneous Branch Interweaving."""
    return by_name("sbi", **overrides)


def swi(**overrides) -> SMConfig:
    """Simultaneous Warp Interweaving."""
    return by_name("swi", **overrides)


def sbi_swi(**overrides) -> SMConfig:
    """Combined SBI + SWI (the paper's headline configuration)."""
    return by_name("sbi_swi", **overrides)


#: Figure 7 configuration set, in presentation order.
FIGURE7_CONFIGS = ("baseline", "sbi", "swi", "sbi_swi", "warp64")


def device(
    name: str = "sbi_swi",
    sm_count: int = 4,
    l2_size: int = 2 * 1024 * 1024,
    dram_partitions: int = 4,
    **gpu_overrides,
) -> GPUConfig:
    """Device-scale preset: N copies of a named SM preset behind a
    shared 2 MB sectored L2 and address-partitioned DRAM.

    ``l2_size=0`` drops the L2 and gives each SM a private channel
    with its ``1/sm_count`` bandwidth share (the paper's per-SM
    memory model, scaled out).  ``sm=`` (any ``GPUConfig`` field is an
    override) puts another SM configuration behind the same hierarchy.
    """
    cfg = dict(
        sm=by_name(name),
        sm_count=sm_count,
        l2_size=l2_size,
        dram_partitions=dram_partitions,
    )
    cfg.update(gpu_overrides)
    return GPUConfig(**cfg)
