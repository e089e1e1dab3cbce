"""SM configuration — the knobs of paper Table 2 plus model options.

A configuration names a scheduler *mode* — an entry of the policy
registry (:data:`repro.core.policy.POLICIES`).  The paper ships five:

``baseline``   Fermi-like: 32 warps x 32 threads, two warp pools
               (even/odd ids) with one scheduler each, IPDOM
               reconvergence stack.
``warp64``     Reference point from Figure 7: thread-frontier
               reconvergence with 64-wide warps, single scheduler.
``sbi``        Simultaneous Branch Interweaving: 64-wide warps, HCT/CCT
               heap, dual front-end issuing CPC1/CPC2 of one warp.
``swi``        Simultaneous Warp Interweaving: 64-wide warps, frontier
               reconvergence, cascaded primary/secondary schedulers
               filling free lanes from other warps.
``sbi_swi``    Both: secondary slot filled by the same warp's CPC2
               when possible, else by another warp (SWI).

and any registered :class:`~repro.core.policy.PolicySpec` name — or
the spec itself — is equally valid: ``mode`` stays a plain string
after construction, so cache keys for the paper modes are unchanged by
the registry and new policies key cleanly by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # import cycle: policy modules configure from here
    from repro.core.policy.spec import PolicySpec

VALID_SCOREBOARDS = ("warp", "mask", "matrix")
VALID_SHUFFLES = ("identity", "mirror_odd", "mirror_half", "xor", "xor_rev")


def _positive_float(name: str, value: object) -> float:
    """``value`` as the ``float`` the field declares: ``10 == 10.0``, so
    the memo key cannot tell the spellings apart, but their JSON — and
    with it the content address — differs.  One machine, one address.
    A bool is not a number here, and neither is an infinite one."""
    if (
        value.__class__ is bool
        or not isinstance(value, Real)
        or not 0 < value < math.inf
    ):
        raise ValueError("%s must be a positive finite number, got %r" % (name, value))
    return float(value)


def _at_least(config: object, minima) -> None:
    """Every ``(field, lower bound)`` row of ``minima`` holds for
    ``config`` — an ``int``, never a ``bool`` nor ``32.0`` (which keys
    like ``32`` but hashes otherwise: one machine, two addresses), no
    smaller than the bound (``None``: any) — or a ``ValueError`` names
    the field and its value: a bound missed here is a cached nonsense
    result or a mid-run crash."""
    for name, bound in minima:
        value = getattr(config, name)
        if value.__class__ is bool or not isinstance(value, int) or (
            bound is not None and value < bound
        ):
            raise ValueError("%s must be an integer%s, got %r" % (
                name, "" if bound is None else " >= %d" % bound, value
            ))


#: Lower bounds of :class:`SMConfig`'s integer fields: sizes, widths
#: and counts the pipeline divides by or iterates over are positive,
#: latencies and the CCT knobs non-negative.
_SM_MINIMA = (
    ("warp_count", 1),
    ("scheduler_latency", 0),
    ("delivery_latency", 0),
    ("fetch_width", 1),
    ("scoreboard_entries", 1),
    ("exec_latency", 0),
    ("mad_lanes", 1),
    ("sfu_width", 1),
    ("lsu_width", 1),
    ("cct_capacity", 0),
    ("cct_insert_delay", 0),
    ("l1_size", 1),
    ("l1_ways", 1),
    ("l1_block", 1),
    ("l1_latency", 0),
    ("shared_latency", 0),
    ("shared_banks", 1),
    ("dram_latency", 0),
    ("store_segment", 1),
    ("cta_launch_latency", 0),
    ("max_cycles", 1),
)

#: Likewise for :class:`GPUConfig`.
_GPU_MINIMA = (
    ("sm_count", 1),
    ("l2_size", 0),
    ("l2_ways", 1),
    ("l2_block", 1),
    ("l2_sector", 1),
    ("l2_latency", 0),
    ("dram_partitions", 1),
)


@dataclass(slots=True)
class SMConfig:
    """All timing parameters of one streaming multiprocessor.

    ``mode`` accepts a registered policy name or a
    :class:`~repro.core.policy.PolicySpec` (normalised to its name);
    the resolved spec is exposed as :attr:`policy`.
    """

    mode: str = "baseline"
    warp_count: int = 32
    warp_width: int = 32

    # Front end (Table 2).
    scheduler_latency: int = 1
    delivery_latency: int = 0
    fetch_width: int = 2
    scoreboard_entries: int = 6
    scoreboard_kind: str = "warp"

    # Back end.
    exec_latency: int = 8
    mad_lanes: int = 64          # total MAD lanes; split into groups of warp_width
    sfu_width: int = 8
    lsu_width: int = 32

    # SBI options.
    sbi_constraints: bool = True
    cct_capacity: int = 8        # cold contexts per warp; no statistic reads it
    cct_insert_delay: int = 2    # sideband-sorter cycles per insertion

    # SWI options.
    lane_shuffle: str = "identity"
    swi_ways: Optional[int] = None   # None = fully associative lookup

    # Memory system (Table 2).
    l1_size: int = 48 * 1024
    l1_ways: int = 6
    l1_block: int = 128
    l1_latency: int = 3
    shared_latency: int = 3
    shared_banks: int = 32
    dram_bandwidth: float = 10.0     # bytes per cycle (10 GB/s at 1 GHz)
    dram_latency: int = 330          # cycles (330 ns at 1 GHz)
    store_segment: int = 32          # write-through granularity in bytes

    # Launch / control.
    cta_launch_latency: int = 10
    max_cycles: int = 5_000_000
    seed: int = 1

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------

    def validate(self) -> None:
        # Resolve (and normalise) the policy through the registry; an
        # unknown name raises with the registered list.
        from repro.core.policy import coerce_policy

        self.mode = coerce_policy(self.mode).name
        if self.sbi_constraints not in (0, 1):  # and ``1 == True`` likewise
            raise ValueError(
                "sbi_constraints must be True or False, got %r" % (self.sbi_constraints,)
            )
        self.sbi_constraints = bool(self.sbi_constraints)
        self.dram_bandwidth = _positive_float("dram_bandwidth", self.dram_bandwidth)
        _at_least(self, _SM_MINIMA + (("seed", None),))
        if self.swi_ways is not None:  # None = fully associative
            _at_least(self, (("swi_ways", 1),))
        if self.scoreboard_kind not in VALID_SCOREBOARDS:
            raise ValueError("scoreboard_kind must be one of %s" % (VALID_SCOREBOARDS,))
        if self.lane_shuffle not in VALID_SHUFFLES:
            raise ValueError("lane_shuffle must be one of %s" % (VALID_SHUFFLES,))
        if self.warp_width not in (4, 8, 16, 32, 64):
            raise ValueError("warp_width must be a power of two in [4, 64]")
        if self.mad_lanes % self.warp_width:
            raise ValueError("mad_lanes must be a multiple of warp_width")
        if self.l1_size % (self.l1_ways * self.l1_block):
            raise ValueError(
                "l1_size must be sets * l1_ways * l1_block, got l1_size=%r with "
                "l1_ways=%r, l1_block=%r" % (self.l1_size, self.l1_ways, self.l1_block)
            )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def policy(self) -> "PolicySpec":
        """The registered :class:`~repro.core.policy.PolicySpec` of
        :attr:`mode`."""
        from repro.core.policy import POLICIES

        return POLICIES.get(self.mode)

    @property
    def mad_group_count(self) -> int:
        """MAD groups are warp-wide; Fermi-like 2x32 or one 64-wide."""
        return self.mad_lanes // self.warp_width

    @property
    def branch_latency(self) -> int:
        """Cycles from branch issue to redirected fetch."""
        return self.scheduler_latency + self.delivery_latency + self.exec_latency

    @property
    def issue_to_writeback(self) -> int:
        """Base latency from issue to scoreboard release (1 wave)."""
        return self.delivery_latency + self.exec_latency

    @property
    def uses_sbi(self) -> bool:
        return self.policy.uses_sbi

    @property
    def issue_width(self) -> int:
        return self.policy.issue_width

    @property
    def peak_ipc(self) -> float:
        """Thread-instruction retire bound (64 baseline, 104 SBI/SWI):
        every issue slot a full warp, or every unit lane busy at once,
        whichever is fewer."""
        issue_bound = self.issue_width * self.warp_width
        unit_bound = self.mad_lanes + self.sfu_width + self.lsu_width
        return float(min(issue_bound, unit_bound))

    @property
    def total_threads(self) -> int:
        return self.warp_count * self.warp_width

    def replace(self, **kwargs) -> "SMConfig":
        """Copy with overrides (post-init re-validates)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Table-2-style one-liner."""
        return (
            "%s: %dx%d warps, sched %dc, delivery %dc, exec %dc, "
            "L1 %dKB/%d-way/%dB, mem %.0f B/c %dc, shuffle=%s, ways=%s"
            % (
                self.mode,
                self.warp_count,
                self.warp_width,
                self.scheduler_latency,
                self.delivery_latency,
                self.exec_latency,
                self.l1_size // 1024,
                self.l1_ways,
                self.l1_block,
                self.dram_bandwidth,
                self.dram_latency,
                self.lane_shuffle,
                "full" if self.swi_ways is None else self.swi_ways,
            )
        )


@dataclass(slots=True)
class GPUConfig:
    """A whole device: ``sm_count`` SMs behind a shared memory system.

    ``l2_size == 0`` disables the shared L2: each SM then owns a
    private DRAM channel carrying its ``1/sm_count`` share of the
    device bandwidth — ``GPUConfig(sm=config)`` is the one-SM device
    that :func:`repro.core.simulator.simulate` runs ``config`` on.  With an
    L2, every SM's L1 misses and write-through traffic meet in a
    sectored, set-associative cache that is partitioned by address
    across ``dram_partitions`` independent DRAM channels.
    """

    sm: SMConfig = field(default_factory=SMConfig)
    sm_count: int = 1

    # Shared L2 (disabled by default so the device defaults reproduce
    # the paper's per-SM memory model exactly).
    l2_size: int = 0
    l2_ways: int = 16
    l2_block: int = 128
    l2_sector: int = 32
    l2_latency: int = 30

    # Device DRAM.  ``None`` scales the paper's per-SM share with the
    # SM count (10 B/cycle per SM), keeping per-SM pressure constant.
    dram_partitions: int = 1
    dram_bandwidth: Optional[float] = None
    dram_latency: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------

    def validate(self) -> None:
        if not isinstance(self.sm, SMConfig):
            raise ValueError("sm must be an SMConfig")
        _at_least(self, _GPU_MINIMA)
        if self.dram_latency is not None:  # None = the SM's
            _at_least(self, (("dram_latency", 0),))
        if self.dram_bandwidth is not None:
            self.dram_bandwidth = _positive_float("dram_bandwidth", self.dram_bandwidth)
        if self.l2_size:
            if self.l2_block % self.l2_sector:
                raise ValueError("l2_block must be a multiple of l2_sector")
            if self.l2_block % self.sm.l1_block:
                raise ValueError("l2_block must be a multiple of the L1 block")
            if self.l2_size % self.dram_partitions:
                raise ValueError("l2_size must split evenly across partitions")
            slice_size = self.l2_size // self.dram_partitions
            if slice_size % (self.l2_ways * self.l2_block):
                raise ValueError(
                    "l2_size per partition must be sets * l2_ways * l2_block"
                )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def uses_l2(self) -> bool:
        return self.l2_size > 0

    @property
    def total_dram_bandwidth(self) -> float:
        """Device bandwidth in bytes/cycle (default: per-SM share x N)."""
        if self.dram_bandwidth is not None:
            return self.dram_bandwidth
        return self.sm.dram_bandwidth * self.sm_count

    @property
    def effective_dram_latency(self) -> int:
        return self.sm.dram_latency if self.dram_latency is None else self.dram_latency

    @property
    def partition_bandwidth(self) -> float:
        """Bytes/cycle on each DRAM partition behind the L2."""
        return self.total_dram_bandwidth / self.dram_partitions

    @property
    def sm_dram_share(self) -> float:
        """Private-channel bandwidth per SM when the L2 is disabled."""
        return self.total_dram_bandwidth / self.sm_count

    @property
    def l2_slice_size(self) -> int:
        """Bytes of L2 owned by one partition."""
        return self.l2_size // self.dram_partitions if self.l2_size else 0

    @property
    def total_threads(self) -> int:
        return self.sm_count * self.sm.total_threads

    def replace(self, **kwargs) -> "GPUConfig":
        """Copy with overrides (post-init re-validates)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        mem = (
            "no L2"
            if not self.uses_l2
            else "L2 %dKB/%d-way/%dB (%dB sectors, %d partitions)"
            % (
                self.l2_size // 1024,
                self.l2_ways,
                self.l2_block,
                self.l2_sector,
                self.dram_partitions,
            )
        )
        return "%d x [%s], %s, dram %.0f B/c %dc" % (
            self.sm_count,
            self.sm.describe(),
            mem,
            self.total_dram_bandwidth,
            self.effective_dram_latency,
        )
