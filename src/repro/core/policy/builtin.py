"""Built-in policies: the paper's five modes plus three exploration
policies, and the divergence-model classes they reference.

Scheduler classes register themselves in
:data:`~repro.core.policy.SCHEDULERS` from
:mod:`repro.core.schedulers` (imported when the first machine is
built); this module only registers *data* (specs) and the divergence
model classes, which import no pipeline module, so importing the
policy registry never drags the pipeline in.

A spec is a scheduler, a divergence model and a preset, nothing else:
issue width and fetch ways are read off the two classes
(:attr:`PolicySpec.issue_width`, :attr:`PolicySpec.hot_capacity`).
"""

from __future__ import annotations

from repro.core.policy.registry import Registry
from repro.core.policy.spec import PolicySpec
from repro.timing.dwr import DWRModel
from repro.timing.frontier import FrontierModel
from repro.timing.hct import SBIModel
from repro.timing.stack import StackModel

#: Divergence-model registry: name -> :class:`DivergenceModel` subclass
#: (built per warp by its ``for_config(config, launch_mask, perm)``).
DIVERGENCE: Registry = Registry("divergence model")
DIVERGENCE.register("stack", StackModel)
DIVERGENCE.register("frontier", FrontierModel)
DIVERGENCE.register("sbi_heap", SBIModel)
DIVERGENCE.register("dwr", DWRModel)

#: Policy registry: mode name -> PolicySpec.
POLICIES: Registry = Registry("policy")


# ----------------------------------------------------------------------
# The paper's five modes (Table 2 presets)
# ----------------------------------------------------------------------

_WIDE = dict(warp_count=16, warp_width=64)

POLICIES.register(
    "baseline",
    PolicySpec(
        name="baseline",
        scheduler="two_pool",
        divergence="stack",
        description="Fermi-like: 32x32 warps, two pools, IPDOM stack",
        preset=dict(
            warp_count=32,
            warp_width=32,
            scheduler_latency=1,
            delivery_latency=0,
            scoreboard_kind="warp",
            lane_shuffle="identity",
        ),
    ),
)

POLICIES.register(
    "warp64",
    PolicySpec(
        name="warp64",
        scheduler="single_issue",
        divergence="frontier",
        description="thread-frontier 64-wide reference point (Figure 7)",
        preset=dict(
            scheduler_latency=1,
            delivery_latency=0,
            scoreboard_kind="warp",
            lane_shuffle="identity",
            **_WIDE,
        ),
    ),
)

POLICIES.register(
    "sbi",
    PolicySpec(
        name="sbi",
        scheduler="sbi_dual",
        divergence="sbi_heap",
        description="Simultaneous Branch Interweaving: dual front-end "
        "co-issues CPC1/CPC2 of one warp",
        preset=dict(
            scheduler_latency=1,
            delivery_latency=1,
            scoreboard_kind="matrix",
            sbi_constraints=True,
            lane_shuffle="identity",
            **_WIDE,
        ),
    ),
)

_SWI_PRESET = dict(
    scheduler_latency=2,
    delivery_latency=1,
    scoreboard_kind="warp",
    lane_shuffle="xor_rev",
    swi_ways=None,
    **_WIDE,
)

POLICIES.register(
    "swi",
    PolicySpec(
        name="swi",
        scheduler="cascaded",
        divergence="frontier",
        description="Simultaneous Warp Interweaving: cascaded scheduler "
        "fills free lanes from another warp (best-fit)",
        preset=dict(_SWI_PRESET),
    ),
)

POLICIES.register(
    "sbi_swi",
    PolicySpec(
        name="sbi_swi",
        scheduler="cascaded",
        divergence="sbi_heap",
        description="combined SBI + SWI (the paper's headline machine)",
        preset=dict(
            scheduler_latency=2,
            delivery_latency=1,
            scoreboard_kind="matrix",
            sbi_constraints=True,
            lane_shuffle="xor_rev",
            swi_ways=None,
            **_WIDE,
        ),
    ),
)


# ----------------------------------------------------------------------
# Exploration policies (not in the paper)
# ----------------------------------------------------------------------

POLICIES.register(
    "swi_greedy",
    PolicySpec(
        name="swi_greedy",
        scheduler="cascaded_greedy",
        divergence="frontier",
        description="SWI with a greedy-then-oldest secondary arbiter "
        "(max lane coverage, age tie-break, no randomness)",
        preset=dict(_SWI_PRESET),
    ),
)

POLICIES.register(
    "swi_rr",
    PolicySpec(
        name="swi_rr",
        scheduler="cascaded_rr",
        divergence="frontier",
        description="SWI with a loose-round-robin primary warp arbiter "
        "(WaSP-style rotation instead of oldest-first)",
        preset=dict(_SWI_PRESET),
    ),
)

POLICIES.register(
    "dwr",
    PolicySpec(
        name="dwr",
        scheduler="cascaded",
        divergence="dwr",
        description="dynamic warp resizing: divergent paths run as "
        "32-wide sub-warps, regrouped at reconvergence; free lanes "
        "filled SWI-style",
        preset=dict(_SWI_PRESET),
    ),
)
