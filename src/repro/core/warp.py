"""Timing-side warp container binding functional and timing state."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.functional.executor import FunctionalWarp
from repro.functional.memory import SharedMemory
from repro.core.policy import DIVERGENCE
from repro.timing import lanes
from repro.timing.divergence import DivergenceModel
from repro.timing.masks import bools_to_mask
from repro.timing.scoreboard import ScoreboardBase, make_scoreboard


def make_divergence_model(config, launch_mask: int, perm: Sequence[int]) -> DivergenceModel:
    """Instantiate the divergence model named by ``config.policy``."""
    factory = DIVERGENCE.get(config.policy.divergence)
    return factory(config, launch_mask, perm)


class TimingWarp:
    """One resident warp: divergence model, scoreboard, register file."""

    __slots__ = (
        "wid",
        "cta_id",
        "config",
        "lane_perm",
        "fwarp",
        "launch_mask",
        "model",
        "scoreboard",
        "last_issue_cycle",
        "done",
        "wake_cache",
        "wake_version",
        "ibuf",
        "stall0",
        "stall1",
        "fetch_stall",
        "matrix_sb",
    )

    def __init__(
        self,
        wid: int,
        cta_id: int,
        config,
        kernel,
        tids_in_cta: np.ndarray,
        shared: SharedMemory,
    ) -> None:
        self.wid = wid
        self.cta_id = cta_id
        self.config = config
        width = config.warp_width
        self.lane_perm = lanes.permutation(
            config.lane_shuffle, wid, width, config.warp_count
        )
        tids_in_cta = np.asarray(tids_in_cta, dtype=np.int64)
        launch_bools = tids_in_cta < kernel.cta_size
        self.fwarp = FunctionalWarp(
            warp_id=wid,
            width=width,
            nregs=kernel.nregs,
            # Clamp out-of-range tids (partial warps); those threads are
            # masked out of the launch mask and never execute.
            tids_in_cta=np.minimum(tids_in_cta, kernel.cta_size - 1),
            cta_index=cta_id,
            shared=shared,
        )
        self.fwarp.launch_mask = launch_bools
        self.launch_mask = bools_to_mask(launch_bools)
        self.model = make_divergence_model(config, self.launch_mask, self.lane_perm)
        self.scoreboard: ScoreboardBase = make_scoreboard(
            config.scoreboard_kind, config.scoreboard_entries
        )
        # Matrix scoreboards track per-context rows, so issue and
        # barrier release must feed them slot transitions (hoisted
        # from a per-issue string compare).
        self.matrix_sb = self.scoreboard.kind == "matrix"
        self.last_issue_cycle = -1
        self.done = False
        # Sorted split wake-up cycles, valid while the divergence
        # model's mutation counter equals ``wake_version`` (see
        # StreamingMultiprocessor.next_event_cycle).
        self.wake_cache: Sequence[int] = ()
        self.wake_version = -1
        # The warp's instruction-buffer ways, shared with (and owned
        # by) the SM's FetchEngine; bound at CTA launch so schedulers
        # probe the buffer without a dict lookup per readiness check.
        self.ibuf: Sequence = ()
        # Absolute stall cycles: hot slot N has no ready instruction
        # (stall0/stall1), or fetch has nothing to do (fetch_stall),
        # before the stored cycle.  Every event that could wake the
        # warp clears them — divergence-model changes through the
        # model's on_change hook (bound by the SM at launch), and
        # scoreboard add/release plus instruction-buffer fill/consume
        # at their call sites.  Time-gated stalls (decode, branch
        # redirect, the SBI settle wake) store their retry cycle.
        self.stall0 = 0
        self.stall1 = 0
        self.fetch_stall = 0

    def __repr__(self) -> str:
        return "TimingWarp(wid=%d, cta=%d%s)" % (
            self.wid,
            self.cta_id,
            ", done" if self.done else "",
        )
