"""Dynamic warp resizing — a DWR-inspired reconvergence model.

Lashgar, Baniasadi & Khonsari ("Dynamic Warp Resizing in
High-Performance SIMT") observe that large warps amortise front-end
work under convergence but pay serialisation under divergence, and
propose resizing: run divergent code as independent narrow sub-warps,
re-gang them once control reconverges.

:class:`DWRModel` grafts that idea onto thread-frontier scheduling: a
64-wide warp executes as one full-width split while converged; a
divergent branch additionally slices each outcome split along fixed
``subwarp_width`` (32) lane windows, so each sub-warp chases
its own control path independently — a narrow sub-warp occupies only
its half of the execution group, which an SWI-style cascaded scheduler
can fill from another warp.  Merging is restricted to splits of the
same sub-warp window while any divergence is live; once every live
split stands at one PC the window restriction lifts and the sub-warps
regroup into a full-width split (the "resize up" step).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.timing.frontier import FrontierModel
from repro.timing.divergence import Split


class DWRModel(FrontierModel):
    """Frontier reconvergence with sub-warp slicing under divergence."""

    __slots__ = ("resize_downs", "resize_ups")

    #: Fixed sub-warp width: half of the paper's 64-wide warp, the
    #: baseline machine's native width.
    subwarp_width = 32

    def __init__(self, launch_mask: int, lane_perm: Sequence[int]) -> None:
        super().__init__(launch_mask, lane_perm)
        #: Sub-warp splits created (resize-down events).
        self.resize_downs = 0
        #: Cross-window merges performed at reconvergence (resize-ups).
        self.resize_ups = 0

    # -- sub-warp geometry ----------------------------------------------

    def _window(self, mask: int) -> Optional[int]:
        """Index of the sub-warp window containing ``mask``, or None
        when the mask spans several windows."""
        if not mask:
            return None
        w = self.subwarp_width
        index = (mask.bit_length() - 1) // w
        window_mask = ((1 << w) - 1) << (index * w)
        return index if not (mask & ~window_mask) else None

    def _subdivide(self, split: Split) -> None:
        """Slice ``split`` into one split per populated sub-warp window."""
        if split.pending or self._window(split.mask) is not None:
            return  # in flight, or already confined to one window
        w = self.subwarp_width
        mask = split.mask
        parts = []
        index = 0
        while mask:
            window_mask = ((1 << w) - 1) << (index * w)
            part = mask & window_mask
            if part:
                parts.append(part)
            mask &= ~window_mask
            index += 1
        split.set_mask(parts[0])
        for part in parts[1:]:
            sibling = Split(split.pc, part, self.lane_perm)
            sibling.redirect_ready_at = split.redirect_ready_at
            self.splits.append(sibling)
        self.resize_downs += len(parts) - 1

    # -- overrides -------------------------------------------------------

    def _try_merge(self, split: Split) -> None:
        """Same-PC merge, gated by sub-warp windows.

        While several PCs are live (divergence in flight) only splits
        of the *same* window may merge, keeping sub-warps independent;
        when one PC remains the warp has reconverged and cross-window
        merges regroup it to full width.
        """
        if split.pending or split not in self.splits:
            return
        reconverged = len({s.pc for s in self.splits}) == 1
        for other in self.splits:
            if other is split or other.pending or other.pc != split.pc:
                continue
            same_window = (
                self._window(split.mask) is not None
                and self._window(split.mask) == self._window(other.mask)
            )
            if not (reconverged or same_window):
                continue
            if not same_window:
                self.resize_ups += 1
            self._fold(other, split)
            self.splits.remove(split)
            return

    def branch(
        self,
        split: Split,
        taken_mask: int,
        target_pc: int,
        reconv_pc: Optional[int],
        now: int,
    ) -> bool:
        diverged = super().branch(split, taken_mask, target_pc, reconv_pc, now)
        if diverged:
            # Resize down: every live split spanning several windows is
            # sliced, so each sub-warp follows its own control path.
            for s in list(self.splits):
                self._subdivide(s)
        return diverged
