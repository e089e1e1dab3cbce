"""Thread-frontier reconvergence (Diamos et al., used by Warp64/SWI).

Warp-splits are kept ordered by PC and the minimum-PC split runs.
With thread-frontier-compatible code layout this reconverges at the
earliest possible point: a lagging split always has the smallest PC,
so it catches up, and two splits whose PCs meet merge immediately.
No placeholder contexts, no compiler reconvergence annotations —
reconvergence emerges from the scheduling order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.timing.divergence import DivergenceModel, Split, by_pc


class FrontierModel(DivergenceModel):
    """PC-sorted warp-splits; one runnable (the minimum PC)."""

    __slots__ = ("splits", "parked")

    def __init__(self, launch_mask: int, lane_perm: Sequence[int]) -> None:
        super().__init__(launch_mask, lane_perm)
        self.splits: List[Split] = [Split(0, launch_mask, self.lane_perm)]
        self.parked: List[Split] = []

    # -- views -----------------------------------------------------------

    def hot_splits(self, now: int) -> List[Split]:
        hot = self._hot_cache
        if hot is None:
            if self.splits:
                hot = [min(self.splits, key=by_pc)]
            else:
                hot = []
            self._hot_cache = hot
        return hot

    def all_splits(self) -> Iterable[Split]:
        yield from self.splits
        yield from self.parked

    # -- helpers -----------------------------------------------------------

    def _pc_moved(self, split: Split) -> None:
        """After a PC-only change of ``split``: if it is the warp's one
        runnable split, nothing can merge or overtake: the views hold."""
        splits = self.splits
        if splits[0] is split and splits[-1] is split:
            self._moved()
        else:
            self._touch()
            self._try_merge(split)

    def _try_merge(self, split: Split) -> None:
        """Fold ``split`` into a same-PC runnable sibling if possible."""
        if split.pending:
            return
        for other in self.splits:
            if other is split or other.pending:
                continue
            if other.pc == split.pc:
                self._fold(other, split)
                self.splits.remove(split)
                return

    # -- mutation ----------------------------------------------------------

    def branch(
        self,
        split: Split,
        taken_mask: int,
        target_pc: int,
        reconv_pc: Optional[int],
        now: int,
    ) -> bool:
        sibling = self._split_off(split, taken_mask, target_pc)
        if sibling is None:
            self._pc_moved(split)
            return False
        self.splits.append(sibling)
        self._try_merge(sibling)
        if split in self.splits:
            self._try_merge(split)
        return True

    def advance(self, split: Split, now: int) -> None:
        # _pc_moved() and _moved() in this frame: once per issue.
        split.pc += 1
        splits = self.splits
        if splits[0] is split and splits[-1] is split:
            self.version += 1
            cb = self.on_change
            if cb is not None:
                cb()
        else:
            self._touch()
            self._try_merge(split)

    def exit_threads(self, split: Split, mask: int, now: int) -> None:
        super().exit_threads(split, mask, now)
        if not split.mask:
            self.splits.remove(split)

    def park(self, split: Split, now: int) -> None:
        super().park(split, now)
        self.splits.remove(split)
        self.parked.append(split)

    def unpark_all(self, now: int) -> None:
        parked = self.parked
        self._release(parked)
        self.splits += parked
        parked.clear()
        for split in list(self.splits):
            if split in self.splits:
                self._try_merge(split)
