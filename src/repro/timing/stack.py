"""Baseline IPDOM reconvergence stack (paper section 2).

The classic Tesla/Fermi mechanism: on a divergent branch the current
context is replaced by a *reconvergence placeholder* at the immediate
post-dominator plus one context per outcome; the top of stack executes;
a context reaching its reconvergence PC pops, and the placeholder
(holding the union mask) resumes converged execution.

Only the top of stack is runnable, so divergent paths serialise — the
behaviour SBI removes.  Unstructured control flow (no post-dominator
before exit) pushes contexts with ``rpc=None`` which pop only when all
their threads exit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.timing.divergence import DivergenceModel, Split


class StackModel(DivergenceModel):
    """One runnable split: the top of the reconvergence stack."""

    __slots__ = ("stack",)

    def __init__(self, launch_mask: int, lane_perm: Sequence[int]) -> None:
        super().__init__(launch_mask, lane_perm)
        self.stack: List[Split] = [Split(0, launch_mask, self.lane_perm, rpc=None)]

    # -- views -----------------------------------------------------------

    def hot_splits(self, now: int) -> List[Split]:
        hot = self._hot_cache
        if hot is None:
            if not self.stack:
                hot = []
            else:
                top = self.stack[-1]
                hot = [] if top.parked else [top]
            self._hot_cache = hot
        return hot

    def all_splits(self) -> Iterable[Split]:
        return iter(self.stack)

    # -- helpers ----------------------------------------------------------

    def _pc_moved(self) -> None:
        """After a PC-only change: the views hold unless the top of
        stack now stands at its reconvergence point."""
        top = self.stack[-1]
        if top.pc == top.rpc:  # never true for rpc=None
            self._touch()
            self._pop_reconverged()
        else:
            self._moved()

    def _pop_reconverged(self) -> None:
        """Pop contexts that reached their reconvergence point."""
        while self.stack:
            top = self.stack[-1]
            if top.rpc is not None and top.pc == top.rpc:
                self.stack.pop()
                self.merge_count += 1
            else:
                break

    def check_invariants(self) -> None:
        """The stack's entries cover the launch mask minus exited
        threads.  They are nested, not disjoint: the bottom placeholder
        holds the union of everything above it."""
        live = 0
        for s in self.stack:
            live |= s.mask
        expected = self.launch_mask & ~self.exited_mask
        if live != expected:
            raise AssertionError("live %#x != expected %#x" % (live, expected))

    # -- mutation ----------------------------------------------------------

    def branch(
        self,
        split: Split,
        taken_mask: int,
        target_pc: int,
        reconv_pc: Optional[int],
        now: int,
    ) -> bool:
        """Branch the top of stack.  On divergence the top becomes an
        IPDOM placeholder holding both outcomes' threads, under the
        fall-through context, under ``split`` itself as the taken one."""
        stack = self.stack
        if split is not stack[-1]:
            raise AssertionError("stack model can only branch the top of stack")
        ft = self._split_off(split, taken_mask, target_pc)
        if ft is None:
            self._pc_moved()
            return False
        stack.pop()
        if reconv_pc is not None:
            stack.append(Split(reconv_pc, split.mask | ft.mask, self.lane_perm, rpc=split.rpc))
            split.rpc = reconv_pc
        ft.rpc = split.rpc
        stack.append(ft)
        stack.append(split)
        # An empty taken path (if-without-else jumping straight to the
        # reconvergence point) merges immediately.
        self._pop_reconverged()
        return True

    def advance(self, split: Split, now: int) -> None:
        # _pc_moved() and _moved() in this frame: once per issue.
        split.pc += 1
        top = self.stack[-1]
        if top.pc == top.rpc:
            self._touch()
            self._pop_reconverged()
        else:
            self.version += 1
            cb = self.on_change
            if cb is not None:
                cb()

    def exit_threads(self, split: Split, mask: int, now: int) -> None:
        super().exit_threads(split, mask, now)
        for entry in self.stack:
            entry.set_mask(entry.mask & ~mask)
        self.stack = [e for e in self.stack if e.mask]
        self._pop_reconverged()

    def unpark_all(self, now: int) -> None:
        self._release([e for e in self.stack if e.parked])
        self._pop_reconverged()
