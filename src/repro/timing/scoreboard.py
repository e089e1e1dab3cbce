"""Scoreboards: warp-granular, exact-mask, and dependency-matrix.

The baseline tracks in-flight destination registers per warp (6
entries, paper Table 2) and stalls any instruction whose sources or
destination match — warp-granular, so disjoint warp-splits create
false dependencies.

SBI needs finer tracking because threads "jump" between warp-splits at
divergence and reconvergence: a dependency exists only if *common
threads* execute both instructions.  Two implementations:

* :class:`MaskScoreboard` — the brute-force design the paper mentions:
  store the execution mask of every in-flight instruction; dependency
  iff register match AND mask intersection.  Exact; used as the
  reference in property tests.
* :class:`MatrixScoreboard` — the paper's design (section 3.4, Figure
  6): each entry keeps a 3-slot boolean row saying which of the
  current contexts (primary, secondary, rest-of-heap ``I3``) still
  contain threads that executed the entry.  Rows are advanced by
  multiplying with the per-cycle transition matrix ``D(t, t+1)`` of
  the divergence-convergence graph.  Storage is independent of warp
  width; the closure is conservative (may flag a dependency between
  disjoint splits after a merge-then-split chain) but never unsafe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.isa.instructions import Instruction
from repro.timing.divergence import Split
from repro.timing.fetch import IBufEntry

#: Number of context slots tracked by the matrix scoreboard:
#: primary (CPC1), secondary (CPC2), and I3 = everything else.
N_SLOTS = 3

Transition = Tuple[Tuple[bool, bool, bool], ...]

#: The row of an entry fresh from context slot 0, 1, 2 (only that slot
#: holds its threads); shared, since ``on_transition`` rebinds rows.
_UNIT_ROWS = tuple(
    tuple(i == slot for i in range(N_SLOTS)) for slot in range(N_SLOTS)
)


class Entry:
    """One in-flight instruction's scoreboard record: its destination
    register, thread mask and context row.  Made by
    :meth:`ScoreboardBase.add` alone."""

    __slots__ = ("dst", "mask", "row")


class ScoreboardBase:
    """Per-warp dependency tracking with bounded entries.

    ``entries`` holds one :class:`Entry` per in-flight destination
    register, at most ``capacity``; :meth:`add` (the SM's issue) is
    its one writer and :meth:`release` (the writeback) its one remover.
    ``_dst_mask`` mirrors their registers as a bit-mask, so the common
    can-issue query resolves with a single AND against the
    instruction's cached read/write mask instead of walking entries; a
    release rebuilds it from what is left.  ``awaited`` is raised by a readiness verdict that was *no*
    on this scoreboard's account (hazard, or no room; the scheduler's
    probe, or the fetch engine's fill): only then can a release change
    what the warp may issue, so only then does the SM act on it (and
    lower the flag); a slot-0 refusal is kept (:meth:`refused`) for a
    release to re-check alone.
    """

    __slots__ = ("capacity", "entries", "awaited", "_dst_mask")

    kind = "base"

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: List[Entry] = []
        self.awaited: Union[bool, Tuple[Split, IBufEntry, int]] = False
        self._dst_mask = 0

    # -- dependency query ---------------------------------------------

    def _conflicts(self, entry: Entry, mask: int, slot: int) -> bool:
        raise NotImplementedError

    def can_issue(self, instr: Instruction, mask: int, slot: int) -> bool:
        """True when ``instr`` (for threads ``mask``, context ``slot``)
        has room for its destination and no RAW/WAW hazard against
        in-flight instructions."""
        entries = self.entries
        if instr.dst is not None and len(entries) >= self.capacity:
            return False
        if not entries or not (self._dst_mask & instr.hazard_mask):
            return True
        sources = instr.hazard_regs
        dst = instr.dst
        for entry in entries:
            if entry.dst in sources or (dst is not None and entry.dst == dst):
                if self._conflicts(entry, mask, slot):
                    return False
        return True

    def refused(self, slot: int, split: Split, entry: IBufEntry, version: int) -> None:
        """A verdict said *no* on this scoreboard's account: a lone slot-0
        refusal is kept as ``(split, entry, model version)``, else ``True``."""
        if slot or self.awaited is True:
            self.awaited = True
        else:
            self.awaited = (split, entry, version)

    # -- lifecycle ------------------------------------------------------

    def add(self, instr: Instruction, mask: int, slot: int) -> Optional[Entry]:
        """Record ``instr`` in flight for threads ``mask`` from context
        ``slot``; returns the entry its writeback releases (None for an
        instruction without a destination)."""
        dst = instr.dst
        if dst is None:
            return None
        entry = Entry.__new__(Entry)  # once per issue: no __init__ frame
        entry.dst = dst
        entry.mask = mask
        entry.row = _UNIT_ROWS[slot]
        self.entries.append(entry)
        self._dst_mask |= 1 << dst
        return entry

    def release(self, entry: Entry) -> None:
        entries = self.entries
        if entry in entries:  # a second release is a no-op
            entries.remove(entry)
            dst_mask = 0
            for left in entries:
                dst_mask |= 1 << left.dst
            self._dst_mask = dst_mask

    def on_transition(self, transition: Transition) -> None:
        """Advance context rows after a divergence/merge event."""
        # Only the matrix scoreboard uses transitions.

    def __len__(self) -> int:
        return len(self.entries)


class WarpScoreboard(ScoreboardBase):
    """Baseline: any register match is a dependency (warp-granular)."""

    __slots__ = ()

    kind = "warp"

    def can_issue(self, instr: Instruction, mask: int, slot: int) -> bool:
        # Every register match conflicts: the prefilter is the answer.
        if instr.dst is not None and len(self.entries) >= self.capacity:
            return False
        return not self._dst_mask & instr.hazard_mask


class MaskScoreboard(ScoreboardBase):
    """Exact: dependency iff the thread masks intersect."""

    __slots__ = ()

    kind = "mask"

    def _conflicts(self, entry: Entry, mask: int, slot: int) -> bool:
        return (entry.mask & mask) != 0


class MatrixScoreboard(ScoreboardBase):
    """The paper's transitive-closure scoreboard (section 3.4)."""

    __slots__ = ()

    kind = "matrix"

    def _conflicts(self, entry: Entry, mask: int, slot: int) -> bool:
        return entry.row[slot]

    def on_transition(self, transition: Transition) -> None:
        for entry in self.entries:
            row = entry.row
            entry.row = tuple(
                any(row[i] and transition[i][j] for i in range(N_SLOTS))
                for j in range(N_SLOTS)
            )


def make_scoreboard(kind: str, capacity: int) -> ScoreboardBase:
    if kind == "warp":
        return WarpScoreboard(capacity)
    if kind == "mask":
        return MaskScoreboard(capacity)
    if kind == "matrix":
        return MatrixScoreboard(capacity)
    raise ValueError("unknown scoreboard kind %r" % kind)


def build_transition(
    old_masks: Sequence[int], new_masks: Sequence[int]
) -> Transition:
    """``D(t, t+1)``: ``T[i][j]`` = some thread moved slot i -> slot j."""
    n0, n1, n2 = new_masks
    return tuple((old & n0 != 0, old & n1 != 0, old & n2 != 0) for old in old_masks)
