"""Instruction buffers and the fetch/decode engine.

Each warp owns a small pool of instruction-buffer entries, its
``TimingWarp.ibuf`` ways (one per hot context: one in the baseline,
two for SBI's dual front-end).  Entries are *tagged by PC*, not bound
to a context slot: when the HCT sorter swaps the primary and secondary
contexts (their PCs cross, which happens constantly around loop back
edges), the buffered instructions remain valid for whichever slot the
split now occupies — exactly like a real per-warp instruction buffer
indexed by warp id.

The fetch engine refills up to ``fetch_width`` unmatched entries per
cycle (the baseline's two fetch-decode units, Figure 1), round-robin
over warps.  A fetched instruction decodes in one cycle: it can issue
from ``fetch_cycle + 1``.  Branch redirects gate fetch through
``Split.redirect_ready_at``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import List

from repro.isa.instructions import Instruction

_wid = attrgetter("wid")


class IBufEntry:
    """One instruction waiting in a warp's buffer pool, fetched at
    ``fetch_cycle`` and decoded (issuable) from the cycle after."""

    __slots__ = ("pc", "instr", "fetch_cycle")

    def __init__(self, pc: int, instr: Instruction, fetch_cycle: int) -> None:
        self.pc = pc
        self.instr = instr
        self.fetch_cycle = fetch_cycle


class FetchEngine:
    """Shared fetch/decode bandwidth across all warps.

    It fills the ways each warp owns (``TimingWarp.ibuf``, one list
    per warp, indexed by way); the scheduler's readiness predicate
    matches their tags and the SM's issue clears the way it consumed.
    """

    __slots__ = (
        "program",
        "fetch_width",
        "hot_capacity",
        "woken",
        "_uncontended",
        "_sorted",
        "_rr",
    )

    def __init__(self, program, fetch_width: int, hot_capacity: int) -> None:
        self.program = program.instructions
        self.fetch_width = fetch_width
        self.hot_capacity = hot_capacity
        # How many woken warps a tick is certain to serve in full.
        self._uncontended = max(1, fetch_width // hot_capacity)
        self._rr = 0
        #: Warps whose fetch verdict must be (re)derived: appended by
        #: :meth:`TimingWarp.wake`, pruned by :meth:`tick`.
        self.woken: List = []
        # Length of ``woken`` when :meth:`tick` last left it in warp-id
        # order (wakes only append, so a longer list needs a sort).
        self._sorted = 0

    # ------------------------------------------------------------------

    def tick(self, now: int, warps: List) -> int:
        """Refill unmatched buffers; returns the number of fetches.

        ``warps`` is the SM's live-warp list (warp-id order); the
        round-robin pointer advances one position in it per tick and
        names where this cycle's service order starts.  Only warps on
        the ``woken`` list are visited, in that order: a warp leaves
        the list once a visit has looked at all its hot splits (each
        now has a matching tag, or is parked, frozen, behind a
        redirect gate or without a victim way) and comes back through
        :meth:`TimingWarp.wake` — a divergence-model change, an issue
        consuming an entry, a CTA launch — or through the timed wake
        its visit registered (the redirect gate, capped at the SBI
        model's settle wake).  A warp the bandwidth limit cut short or
        never reached stays listed.

        With no more warps woken than the bandwidth serves in full
        (``fetch_width // hot_capacity``) order cannot matter (pools
        are age-sorted, timer keys unique, no pseudo-random draw is
        taken here): the list is visited unsorted.

        One pass per warp: each eligible hot split lacking a matching
        tag fetches into an empty way, else into a way whose tag
        matches no hot PC.  Unless a probe is queued already, a fill is
        its split's readiness verdict: *no* while the scoreboard refuses
        it (kept for the release, ``ScoreboardBase.refused``), else *yes*
        from the next cycle — recorded for slot 0
        (:meth:`TimingWarp.ready`), a wake of the issue side for slot 1.
        """
        if not warps:
            return 0
        woken = self.woken
        rr = self._rr
        self._rr = rr + 1
        if not woken:
            return 0
        count = len(woken)
        at = 0
        if count > self._uncontended:
            # Warp ids ascending from the pointer's warp, wrapping (the
            # list is in warp-id order, new wakes appended behind it).
            if count != self._sorted:
                woken.sort(key=_wid)
            at = bisect_left(woken, warps[rr % len(warps)].wid, key=_wid)
        order = woken[at:] + woken[:at] if at else woken
        fetched = 0
        cap = self.hot_capacity
        width = self.fetch_width
        instrs = self.program
        left = ()  # warps left without a verdict (cut short, or never reached)
        for warp in order:
            if fetched >= width:
                left = order[order.index(warp):]  # the rest wait their turn
                break
            if warp.done:
                warp.fetch_woken = False
                continue
            model = warp.model
            hot = model._hot_cache or model.hot_splits(now)
            ways = warp.ibuf
            retry = model._settle_wake  # or a gate that opens before it
            for split in hot:
                if fetched >= width:
                    break  # out of bandwidth mid-warp: no verdict
                if split.parked or split.pending:
                    continue
                gate = split.redirect_ready_at
                if gate > now:
                    if gate < retry:
                        retry = gate
                    continue
                pc = split.pc
                # Victim: an empty way, else one matching no hot PC (a
                # single way: whatever it holds, if not this PC).
                if cap == 1:
                    entry = ways[0]
                    if entry is not None and entry.pc == pc:
                        continue  # tag matched: nothing to fetch
                    victim = 0
                else:
                    victim = None
                    for vi, entry in enumerate(ways):
                        if entry is None:
                            if victim is None:
                                victim = vi
                        elif entry.pc == pc:
                            victim = -1  # tag matched: nothing to fetch
                            break
                    if victim is None:
                        hot_pcs = [s.pc for s in hot]
                        for vi, entry in enumerate(ways):
                            if entry.pc not in hot_pcs:
                                victim = vi
                                break
                    if victim is None or victim < 0:
                        continue
                instr = instrs[pc]
                entry = IBufEntry.__new__(IBufEntry)  # __init__'s work, without its frame
                entry.pc = pc
                entry.instr = instr
                entry.fetch_cycle = now
                ways[victim] = entry
                fetched += 1
                if not warp.issue_woken:
                    # Issuable next cycle, unless the scoreboard says no;
                    # a slot-0 yes joins the ready set as is.
                    board = warp.scoreboard
                    if board._dst_mask & instr.hazard_mask and not (
                        board.can_issue(instr, split.mask, 0 if split is hot[0] else 1)
                    ):
                        board.refused(0 if split is hot[0] else 1, split, entry, model.version)
                    elif split is hot[0] and (
                        instr.dst is None or len(board.entries) < board.capacity
                    ):
                        warp.ready(split, entry)
                    else:
                        warp.wake_issue()
            else:
                # Every hot split was looked at: whatever is still
                # unmatched waits for a gate or for a wake.
                warp.fetch_woken = False
                if retry < warp.timer:
                    warp.wake_at(retry)
                continue
            left = order[order.index(warp):]
            break
        # Survivors are in service order: a rotation of warp-id order
        # (to be re-sorted) unless the pointer stood at the front.
        woken[:] = left
        self._sorted = -1 if at else len(woken)
        return fetched
