"""Seeded violations for wake-site-discipline (never imported)."""


class Pipeline:
    __slots__ = ("warps",)

    def writeback(self, warp):
        warp.issue_woken = True  # wake-site-discipline (a hand-kept wake site)
        warp.stall0 = 0  # wake-site-discipline (the retired stall memo)

    def fill(self, warp, now):
        warp.timer = now + 1  # wake-site-discipline (timer set around wake_at)
        warp.fetch_woken |= True  # wake-site-discipline (augmented write)

    def tick(self, warp):
        warp.cand0 = None  # wake-site-discipline (tick, but of no scheduler)


def record(warp, cand):
    warp.cand0 = cand  # wake-site-discipline (a verdict recorded outside _refresh)


class ToyScheduler:
    __slots__ = ("woken",)

    def _probe(self, warp, cand):
        warp.cand1 = cand  # wake-site-discipline (the retired recording site)

    def tick(self, warp):
        warp.cand0 = None
        warp.issue_woken = True  # wake-site-discipline (a pick may drop, not wake)


class FetchEngine:
    __slots__ = ("woken",)

    def tick(self, warp):
        warp.fetch_woken = False
        warp.issue_woken = True  # wake-site-discipline (a fill hands a verdict over, not a wake)
