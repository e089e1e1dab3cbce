"""Clean counterparts of the wake-site-discipline fixtures (never imported)."""


class TimingWarp:
    __slots__ = ("issue_woken", "timer", "cand0", "_issue_wakes")

    def wake_issue(self):
        if not self.issue_woken:
            self.issue_woken = True  # the helper itself: the one door
            self._issue_wakes.append(self)


class Pipeline:
    __slots__ = ("warps",)

    def writeback(self, warp):
        warp.wake_issue()

    def fill(self, warp, now):
        warp.wake_at(now + 1)
        ready = warp.issue_woken  # reads are free


class ToyScheduler:
    __slots__ = ("woken", "pool")

    def _refresh(self, warp, cand):
        warp.cand0 = cand  # the verdict-recording site
        warp.issue_woken = False

    def tick(self, warp):
        self.pool.remove(warp.cand0)
        warp.cand0 = None  # issued: the entry is consumed, no probe needed


class FetchEngine:
    __slots__ = ("woken",)

    def tick(self, warp):
        warp.fetch_woken = False  # the visit's own verdict
