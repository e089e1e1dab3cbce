"""Clean counterpart of the analytics vocabulary fixture (never imported)."""

from repro.core.policy import IssueEvent
from repro.core.policy.events import ORIGIN_SBI, ORIGIN_SWI


class Aggregator:
    def on_issue(self, event):
        if event.origin == ORIGIN_SBI:  # constant from the vocabulary module
            self.sbi += 1

    def as_swi(self, event):
        return IssueEvent(
            event.cycle, event.sm_id, event.wid, event.pc, ORIGIN_SWI,
            event.mask, event.group, event.active,
        )
