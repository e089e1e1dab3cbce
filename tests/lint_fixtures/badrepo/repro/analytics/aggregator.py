"""Seeded observer-vocabulary violations for analytics (never imported)."""

from repro.core.policy import IssueEvent


class Aggregator:
    def on_issue(self, event):
        if event.origin == "sbi":  # observer-vocabulary (bare literal compare)
            self.sbi += 1

    def as_swi(self, event):
        return IssueEvent(  # observer-vocabulary (arg)
            event.cycle, event.sm_id, event.wid, event.pc, "swi",
            event.mask, event.group, event.active,
        )
