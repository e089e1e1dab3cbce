"""The closed vocabulary of observer event names.

Every string that crosses the observer boundary — issue origins,
memory-event levels, and the event *kind* tags observers may use to
label unified streams — is defined here and nowhere else.  Emit sites
(:mod:`repro.core.sm`, :mod:`repro.core.gpu`, the schedulers) and
consumers must reference these constants rather than re-typing the
literals; the SM's issue accounting and the ``origins`` aggregator
refuse an issue origin outside :data:`ISSUE_ORIGINS`, so a typo'd
origin is a loud error instead of a silently uncounted event.

This module is a pure leaf: it imports nothing, so any layer
(including :mod:`repro.timing`) may import it without cycles.
"""

from __future__ import annotations

from typing import Tuple

# -- issue origins (IssueEvent.origin, Stats issue-slot counters) ------

#: The primary scheduler slot issued the instruction.
ORIGIN_PRIMARY: str = "primary"
#: SBI: the same warp's CPC2 co-issued through the dual front-end.
ORIGIN_SBI: str = "sbi"
#: SWI: another warp's split filled the free lanes.
ORIGIN_SWI: str = "swi"

#: Every valid ``IssueEvent.origin`` value.
ISSUE_ORIGINS: Tuple[str, ...] = (ORIGIN_PRIMARY, ORIGIN_SBI, ORIGIN_SWI)

# -- memory-event levels (MemEvent.level) ------------------------------

#: Per-SM L1 miss events.
LEVEL_L1: str = "l1"
#: Device-level L2 miss events.
LEVEL_L2: str = "l2"

#: Every valid ``MemEvent.level`` value.
MEM_LEVELS: Tuple[str, ...] = (LEVEL_L1, LEVEL_L2)

# -- event kinds (observer-side stream labels) -------------------------

KIND_ISSUE: str = "issue"
KIND_RETIRE: str = "retire"
KIND_SPLIT: str = "split"
KIND_L1_MISS: str = "l1_miss"
KIND_L2_MISS: str = "l2_miss"

#: Every event kind an :class:`~repro.core.policy.Observer` can see.
EVENT_KINDS: Tuple[str, ...] = (
    KIND_ISSUE,
    KIND_RETIRE,
    KIND_SPLIT,
    KIND_L1_MISS,
    KIND_L2_MISS,
)
