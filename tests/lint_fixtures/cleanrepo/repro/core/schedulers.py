"""Clean counterparts of the registry fixtures (never imported)."""

from repro.core.policy import POLICIES
from repro.core.policy.events import ORIGIN_SBI, ORIGIN_SWI


def fill(origin, sm, warp, split, entry, now, group):
    if origin == ORIGIN_SBI:  # constant from the vocabulary module
        sm.issue(warp, 1, split, entry, now, ORIGIN_SWI, group)


def install(spec):
    POLICIES.register("mine", spec)  # the Registry API
    return POLICIES.names()
