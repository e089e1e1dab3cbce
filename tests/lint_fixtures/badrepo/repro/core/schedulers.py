"""Seeded violations for the registry rules (never imported)."""

from repro.core.policy import POLICIES


def fill(origin, sm, warp, split, entry, now, group):
    if origin == "sbi":  # observer-vocabulary (bare literal compare)
        sm.issue(warp, 1, split, entry, now, "swi", group)  # observer-vocabulary (arg)


def install(spec):
    POLICIES["mine"] = spec  # registry-discipline (subscript write)
    return POLICIES._entries  # registry-discipline (._entries access)
