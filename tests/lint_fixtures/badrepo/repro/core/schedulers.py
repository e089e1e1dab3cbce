"""Seeded violations for registry-discipline (never imported)."""

from repro.core.policy import POLICIES


def install(spec):
    POLICIES["mine"] = spec  # registry-discipline (subscript write)
    return POLICIES._entries  # registry-discipline (._entries access)
