"""Inline-suppression fixture: all findings here are excused."""

from repro.core.policy import POLICIES


def peek():
    return POLICIES._entries  # repro-lint: disable=registry-discipline


def peek_above():
    # repro-lint: disable=registry-discipline
    return POLICIES._entries


def install(spec):
    # repro-lint: disable=all
    POLICIES["mine"] = spec
