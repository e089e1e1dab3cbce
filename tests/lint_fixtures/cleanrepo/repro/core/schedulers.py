"""Clean counterpart of the registry-discipline fixture (never imported)."""

from repro.core.policy import POLICIES


def install(spec):
    POLICIES.register("mine", spec)  # the Registry API
    return POLICIES.names()
