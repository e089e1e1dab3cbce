"""Seeded violations for the hot-path rules (never imported)."""

from dataclasses import dataclass


class PerCycleThing:  # hot-path-slots (no __slots__)
    def __init__(self, value):
        self.value = value


@dataclass
class PerCycleRecord:  # hot-path-slots (dataclass without slots=True)
    cycle: int = 0
