"""Clean counterparts of the hot-path fixtures (never imported)."""

from dataclasses import dataclass


class PerCycleThing:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@dataclass(slots=True)
class PerCycleRecord:
    cycle: int = 0


class SlottedSub(PerCycleThing):
    __slots__ = ()  # subclass of a slotted base stays slotted


class CustomError(ValueError):
    """Exceptions are exempt from the slots requirement."""
