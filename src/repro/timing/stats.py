"""Run statistics.

``thread_instructions / cycles`` is the IPC metric of paper Figure 7
(thread instructions per cycle on the SM).  Issue-slot counters split
by origin (primary, SBI secondary, SWI secondary) support Figure 8a's
instruction-issue accounting, and the memory counters feed sanity
checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List


@dataclass(slots=True)
class Stats:
    """Counters for one simulation run."""

    cycles: int = 0
    busy_cycles: int = 0

    # Instruction accounting.
    instructions_issued: int = 0
    thread_instructions: int = 0
    issued_primary: int = 0
    issued_sbi_secondary: int = 0
    issued_swi_secondary: int = 0
    per_op_class: Dict[str, int] = field(default_factory=dict)

    # Control flow.
    branches: int = 0
    divergent_branches: int = 0
    merges: int = 0
    max_live_splits: int = 0
    sync_suspensions: int = 0

    # SWI scheduler.
    swi_lookups: int = 0
    swi_hits: int = 0
    scheduler_conflicts: int = 0

    # Memory system.  ``dram_bytes`` counts traffic *below this SM's
    # L1* (miss fills + write-through); on a private channel that is
    # DRAM traffic, but under a shared L2 some of it is absorbed —
    # device-level DRAM bytes live in :class:`DeviceStats`.
    l1_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    dram_bytes: float = 0.0
    global_transactions: int = 0
    shared_transactions: int = 0
    memory_replays: int = 0

    # Occupancy.
    ctas_launched: int = 0
    warps_retired: int = 0

    @property
    def ipc(self) -> float:
        """Thread instructions per cycle (the paper's Figure 7 metric)."""
        return self.thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def issue_ipc(self) -> float:
        """Instruction issues per cycle (front-end utilisation)."""
        return self.instructions_issued / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def avg_active_threads(self) -> float:
        """Mean active threads per issued instruction (SIMD efficiency)."""
        if not self.instructions_issued:
            return 0.0
        return self.thread_instructions / self.instructions_issued

    def merge(self, other: "Stats") -> None:
        """Accumulate another SM's counters into this one.

        SMs run concurrently, so ``cycles`` (and the structural
        high-water mark ``max_live_splits``) take the max while every
        throughput counter sums; ``busy_cycles`` becomes total
        SM-busy-cycles across the device.
        """
        for name in _STATS_FIELDS:
            if name == "per_op_class":
                continue
            mine, theirs = getattr(self, name), getattr(other, name)
            if name in ("cycles", "max_live_splits"):
                setattr(self, name, max(mine, theirs))
            else:
                setattr(self, name, mine + theirs)
        for op, count in other.per_op_class.items():
            self.per_op_class[op] = self.per_op_class.get(op, 0) + count

    def to_dict(self) -> Dict:
        """JSON-serialisable form (see :meth:`from_dict`): equal to
        ``dataclasses.asdict``'s, without deep-copying each counter."""
        data = {name: getattr(self, name) for name in _STATS_FIELDS}
        data["per_op_class"] = dict(self.per_op_class)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Stats":
        stats = cls(**data)
        # A list of pairs would pass through ``to_dict``'s ``dict()``
        # and save as an object that no longer equals what was loaded.
        if not isinstance(stats.per_op_class, dict):
            raise TypeError("per_op_class is not an object: %r" % (stats.per_op_class,))
        return stats

    def summary(self) -> str:
        lines = [
            "cycles              %10d" % self.cycles,
            "instructions        %10d" % self.instructions_issued,
            "thread instructions %10d" % self.thread_instructions,
            "IPC                 %10.2f" % self.ipc,
            "issue IPC           %10.3f" % self.issue_ipc,
            "avg active threads  %10.2f" % self.avg_active_threads,
            "issue slots         primary=%d sbi=%d swi=%d"
            % (self.issued_primary, self.issued_sbi_secondary, self.issued_swi_secondary),
            "branches            %10d (%d divergent, %d merges)"
            % (self.branches, self.divergent_branches, self.merges),
            "L1                  %d accesses, %.1f%% hits"
            % (self.l1_accesses, 100.0 * self.l1_hit_rate),
            "traffic below L1    %10.0f bytes" % self.dram_bytes,
            "CTAs launched       %10d" % self.ctas_launched,
        ]
        return "\n".join(lines)


_STATS_FIELDS = tuple(f.name for f in fields(Stats))


@dataclass(slots=True)
class DeviceStats:
    """Statistics for one multi-SM device run.

    ``sm_stats`` keeps the per-SM :class:`Stats` (each with its own
    retire cycle); the ``total`` property aggregates them under the
    device-level cycle count, so ``DeviceStats.ipc`` is whole-device
    thread instructions per cycle.
    """

    cycles: int = 0
    sm_stats: List[Stats] = field(default_factory=list)

    # Shared memory system (zero when the L2 is disabled).
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l2_sector_fills: int = 0
    dram_bytes: float = 0.0

    @property
    def sm_count(self) -> int:
        return len(self.sm_stats)

    @property
    def total(self) -> Stats:
        """All SM counters summed, under the device cycle count."""
        merged = Stats()
        for s in self.sm_stats:
            merged.merge(s)
        merged.cycles = self.cycles
        return merged

    @property
    def thread_instructions(self) -> int:
        return sum(s.thread_instructions for s in self.sm_stats)

    @property
    def instructions_issued(self) -> int:
        return sum(s.instructions_issued for s in self.sm_stats)

    @property
    def ctas_launched(self) -> int:
        return sum(s.ctas_launched for s in self.sm_stats)

    @property
    def ipc(self) -> float:
        """Device thread instructions per cycle (Figure-7 metric x N)."""
        return self.thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    def to_dict(self) -> Dict:
        data = {name: getattr(self, name) for name in _DEVICE_FIELDS}
        data["sm_stats"] = [s.to_dict() for s in self.sm_stats]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "DeviceStats":
        data = dict(data)
        data["sm_stats"] = [Stats.from_dict(s) for s in data.get("sm_stats", [])]
        return cls(**data)

    def summary(self) -> str:
        lines = [
            "SMs                 %10d" % self.sm_count,
            "device cycles       %10d" % self.cycles,
            "thread instructions %10d" % self.thread_instructions,
            "device IPC          %10.2f" % self.ipc,
            "CTAs launched       %10d (%s per SM)"
            % (
                self.ctas_launched,
                "/".join(str(s.ctas_launched) for s in self.sm_stats),
            ),
            "L2                  %d accesses, %.1f%% hits"
            % (self.l2_accesses, 100.0 * self.l2_hit_rate),
            "DRAM traffic        %10.0f bytes" % self.dram_bytes,
        ]
        return "\n".join(lines)


_DEVICE_FIELDS = tuple(f.name for f in fields(DeviceStats))
