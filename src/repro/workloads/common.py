"""Shared workload plumbing: instances, references, helpers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.functional.interp import run_kernel
from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel, KernelBuilder

#: Valid workload sizes.
SIZES = ("tiny", "bench", "full")

#: Accepted spellings that map onto a canonical size.  ``smoke`` is
#: the CI / CLI name for the smallest grids; normalising it up front
#: keeps the experiment caches keyed on one canonical string.
SIZE_ALIASES = {"smoke": "tiny"}


@dataclass
class Instance:
    """One built workload at one ``size``: kernel + initialised memory
    + outputs.

    ``outputs`` lists (label, byte address, word count) regions whose
    final contents define functional correctness.  ``numpy_check``,
    when present, validates those regions against an independent numpy
    model of the algorithm (raises AssertionError on mismatch).  The
    memory is the instance's own; the kernel, outputs and check are
    shared by every instance :func:`repro.workloads.get_workload`
    hands out for the workload and size.
    """

    name: str
    kernel: Kernel
    memory: MemoryImage
    outputs: List[Tuple[str, int, int]]
    numpy_check: Optional[Callable[[MemoryImage], None]] = None
    size: str = "bench"

    def fresh(self) -> "Instance":
        """A new instance with untouched memory (runs mutate memory)."""
        from repro.workloads.suite import get_workload

        return get_workload(self.name, self.size)

    def reference_outputs(self) -> Dict[str, np.ndarray]:
        """Final output regions per the reference interpreter."""
        ref = self.fresh()
        run_kernel(ref.kernel, ref.memory)
        return {
            label: ref.memory.read_array(addr, count)
            for label, addr, count in ref.outputs
        }

    def read_outputs(self) -> Dict[str, np.ndarray]:
        return {
            label: self.memory.read_array(addr, count)
            for label, addr, count in self.outputs
        }


def normalize_size(size: str) -> str:
    """Canonical size name, resolving aliases (``smoke`` -> ``tiny``).

    Raises a ValueError naming every accepted spelling, so a CLI typo
    surfaces as a one-line fix rather than a KeyError deep in a
    workload builder.
    """
    canonical = SIZE_ALIASES.get(size, size)
    if canonical not in SIZES:
        accepted = list(SIZES) + sorted(SIZE_ALIASES)
        raise ValueError(
            "unknown size %r: choose one of %s" % (size, ", ".join(accepted))
        )
    return canonical


def check_size(size: str) -> None:
    """Builders take canonical sizes only (their parameter tables are
    keyed on them); aliases are resolved earlier by
    :func:`repro.workloads.get_workload` via :func:`normalize_size`."""
    if size not in SIZES:
        raise ValueError("size must be one of %s, got %r" % (SIZES, size))


def rng(name: str, size: str) -> np.random.Generator:
    """Deterministic per-(workload, size) random source.

    Seeded by a stable digest — ``hash()`` is randomised per process,
    which would rebuild different workload data in every session and
    silently invalidate the on-disk experiment cache.
    """
    digest = hashlib.sha256(("%s/%s" % (name, size)).encode()).digest()
    seed = int.from_bytes(digest[:4], "little")
    return np.random.default_rng(seed)


def emit_global_tid(kb: KernelBuilder, dst) -> None:
    """``dst = ctaid * ntid + tid`` (global thread index)."""
    kb.mov(dst, kb.tid)
    kb.mad(dst, kb.ctaid, kb.ntid, dst)


def emit_byte_index(kb: KernelBuilder, dst, idx) -> None:
    """``dst = idx * 4`` (word index to byte offset)."""
    kb.mul(dst, idx, 4)


#: LCG constants small enough that products stay exact in float64.
LCG_A = 1665
LCG_C = 101
LCG_MASK = (1 << 20) - 1


def emit_lcg(kb: KernelBuilder, state) -> None:
    """Advance an in-register LCG: ``state = (a*state + c) & mask``."""
    kb.mad(state, state, LCG_A, LCG_C)
    kb.and_(state, state, LCG_MASK)


def lcg_next(state: np.ndarray) -> np.ndarray:
    """Numpy twin of :func:`emit_lcg` for reference checks."""
    return (state * LCG_A + LCG_C).astype(np.int64) & LCG_MASK
