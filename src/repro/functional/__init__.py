"""Functional SIMT simulator — the reproduction's Barra substrate.

Provides vectorised per-warp execution of the reproduction ISA over
numpy register files, a flat global-memory image, per-CTA shared
memory, and a reference interpreter (:func:`repro.functional.interp.run_kernel`)
that executes kernels to completion with thread-frontier scheduling,
independently of the timing pipeline.  The timing model and the
reference interpreter share :class:`repro.functional.executor.Executor`
and its one entry, ``Executor.execute(instr, warp, mask)`` on an int
bit-mask, so any timing-model scheduling decision that violated SIMT
semantics would show up as a divergence from the reference.  Every
instruction runs a plan: compiled (the default) or the interpreter
bound to it (``compiled=False``), bit-identical either way.
"""

from repro.functional.memory import MemoryImage, SharedMemory
from repro.functional.executor import Executor, FunctionalWarp, ExecOutcome
from repro.functional.interp import run_kernel

__all__ = [
    "ExecOutcome",
    "Executor",
    "FunctionalWarp",
    "MemoryImage",
    "SharedMemory",
    "run_kernel",
]
