"""Memory images for the functional simulator.

Memory is word-addressable at 4-byte granularity (the data width of
every load/store in the ISA), with byte addresses at the interface to
match the coalescing rules of the timing model (128-byte transaction
blocks).  Word values are stored as ``float64`` — exact for the 32-bit
integer and float ranges the workloads use, and uniform with the
register file representation.

An image's words live on a private anonymous mapping: pages read as
zero until written, only written pages are resident, and the whole
mapping goes back to the OS when the image is dropped.  ``np.zeros``
would not do: once the first large array is freed, glibc's dynamic
mmap threshold rises past an image's size, and every later image is
carved from the C heap, zeroed in full and kept resident after it is
freed.  The mapping
is ``MAP_PRIVATE`` because Python's anonymous default is
``MAP_SHARED``, under which a forked process's writes would reach its
parent's image.
"""

from __future__ import annotations

import mmap
import operator

import numpy as np

#: Bytes per memory word (all loads/stores are one word).
WORD_BYTES = 4

#: ``WORD_BYTES`` as a 0-d ``int64`` array: a ufunc given a Python int
#: converts and promotes it on every call (at 64 lanes ``// 4`` then
#: takes 1.6 times as long).
_WORD_DIVISOR = np.array(WORD_BYTES, dtype=np.int64)
_WORD_DIVISOR.setflags(write=False)


class MemoryAccessError(Exception):
    """Out-of-range or misaligned access."""


#: Atomic read-modify-write combiners, by op name.
_ATOMIC_OPS = {"add": operator.add, "min": min, "max": max}


class MemoryImage:
    """Flat global memory with a bump allocator.

    The first 128 bytes are reserved so that address 0 stays invalid —
    it catches uninitialised-pointer bugs in kernels.
    """

    def __init__(self, size_bytes: int = 1 << 22) -> None:
        if (
            not isinstance(size_bytes, int)
            or isinstance(size_bytes, bool)
            or size_bytes < 0
            or size_bytes % WORD_BYTES
        ):
            raise ValueError(
                "image size must be an int >= 0 and a multiple of %d, got %r"
                % (WORD_BYTES, size_bytes)
            )
        self.size_bytes = size_bytes
        count = size_bytes // WORD_BYTES
        # One float64 per word; the kernel refuses a zero-length
        # mapping, so a zero-word image maps one byte it never views.
        pages = mmap.mmap(-1, max(count * 8, 1), flags=mmap.MAP_PRIVATE)
        self.words = np.frombuffer(pages, dtype=np.float64, count=count)
        self._next_free = 128

    # ------------------------------------------------------------------
    # Allocation and host-side array access
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 128) -> int:
        """Reserve ``nbytes`` and return the base byte address."""
        base = (self._next_free + align - 1) // align * align
        if base + nbytes > self.size_bytes:
            raise MemoryAccessError(
                "out of memory: need %d bytes at %d, have %d"
                % (nbytes, base, self.size_bytes)
            )
        self._next_free = base + nbytes
        return base

    def alloc_array(self, values: np.ndarray, align: int = 128) -> int:
        """Allocate and initialise from a 1-D numpy array (one word each)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        base = self.alloc(len(values) * WORD_BYTES, align)
        self.write_array(base, values)
        return base

    def write_array(self, addr: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        start = self._word_index(addr)
        self.words[start : start + len(values)] = values

    def read_array(self, addr: int, count: int) -> np.ndarray:
        start = self._word_index(addr)
        return self.words[start : start + count].copy()

    # ------------------------------------------------------------------
    # Device-side vector access
    # ------------------------------------------------------------------

    def _word_index(self, addr: int) -> int:
        if addr % WORD_BYTES:
            raise MemoryAccessError("misaligned address %d" % addr)
        if not 0 <= addr < self.size_bytes:
            raise MemoryAccessError("address %d out of range" % addr)
        return addr // WORD_BYTES

    def _word_indices(self, addrs: np.ndarray) -> np.ndarray:
        """Word index of every byte address, each checked to be
        aligned and in range.  One OR-fold decides both in the common
        case: a set low bit is a misaligned lane, and a fold in ``[0,
        size_bytes)`` bounds every lane (a negative lane makes it
        negative; it is never below the largest).  A fold past the end
        proves nothing (``0x1000 | 0x0FFC`` exceeds both), so only then
        is the largest lane read — a CTA's shared memory of 1 088 bytes
        folds to 2 044 on transpose — and only a refusal reads the
        smallest too, for its message.
        """
        if addrs.size == 0:
            return addrs.astype(np.int64)
        fold = int(np.bitwise_or.reduce(addrs))
        if fold & (WORD_BYTES - 1):
            raise MemoryAccessError("misaligned vector access")
        if not 0 <= fold < self.size_bytes:
            if fold < 0 or int(addrs.max()) >= self.size_bytes:
                lo = int(addrs.min())
                hi = int(addrs.max())
                raise MemoryAccessError(
                    "vector access out of range (min=%d max=%d size=%d)"
                    % (lo, hi, self.size_bytes)
                )
        return addrs // _WORD_DIVISOR

    def load(self, addrs: np.ndarray) -> np.ndarray:
        """Gather one word per byte address."""
        return self.words[self._word_indices(addrs)]

    def store(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Scatter one word per byte address (last writer wins on
        duplicate addresses, like hardware with an undefined order)."""
        self.words[self._word_indices(addrs)] = values

    def atomic(self, addrs: np.ndarray, values: np.ndarray, op: str) -> np.ndarray:
        """Serialised read-modify-write; returns the old values.

        Duplicate addresses are applied in thread order, which is a
        legal serialisation of the atomic semantics.
        """
        combine = _ATOMIC_OPS.get(op)
        if combine is None:
            # Before any lane is touched, and with zero lanes too.
            raise ValueError("unknown atomic op %r" % op)
        idx = self._word_indices(addrs)
        words = self.words
        read = words.item
        # Python floats (the same IEEE doubles), not numpy scalars.
        old = []
        for i, value in zip(idx.tolist(), np.asarray(values).tolist()):
            word = read(i)
            old.append(word)
            words[i] = combine(word, value)
        return np.array(old, dtype=np.float64)


class SharedMemory(MemoryImage):
    """Per-CTA scratchpad; same interface, separate address space.

    Shared addresses start at 0 (no reserved page — kernels index it
    directly from 0 as CUDA shared memory does).
    """

    def __init__(self, size_bytes: int) -> None:
        size_bytes = max(WORD_BYTES, (size_bytes + WORD_BYTES - 1) // WORD_BYTES * WORD_BYTES)
        super().__init__(size_bytes)
        self._next_free = 0
