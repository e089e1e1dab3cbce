"""The sweep daemon's view of the content-addressed result store.

The store *is* the on-disk level of the two-level cache: the layout
(``<root>/ab/abcdef...0123.json``), the entry schema, the strict atomic
writer, the version-checking reader and the directory walk all live in
:mod:`repro.api.cache`, and so does the one way a directory is chosen:
``--dir`` / ``--store``, else ``$REPRO_CACHE_DIR``, else
:data:`DEFAULT_STORE_DIR`.  Because identical hashes imply identical
content, two stores merge by copying files — no conflict resolution
needed (contrast ``repro merge``, which merges *ResultSet artifacts*
and must compare stats).  Any number of daemon worker threads and
external processes can share one root safely.

:class:`ResultStore` adds what only the service needs: lookups by
digest — answered from memory, with the text of the entry's stats a
daemon splices into its answers, while one ``os.stat`` says the file is
the one read (:meth:`ResultStore.get_kept`) — the ``torn-store-write``
fault hook, and maintenance.
Deletion (:meth:`ResultStore.gc`) is crash-safe against concurrent
readers: an entry is first renamed to a ``.tomb`` file (atomic —
readers hitting the tombstone see a miss, never a torn read) and only
then unlinked, so a GC killed mid-delete leaves at worst a tombstone
that the next GC sweeps.  :meth:`ResultStore.verify` re-hashes every
entry's decoded content against its filename, catching bit-rot and
schema skew before they serve wrong results.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.api.cache import (
    AnyConfig,
    AnyStats,
    cell_hash,
    config_from_payload,
    digest_path,
    disk_store,
    entry_stats,
    is_cell_digest,
    read_entry,
    resolve_dir,
    stats_from_payload,
    walk_entries,
)
from repro.service.faults import FAULT_TORN_STORE_WRITE, FaultPlan, SITE_STORE

#: The store root when neither a flag nor ``$REPRO_CACHE_DIR`` names one.
DEFAULT_STORE_DIR = ".repro_store"

#: How many decoded entries :meth:`ResultStore.get_kept` keeps.  An SM
#: cell's entry is 1.5 kB on disk and ≈ 7.6 kB decoded plus 0.65 kB of
#: stats text, a 4-SM device cell's 3.9 kB and ≈ 12 kB plus 2.3 kB
#: (``sys.getsizeof`` summed over the objects), so the memo holds
#: ≈ 8.5–15 MB at the cap: three figure-7 grids at every size (3 x 315
#: cells).
ENTRY_MEMO_ENTRIES = 1024

def resolve_store_dir(root: Optional[str]) -> str:
    """Explicit root, else ``$REPRO_CACHE_DIR``, else the default."""
    return resolve_dir(root) or DEFAULT_STORE_DIR


class KeptEntry(NamedTuple):
    """A store entry as :meth:`ResultStore.get_kept` answers it."""

    entry: Dict[str, object]
    #: ``json.dumps(entry["stats"], sort_keys=True)`` — the bytes any
    #: ``sort_keys`` message carrying the stats writes for them — or
    #: None when the entry has no stats.
    stats_text: Optional[str]


@dataclass(frozen=True)
class StoreInfo:
    """One snapshot of the store (``/v1/health``, tests, docs)."""

    root: str
    entries: int
    total_bytes: int


@dataclass(frozen=True)
class GCResult:
    """What one ``repro store gc`` pass did (or would do)."""

    examined: int
    evicted: int
    evicted_bytes: int
    kept: int
    tombstones_swept: int
    dry_run: bool


@dataclass(frozen=True)
class VerifyProblem:
    """One entry that failed the re-hashing pass."""

    digest: str
    path: str
    reason: str


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a ``repro store verify`` pass."""

    examined: int
    problems: List[VerifyProblem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class ResultStore:
    """A directory of cell results addressed by content hash.

    Constructing one touches nothing: the root appears on first write,
    and a missing root reads as an empty store.  ``fault_plan`` threads
    the service's deterministic fault injector into writes (the
    ``torn-store-write`` kind): production code never passes one, tests
    and ``repro serve --fault-plan`` do.
    """

    def __init__(self, root: str, fault_plan: Optional[FaultPlan] = None) -> None:
        self.root = root
        self.fault_plan = fault_plan
        #: digest -> (the file's (inode, mtime in ns, size) when read,
        #: its entry and stats text), least recently answered first; see
        #: :meth:`get_kept`.
        self._answered: "OrderedDict[str, Tuple[Tuple[int, int, int], KeptEntry]]" = (
            OrderedDict()
        )
        self._answered_lock = threading.Lock()

    def path_for(self, digest: str) -> str:
        # Digests reach the store from the wire; never join an
        # unchecked one into a path.
        if not is_cell_digest(digest):
            raise ValueError("not a cell digest: %r" % (digest,))
        return digest_path(self.root, digest)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_kept(self, digest: str) -> Optional[KeptEntry]:
        """The full JSON entry for a digest with the text of its stats,
        or None.

        Torn/alien files and entries from another ``CACHE_VERSION``
        read as misses.  An entry answered before is answered again
        from memory while one ``os.stat`` of its file still reads the
        stamp it was read under — (inode, mtime in ns, size) — so a gc
        tombstone rename, a torn rewrite or any ``os.replace`` makes it
        a miss or a fresh read, never a stale answer.  The stats text is
        kept with its entry under that one stamp, so no caller pairs an
        entry with another file's text.  A miss costs one failed
        ``stat``.  Up to :data:`ENTRY_MEMO_ENTRIES` are kept, least
        recently answered out first.  What is returned is shared with
        later callers: read it, never change it.
        """
        path = self.path_for(digest)
        try:
            st = os.stat(path)
        except OSError:
            return None
        stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
        with self._answered_lock:
            answered = self._answered.get(digest)
            if answered is not None and answered[0] == stamp:
                self._answered.move_to_end(digest)
                return answered[1]
        # Stamped before the read: a file replaced in between is read
        # new and kept under the old stamp, which its next stat misses.
        kept: Optional[KeptEntry]
        try:
            entry = read_entry(path)
        except ValueError:
            kept = None
        else:
            stats = entry.get("stats")
            text = None if stats is None else json.dumps(stats, sort_keys=True)
            kept = KeptEntry(entry, text)
        with self._answered_lock:
            if kept is None:
                self._answered.pop(digest, None)
            else:
                self._answered[digest] = (stamp, kept)
                self._answered.move_to_end(digest)
                if len(self._answered) > ENTRY_MEMO_ENTRIES:
                    self._answered.popitem(last=False)
        return kept

    def get_entry(self, digest: str) -> Optional[Dict[str, object]]:
        """The full JSON entry for a digest, or None (:meth:`get_kept`)."""
        kept = self.get_kept(digest)
        return None if kept is None else kept.entry

    def load_stats(self, digest: str) -> Optional[AnyStats]:
        """The decoded stats for a digest, or None."""
        entry = self.get_entry(digest)
        return None if entry is None else entry_stats(entry)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def store(
        self, workload: str, size: str, config: AnyConfig, stats: AnyStats
    ) -> str:
        """Persist one cell result; returns its content address."""
        digest = disk_store(self.root, workload, size, config, stats)
        if (
            self.fault_plan is not None
            and self.fault_plan.fire(SITE_STORE, workload)
            == FAULT_TORN_STORE_WRITE
        ):
            # Simulate a writer that died mid-write without the atomic
            # rename: half the bytes are left at the final path.  Readers
            # must treat it as a miss and resimulation must converge.
            path = self.path_for(digest)
            os.truncate(path, os.path.getsize(path) // 2)
        return digest

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def digests(self) -> Iterator[str]:
        """Every content address currently in the store (sorted)."""
        for digest, _ in walk_entries(self.root):
            if digest is not None:
                yield digest

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def info(self) -> StoreInfo:
        sizes = []
        for digest, path in walk_entries(self.root):
            if digest is None:
                continue  # a tombstone
            try:
                sizes.append(os.path.getsize(path))
            except OSError:
                continue  # evicted under us
        return StoreInfo(self.root, len(sizes), sum(sizes))

    # ------------------------------------------------------------------
    # Deletion / GC
    # ------------------------------------------------------------------

    def delete(self, digest: str) -> bool:
        """Remove one entry crash-safely; True if it existed.

        Two steps: atomic rename to ``<digest>.json.tomb`` (concurrent
        readers now miss instead of racing a partial unlink), then
        unlink the tombstone.  A crash between the steps leaves only a
        tombstone, which reads as a miss and is swept by the next
        :meth:`gc`.
        """
        path = self.path_for(digest)
        tomb = path + ".tomb"
        try:
            os.replace(path, tomb)
        except OSError:
            return False
        try:
            os.unlink(tomb)
        except OSError:
            pass
        return True

    def gc(
        self,
        max_age: Optional[float] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCResult:
        """Evict entries to fit the given budgets; returns what happened.

        Eviction order is oldest-mtime-first (the entries least likely
        to be re-read).  Collecting beside a live daemon needs no
        reservation: an eviction is a tombstone rename, so a reader
        sees a whole entry or a miss, never a torn one; a job holds the
        stats of its store hits from triage on; and an evicted cell
        that is asked for again re-simulates to the same bytes.
        ``dry_run`` reports without deleting.  Leftover tombstones from
        an interrupted previous pass are always swept (even dry runs
        report them).
        """
        if max_age is not None and max_age < 0:
            raise ValueError("max_age must be >= 0")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        swept = 0
        entries: List[Tuple[float, int, str]] = []
        for digest, path in walk_entries(self.root):
            if digest is None:  # a tombstone
                swept += 1
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                continue
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, digest))
        entries.sort()
        if now is None:
            newest = max((mtime for mtime, _, _ in entries), default=0.0)
            now = newest
        evict: Dict[str, int] = {}
        if max_age is not None:
            for mtime, size, digest in entries:
                if now - mtime > max_age:
                    evict[digest] = size
        live = [e for e in entries if e[2] not in evict]
        if max_entries is not None and len(live) > max_entries:
            for mtime, size, digest in live[: len(live) - max_entries]:
                evict[digest] = size
            live = [e for e in live if e[2] not in evict]
        if max_bytes is not None:
            total = sum(size for _, size, _ in live)
            for mtime, size, digest in live:
                if total <= max_bytes:
                    break
                evict[digest] = size
                total -= size
        evicted = 0
        evicted_bytes = 0
        for digest, size in evict.items():
            if dry_run or self.delete(digest):
                evicted += 1
                evicted_bytes += size
        return GCResult(
            examined=len(entries),
            evicted=evicted,
            evicted_bytes=evicted_bytes,
            kept=len(entries) - evicted,
            tombstones_swept=swept,
            dry_run=dry_run,
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> VerifyResult:
        """Re-hash every entry against its filename digest.

        Catches torn files, entries from another ``CACHE_VERSION``,
        undecodable config/stats payloads, and — the headline check —
        content whose recomputed ``cell_hash`` no longer matches the
        content address it is filed under.
        """
        examined = 0
        problems: List[VerifyProblem] = []

        def problem(digest: str, path: str, reason: str) -> None:
            problems.append(VerifyProblem(digest, path, reason))

        for digest in self.digests():
            examined += 1
            path = self.path_for(digest)
            try:
                entry = read_entry(path)
            except ValueError as exc:
                problem(digest, path, str(exc))
                continue
            workload = entry.get("workload")
            size = entry.get("size")
            config_payload = entry.get("config")
            stats_payload = entry.get("stats")
            if not isinstance(workload, str) or not isinstance(size, str):
                problem(digest, path, "missing workload/size")
                continue
            if not isinstance(config_payload, dict):
                problem(digest, path, "config payload is not an object")
                continue
            try:
                config = config_from_payload(config_payload)
            except ValueError as exc:
                problem(digest, path, "undecodable config: %s" % exc)
                continue
            if not isinstance(stats_payload, dict):
                problem(digest, path, "stats payload is not an object")
                continue
            try:
                stats_from_payload(stats_payload)
            except (KeyError, TypeError, ValueError) as exc:
                problem(digest, path, "undecodable stats: %s" % exc)
                continue
            recomputed = cell_hash(workload, size, config)
            if recomputed != digest:
                problem(
                    digest,
                    path,
                    "content address mismatch (recomputed %s...)"
                    % recomputed[:12],
                )
        return VerifyResult(examined=examined, problems=problems)
