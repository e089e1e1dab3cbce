"""Write-ahead job journal for the sweep daemon.

The daemon's job table lives in memory; a crash loses every in-flight
sweep.  The journal makes submissions durable: each accepted job with
work left is appended as one ndjson record *before* the client's ack is
sent (write-ahead), and each resolved cell appends a completion record,
so ``repro serve --resume`` can rebuild the exact set of unfinished work
after a crash and serve already-published cells straight from the
content-addressed store.  A submission the store answers outright is
finished at its ack — resume would drop it — so it is never written.

Records are line-delimited JSON, one of::

    {"j": 1, "type": "job", "job": "j000001", "verify": false,
     "cells": [{"id": 0, "workload": ..., "size": ...,
                "config_name": ..., "config": {...}, "hash": ...}, ...]}
    {"j": 1, "type": "cell", "job": "j000001", "id": 0,
     "hash": ..., "status": "ok"}            # or failed + error

Any other record type fails replay — among them the ``cancel`` record
a daemon that still cancelled jobs wrote; such a journal is resumed by
that daemon, or moved aside.

Crash-safety properties:

* appends are flushed and fsynced per record — or, inside
  :meth:`JobJournal.group` (one submission: its job record and the
  cells the store resolves on the spot), once when the group ends,
  before the ack — and written in order, so at most the final line can
  be torn; :meth:`JobJournal.replay` tolerates (and drops) a torn tail
  — the worst case is re-simulating one already-finished cell, which
  is byte-identical by construction;
* :meth:`JobJournal.rotate` compacts the file (dropping records of
  finished jobs) by writing a temp file and ``os.replace``-ing it over
  the live one, the same atomic-rename discipline as the result store.

A job record's cells are the wire cells of a ``submit`` message, from
the same writer (:func:`repro.service.protocol.cells_to_wire`, read back
and hash-checked by ``cells_from_wire``) — config *payloads*, not pickled
objects: a journal written by one daemon version is replayable by the
next, and an unregistered policy fails replay loudly.  Each record
type is built by one function, which both the appends and
:meth:`JobJournal.rotate` call, so a compacted journal is
byte-for-byte what the appends would have written.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, IO, Iterator, List, Optional, Tuple

from repro.service.protocol import (
    CELL_STATUSES,
    SubmittedCell,
    cells_from_wire,
    cells_to_wire,
)

#: Bump when the record schema changes.
JOURNAL_VERSION = 1

#: Record types (closed set).
REC_JOB: str = "job"
REC_CELL: str = "cell"

RECORD_TYPES: Tuple[str, ...] = (REC_JOB, REC_CELL)


class JournalError(ValueError):
    """A journal file contains a structurally invalid (non-torn) record."""


class JournalJob:
    """A replayed job: its cells plus every recorded resolution."""

    __slots__ = ("job_id", "verify", "cells", "resolved")

    def __init__(self, job_id: str, verify: bool) -> None:
        self.job_id = job_id
        self.verify = verify
        self.cells: List[SubmittedCell] = []
        #: cell id -> (status, error text or None)
        self.resolved: Dict[int, Tuple[str, Optional[str]]] = {}

    @property
    def finished(self) -> bool:
        return len(self.resolved) == len(self.cells)


def _job_record(job_id: str, verify: bool, cells: List[SubmittedCell]) -> str:
    # The cells are a submit message's bytes: one writer for both, and
    # decoded cells of one configuration share its object, so one
    # encoding each.
    return '{"cells": %s, "j": %d, "job": %s, "type": %s, "verify": %s}\n' % (
        cells_to_wire(cells), JOURNAL_VERSION, _quote(job_id), _quote(REC_JOB),
        "true" if verify else "false",
    )


def _cell_record(
    job_id: str, cell_id: int, digest: str, status: str, error: Optional[str]
) -> str:
    if status not in CELL_STATUSES:
        raise JournalError("unknown cell status %r" % (status,))
    record: Dict[str, object] = {
        "j": JOURNAL_VERSION,
        "type": REC_CELL,
        "job": job_id,
        "id": cell_id,
        "hash": digest,
        "status": status,
    }
    if error is not None:
        record["error"] = error
    return json.dumps(record, sort_keys=True) + "\n"


def _job_records(job: JournalJob) -> Iterator[str]:
    """Everything the journal holds about one replayed job, in the
    order a rotated file carries it."""
    yield _job_record(job.job_id, job.verify, job.cells)
    for cell in job.cells:
        if cell.id in job.resolved:
            status, error = job.resolved[cell.id]
            yield _cell_record(job.job_id, cell.id, cell.hash, status, error)


class JobJournal:
    """An append-only ndjson journal with atomic compaction.

    Thread-safe: the daemon appends from the request handler (job
    records) and from worker threads (cell records) concurrently.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # Re-entrant: :meth:`group` holds it around the appends it groups.
        self._lock = threading.RLock()
        self._grouped = False
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle: Optional[IO[str]] = open(path, "a", encoding="utf-8")

    # -- appends -------------------------------------------------------

    def _append(self, line: str) -> None:
        with self._lock:
            if self._handle is None:
                raise JournalError("journal %s is closed" % self.path)
            self._handle.write(line)
            if not self._grouped:
                self._sync()

    def _sync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    @contextlib.contextmanager
    def group(self) -> Iterator[None]:
        """Group commit: records appended inside the block become
        durable together, with one flush and fsync when it exits (the
        caller must not acknowledge any of them before that).  A
        submission appends a job record and a cell record per store
        hit; synced one by one, a 40-cell sweep with one cell to
        simulate waits on the disk 40 times and the daemon's answer
        time is whatever the host's fsync latency happens to be."""
        with self._lock:
            if self._grouped:
                raise JournalError("journal groups do not nest")
            self._grouped = True
            try:
                yield
            finally:
                self._grouped = False
                self._sync()

    def record_job(
        self,
        job_id: str,
        verify: bool,
        cells: List[SubmittedCell],
    ) -> None:
        """Make a submission durable (call before acking the client)."""
        self._append(_job_record(job_id, verify, cells))

    def record_cell(
        self,
        job_id: str,
        cell_id: int,
        digest: str,
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Record one cell's terminal resolution."""
        self._append(_cell_record(job_id, cell_id, digest, status, error))

    # -- replay --------------------------------------------------------

    @staticmethod
    def _parse(path: str, line: str) -> Optional[Dict[str, object]]:
        """One record, or None for blank/torn lines."""
        text = line.strip()
        if not text:
            return None
        try:
            record = json.loads(text)
        except ValueError:
            return None
        except RecursionError as exc:
            raise JournalError("journal %s has a record nested too deeply" % path) from exc
        if not isinstance(record, dict):
            return None
        return record

    @classmethod
    def _records(cls, path: str) -> Iterator[Dict[str, object]]:
        """The records of the journal at ``path``, in order."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                for line in handle:
                    record = cls._parse(path, line)
                    if record is not None:
                        yield record
            except UnicodeDecodeError as exc:
                raise JournalError("journal %s is not UTF-8" % path) from exc

    @classmethod
    def _decode_job(cls, record: Dict[str, object]) -> JournalJob:
        job_id = str(record.get("job", ""))
        if not job_id:
            raise JournalError("job record without id")
        job = JournalJob(job_id, bool(record.get("verify", False)))
        try:
            job.cells = cells_from_wire(record.get("cells"))
        except ValueError as exc:
            raise JournalError("job %s %s" % (job_id, exc)) from exc
        return job

    @classmethod
    def replay_path(cls, path: str) -> List[JournalJob]:
        """Replay a journal file into jobs, in submission order.

        Torn or blank lines are dropped (only the final line can be
        torn under the flush-per-append discipline); structurally
        invalid complete records, a job id recorded twice, bytes that
        are not UTF-8 and a record nested too deeply to decode raise
        :class:`JournalError` — a corrupt journal must fail loudly, not
        resume a subset.
        """
        jobs: Dict[str, JournalJob] = {}
        if not os.path.exists(path):
            return []
        for record in cls._records(path):
            if record.get("j") != JOURNAL_VERSION:
                raise JournalError(
                    "journal %s has version %r, this daemon speaks %d"
                    % (path, record.get("j"), JOURNAL_VERSION)
                )
            rec_type = record.get("type")
            if rec_type == REC_JOB:
                job = cls._decode_job(record)
                if job.job_id in jobs:
                    raise JournalError(
                        "journal %s repeats job id %s" % (path, job.job_id)
                    )
                jobs[job.job_id] = job
            elif rec_type == REC_CELL:
                job_id = str(record.get("job", ""))
                target = jobs.get(job_id)
                if target is None:
                    continue
                try:
                    cell_id = int(record["id"])  # type: ignore[arg-type]
                    status = str(record["status"])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise JournalError(
                        "malformed cell record for job %s: %s"
                        % (job_id, exc)
                    ) from exc
                if status not in CELL_STATUSES:
                    raise JournalError(
                        "job %s cell %d has unknown status %r"
                        % (job_id, cell_id, status)
                    )
                error = record.get("error")
                target.resolved[cell_id] = (
                    status,
                    str(error) if error is not None else None,
                )
            else:
                raise JournalError(
                    "journal %s has unknown record type %r"
                    % (path, rec_type)
                )
        return list(jobs.values())

    def replay(self) -> List[JournalJob]:
        return self.replay_path(self.path)

    # -- compaction ----------------------------------------------------

    def rotate(self, live_jobs: List[JournalJob]) -> None:
        """Atomically rewrite the journal to just the live jobs.

        Writes the compacted records to a temp file in the same
        directory, fsyncs, then ``os.replace``s it over the live
        journal — a crash at any point leaves either the old complete
        journal or the new complete one, never a mix.
        """
        with self._lock:
            directory = os.path.dirname(self.path) or "."
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".journal-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as tmp:
                    for job in live_jobs:
                        for line in _job_records(job):
                            tmp.write(line)
                    tmp.flush()
                    os.fsync(tmp.fileno())
            except BaseException:
                os.unlink(tmp_path)
                raise
            if self._handle is not None:
                self._handle.close()
            os.replace(tmp_path, self.path)
            self._handle = open(self.path, "a", encoding="utf-8")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._sync()
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def resolve_journal_path(journal: Optional[str], store_root: str) -> str:
    """The journal path: explicit flag, or ``journal.ndjson`` beside
    the store (so one ``--store`` flag carries both durabilities)."""
    if journal:
        return journal
    return os.path.join(store_root, "journal.ndjson")
