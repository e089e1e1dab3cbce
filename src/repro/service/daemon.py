"""The ``repro serve`` daemon: sweep submission over HTTP.

Pure stdlib (``http.server.ThreadingHTTPServer``) — no new
dependencies.  The daemon owns a :class:`~repro.service.store.ResultStore`
(the content-addressed shared result store) and a bounded simulation
queue, and runs on three tiers.  *HTTP threads* (one per request)
decode, triage and answer.  *Dispatcher threads* (``--workers N`` of
them) drain the queue and own everything that touches daemon state:
the worker fault site, the store write, the journal append, waiter
resolution and the counters.  Each hands the one pure step — simulating
the cell, :func:`repro.api.engine._compute_cell` with no cache
directory — to one of N *worker processes*
(:func:`repro.api.engine.worker_pool`, the ``process`` backend's
constructor) and blocks off the GIL for the answer, so N workers are N
cores and requests never wait on a simulation for the interpreter.
Only the daemon process writes the store and the journal; a worker
opens neither.  The processes are forked in
:meth:`SweepService.__init__`, before the daemon's first thread exists,
and never again; they exit with the pool at shutdown and, should the
daemon die without one (``kill -9``, an injected crash), on their own
within about a second.  If a worker dies, the cells then on the pool
fail with :class:`WorkerProcessDied`, later cells simulate in the
dispatcher threads, and ``/v1/health`` reports
``workers: {configured: N, alive: 0}``.

``POST /v1/jobs``
    submit cells (a :data:`~repro.service.protocol.MSG_SUBMIT`
    envelope).  Each cell is triaged under one lock: served from the
    store, *coalesced* onto an identical in-flight cell (N concurrent
    submissions of one cell hash cost one simulation), or queued.  When
    the store serves them all the ack carries the result ``cells``,
    spliced from the stats texts the store keeps, and the job's event
    history is derived only when someone reads it.
    Triage plans first and commits second
    (:meth:`SweepService._triage_locked`, then ``_commit_locked``):
    when the plan's new work would overflow the queue the daemon
    answers **429** with a ``Retry-After`` header, nothing enqueued,
    instead of buffering unboundedly — and a typed 400, not a 429, when
    the new work alone is more than the queue holds, since no wait
    would make room for it.  ``--resume`` sends the cells a journal
    left unresolved through the same two steps.
``GET /v1/jobs/<id>/result``      per-cell results; while the job runs,
                                  202 with its status snapshot.
``GET /v1/jobs/<id>/events``      line-delimited progress stream fed by
                                  per-cell completions, with heartbeat
                                  status lines during long gaps.
``GET /v1/cells/<hash>``          cached-cell lookup by content address.
``GET /v1/health``                accounting counters + store info.

Those five are the whole API (:data:`ServiceHandler.ROUTES`); anything
else is a typed 400 — the ``POST /v1/cells`` upload, and the
``GET /v1/jobs/<id>`` status and ``POST /v1/jobs/<id>/cancel`` routes
an older client may still call, included.  A job runs until every cell
resolves, or until the daemon stops with it unfinished.

None of the routes accepts a result: the dispatchers
below are the only writer the store has over the network, so every entry a
client is served from it was simulated here (or put in the directory
by whoever owns the filesystem, e.g. an ``Engine`` using it as its
``cache_dir``).  A degraded client (``--fallback inline``) keeps what
it simulated to itself; the store catches up when this daemon next
simulates the cell.

Accounting counters (``cells_simulated`` / ``cells_store`` /
``cells_coalesced`` / ...) are the daemon's ground truth for "N
identical submissions cost one simulation" — CI and the service tests
assert on them.
"""

from __future__ import annotations

import collections
import contextlib
import json
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing.process import BaseProcess
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, cast

from repro.api.cache import AnyStats, is_cell_digest, stats_to_payload
from repro.api.engine import Engine, _compute_cell, worker_pool
from repro.service import protocol
from repro.service.faults import (
    FAULT_CRASH_AFTER_PUBLISH,
    FAULT_CRASH_BEFORE_PUBLISH,
    FAULT_DELAYED_RESPONSE,
    FAULT_DROP_CONNECTION,
    FAULT_TRUNCATE_RESPONSE,
    FAULT_WORKER_EXCEPTION,
    SITE_HTTP,
    SITE_WORKER,
    DaemonCrash,
    FaultInjected,
    FaultPlan,
)
from repro.service.journal import JobJournal, resolve_journal_path
from repro.service.protocol import ProtocolError, SubmittedCell
from repro.service.store import KeptEntry, ResultStore, resolve_store_dir
from repro.workloads import normalize_size

#: Protocol error code -> HTTP status.
_HTTP_STATUS: Dict[str, int] = {
    protocol.ERR_BAD_REQUEST: 400,
    protocol.ERR_VERSION: 400,
    protocol.ERR_UNKNOWN_JOB: 404,
    protocol.ERR_UNKNOWN_CELL: 404,
    protocol.ERR_QUEUE_FULL: 429,
    protocol.ERR_SHUTTING_DOWN: 503,
    protocol.ERR_INTERNAL: 500,
}

#: The largest request body the daemon will read: a peer's
#: ``Content-Length`` is a claim, not a licence to allocate.  (A cell
#: is ≈ 0.78 kB on the wire, so this is a sweep of ≈ 86k cells.)
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: How many finished jobs the job table keeps, newest first, for late
#: ``/result`` and ``/events`` readers; an older id answers
#: ``unknown_job``, as every finished id does after a restart.  A job
#: with work left is never dropped.
FINISHED_JOBS_KEPT = 128

#: Counter names reported by ``/v1/health`` (a closed set, so a typo'd
#: bump is a KeyError in tests rather than a silently new counter).
COUNTERS: Tuple[str, ...] = (
    "jobs_submitted",
    "jobs_resumed",
    "cells_requested",
    "cells_simulated",
    "cells_store",
    "cells_coalesced",
    "cells_failed",
)


class WorkerProcessDied(RuntimeError):
    """A worker process died (killed, out of memory) while this cell
    was on the pool; the cell was not simulated."""


class _Work:
    """One unique in-flight simulation, shared by every waiting job."""

    __slots__ = ("cell", "verify", "waiters")

    def __init__(self, cell: SubmittedCell, verify: bool) -> None:
        self.cell = cell
        self.verify = verify
        #: (job, cell id, source label) triples resolved on completion.
        self.waiters: List[Tuple["Job", int, str]] = []


#: One step of a triage plan: (cell, where its result comes from — a
#: ``SOURCE_*`` — and the kept store entry for store hits).
_Step = Tuple[SubmittedCell, str, Optional[KeptEntry]]


class Job:
    """One submission: per-cell outcomes plus a progress event log.

    Progress events are *published* to an append-only history and
    fanned out to per-stream subscriber queues — never consumed
    destructively from a shared queue.  A client that disconnects
    mid-stream therefore cannot swallow the final status line for
    anyone else, and a subscriber attaching after the job finished
    replays the whole history, terminal status included.  The history
    is bounded by the job itself (one progress line per cell plus one
    terminal status), not by run length.

    A job the store answered in full is finished at its ack, before
    anyone can subscribe: it publishes nothing, and :meth:`subscribe`
    derives its history from its cells the first time it is asked for —
    the same envelopes, in the same order, a published history holds.
    """

    def __init__(self, job_id: str, total: int, verify: bool) -> None:
        self.id = job_id
        self.verify = verify
        #: How many cells were submitted; ``cells`` holds their outcomes.
        self.total = total
        self.stopped = False
        #: The journal that holds this job's record, and so takes its
        #: cell records: none for a job that is finished at its ack.
        self.journal: Optional[JobJournal] = None
        #: Finished at its ack (the store answered every cell): its
        #: events are derived on demand, never published.
        self.answered = False
        self.cells: Dict[int, Dict[str, object]] = {}
        self.finished = threading.Event()
        self._events_lock = threading.Lock()
        self._history: List[Dict[str, object]] = []
        self._subscribers: List["queue.Queue[Dict[str, object]]"] = []

    def publish(self, event: Dict[str, object]) -> None:
        """Append one event and fan it out to every live subscriber."""
        with self._events_lock:
            self._history.append(event)
            for subscriber in self._subscribers:
                subscriber.put(event)

    def subscribe(self) -> "queue.Queue[Dict[str, object]]":
        """A fresh event queue, pre-loaded with the full history."""
        subscription: "queue.Queue[Dict[str, object]]" = queue.Queue()
        with self._events_lock:
            # An answered job's cells are complete here: the service
            # hands a job out only under the lock its submit committed
            # it under.
            if self.answered and not self._history:
                self._history = [
                    self.progress_message(cell, done)
                    for done, cell in enumerate(self.cells.values(), 1)
                ]
                self._history.append(self.status_message())
            for event in self._history:
                subscription.put(event)
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: "queue.Queue[Dict[str, object]]") -> None:
        with self._events_lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass  # already detached

    @property
    def done(self) -> int:
        return len(self.cells)

    @property
    def state(self) -> str:
        if self.done >= self.total:
            return protocol.JOB_DONE
        if self.stopped:
            return protocol.JOB_STOPPED
        if self.done:
            return protocol.JOB_RUNNING
        return protocol.JOB_QUEUED

    def status_message(self) -> Dict[str, object]:
        return protocol.envelope(
            protocol.MSG_STATUS,
            job=self.id,
            state=self.state,
            done=self.done,
            total=self.total,
        )

    def progress_message(self, cell: Dict[str, object], done: int) -> Dict[str, object]:
        """The progress line of ``cell``, the ``done``-th to resolve:
        the cell without its stats (progress lines stay light)."""
        progress = dict(cell)
        progress.pop("stats", None)
        return protocol.envelope(
            protocol.MSG_PROGRESS,
            job=self.id,
            done=done,
            total=self.total,
            cell=progress,
        )

    def result_message(self) -> Dict[str, object]:
        return protocol.envelope(
            protocol.MSG_RESULT,
            job=self.id,
            state=self.state,
            cells=[self.cells[i] for i in sorted(self.cells)],
        )


class SweepService:
    """Job triage, the workers, and the accounting counters.

    ``workers=N`` is N simulations in flight: N dispatcher threads,
    each handing its cell to one of N worker processes forked here,
    before any thread of the service exists (the module docstring says
    what runs where).  An injected ``engine`` computes in the dispatcher
    threads through ``engine.run_cell`` instead, with no processes —
    the path a service whose worker died degrades to.  ``workers=0``
    leaves the queue unserviced so tests (and the coalescing CI check)
    can stage concurrent submissions and then drain deterministically,
    in the calling thread, with :meth:`process_queued`.

    ``journal`` (a :class:`~repro.service.journal.JobJournal`) makes
    jobs durable: a submission with work left is journalled *before*
    the ack leaves (write-ahead) and every cell resolution is appended,
    so :meth:`resume` can rebuild unfinished work after a crash.
    ``fault_plan`` threads the deterministic fault injector into the
    dispatchers — worker faults fire in this process, never in a worker
    process (the HTTP handler and store carry their own hooks).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        queue_limit: int = 256,
        retry_after: float = 1.0,
        engine: Optional[Engine] = None,
        journal: Optional[JobJournal] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store = store
        self.journal = journal
        self.fault_plan = fault_plan
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        #: The worker processes; None when cells compute in this
        #: process (injected engine, ``workers=0``, or a worker died).
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: List[BaseProcess] = []
        if engine is None:
            engine = Engine(backend="inline", cache_dir=None, memo={})
            if workers > 0:
                others = set(multiprocessing.active_children())
                self._pool = worker_pool(workers)
                # The first task forks every worker; wait for it here,
                # while this service has no thread to fork under.
                self._pool.submit(os.getpid).result()
                self._workers = [
                    child for child in multiprocessing.active_children()
                    if child not in others
                ]
        self._engine = engine
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[_Work]]" = queue.Queue()
        self._inflight: Dict[str, _Work] = {}
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = collections.deque()
        self._pending = 0
        self._next_job = 0
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._threads: List[threading.Thread] = []
        self._stopping = False
        for _ in range(workers):
            thread = threading.Thread(target=self._worker, daemon=True)
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # Submission triage
    # ------------------------------------------------------------------

    def submit(self, message: Dict[str, object]) -> Dict[str, object]:
        """Triage a ``submit`` envelope; returns the ``ack`` envelope —
        :meth:`submit_line`'s line, decoded."""
        ack: Dict[str, object] = json.loads(self.submit_line(message))
        return ack

    def submit_line(self, message: Dict[str, object]) -> bytes:
        """Triage a ``submit`` envelope; returns the ``ack``'s wire line.

        Raises :class:`ProtocolError` (:data:`~repro.service.protocol.
        ERR_QUEUE_FULL`, with ``retry_after``) when accepting the
        submission's new cells would overflow the simulation queue —
        nothing is enqueued in that case, so a retried submission
        starts clean — and :data:`~repro.service.protocol.
        ERR_BAD_REQUEST` when its new cells alone outnumber
        ``queue_limit``, which no retry can fix.  The ack of a
        submission the store answered in full is spliced from the stats
        texts the store keeps (:func:`~repro.service.protocol.
        answered_ack_line`): no stats payload is encoded again.
        """
        cells, verify = protocol.decode_submit(message)
        with self._lock:
            if self._stopping:
                raise ProtocolError(
                    protocol.ERR_SHUTTING_DOWN,
                    "daemon is shutting down; resubmit after it restarts",
                    retry_after=self.retry_after,
                )
            plan = self._triage_locked(cells, verify)
            # Store hits and coalesced cells are free; only cells this
            # submission would newly simulate count against the queue.
            sources = [source for _, source, _ in plan]
            new_work = sources.count(protocol.SOURCE_SIMULATED)
            if new_work > self.queue_limit:
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    "submission needs %d new simulations, more than the "
                    "queue limit of %d even when idle: split the sweep or "
                    "raise repro serve --queue-limit"
                    % (new_work, self.queue_limit),
                )
            if self._pending + new_work > self.queue_limit:
                raise ProtocolError(
                    protocol.ERR_QUEUE_FULL,
                    "simulation queue is full (%d pending, limit %d): "
                    "retry after %.1fs"
                    % (self._pending, self.queue_limit, self.retry_after),
                    retry_after=self.retry_after,
                )
            # The store answers every cell: the job is finished before
            # its ack, so there is nothing a journal could resume — it
            # writes nothing, and the ack carries the result.
            answered = sources.count(protocol.SOURCE_STORE) == len(plan)
            self._next_job += 1
            job = Job("j%06d" % self._next_job, len(cells), verify)
            job.answered = answered
            job.journal = journal = None if answered else self.journal
            self._jobs[job.id] = job
            self.counters["jobs_submitted"] += 1
            self.counters["cells_requested"] += len(cells)
            with contextlib.ExitStack() as durable:
                if journal is not None:
                    # Write-ahead: the submission, and the cells the
                    # store resolves on the spot, are durable (one
                    # group commit) before the ack reaches the client
                    # or a worker can resolve anything — resolving
                    # needs this lock — so a crash at any later point
                    # leaves a resumable job.
                    durable.enter_context(journal.group())
                    journal.record_job(job.id, verify, cells)
                triage = self._commit_locked(job, plan)
            if not answered:
                return protocol.encode(
                    protocol.envelope(
                        protocol.MSG_ACK,
                        job=job.id,
                        state=job.state,
                        total=job.total,
                        triage=triage,
                    )
                )
        # The job is finished and nothing changes it again: the ack is
        # the result cells in id order (ids are distinct), each the stats
        # text its entry was kept with, joined outside the lock.
        return protocol.answered_ack_line(
            job.id,
            sorted(
                (cell.id, cell.hash, cast(KeptEntry, kept).stats_text)
                for cell, _, kept in plan
            ),
        )

    def _triage_locked(
        self, cells: Sequence[SubmittedCell], verify: bool
    ) -> List[_Step]:
        """Plan where each cell's result will come from — the store,
        an identical cell already in flight (for another job, or
        earlier in ``cells``), or a new simulation — reading each
        store entry once and changing nothing, so a caller may still
        refuse the plan.  Verify cells always simulate."""
        plan: List[_Step] = []
        planned: Set[str] = set()
        for cell in cells:
            kept = None if verify else self.store.get_kept(cell.hash)
            if kept is not None:
                plan.append((cell, protocol.SOURCE_STORE, kept))
            elif not verify and (
                cell.hash in self._inflight or cell.hash in planned
            ):
                plan.append((cell, protocol.SOURCE_COALESCED, None))
            else:
                planned.add(cell.hash)
                plan.append((cell, protocol.SOURCE_SIMULATED, None))
        return plan

    def _commit_locked(self, job: Job, plan: List[_Step]) -> Dict[str, int]:
        """Carry out a :meth:`_triage_locked` plan for ``job``; returns
        the ack's per-disposition counts."""
        triage = {"store": 0, "coalesced": 0, "queued": 0}
        for cell, source, kept in plan:
            if source == protocol.SOURCE_STORE:
                self.counters["cells_store"] += 1
                triage["store"] += 1
                self._resolve_locked(
                    job, cell.id, cell.hash, protocol.STATUS_OK, source,
                    stats=cast(KeptEntry, kept).entry.get("stats"),
                )
            elif source == protocol.SOURCE_COALESCED:
                self.counters["cells_coalesced"] += 1
                triage["coalesced"] += 1
                self._inflight[cell.hash].waiters.append((job, cell.id, source))
            else:
                work = _Work(cell, job.verify)
                work.waiters.append((job, cell.id, source))
                if not job.verify:
                    self._inflight[cell.hash] = work
                self._pending += 1
                triage["queued"] += 1
                self._queue.put(work)
        return triage

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get_job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(
                protocol.ERR_UNKNOWN_JOB, "no such job %r" % (job_id,)
            )
        return job

    def lookup_cell(self, digest: str) -> Dict[str, object]:
        """The store entry for one content address, as an envelope."""
        entry = self.store.get_entry(digest) if is_cell_digest(digest) else None
        if entry is None:
            raise ProtocolError(
                protocol.ERR_UNKNOWN_CELL,
                "no stored result for cell %r" % (digest,),
            )
        return protocol.envelope(
            protocol.MSG_RESULT,
            hash=digest,
            workload=entry.get("workload"),
            size=entry.get("size"),
            config=entry.get("config"),
            stats=entry.get("stats"),
        )

    def health(self) -> Dict[str, object]:
        info = self.store.info()
        alive = 0 if self._pool is None else sum(
            child.is_alive() for child in self._workers
        )
        with self._lock:
            return protocol.envelope(
                protocol.MSG_STATUS,
                state=protocol.JOB_RUNNING,
                counters=dict(self.counters),
                pending=self._pending,
                queue_limit=self.queue_limit,
                jobs=len(self._jobs),
                workers={"configured": len(self._threads), "alive": alive},
                store={
                    "root": info.root,
                    "entries": info.entries,
                    "bytes": info.total_bytes,
                },
            )

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            work = self._queue.get()
            if work is None:
                return
            try:
                self._process(work)
            except DaemonCrash:
                # The fault plan simulated the process dying mid-cell:
                # this worker stops cold, leaving the journal and store
                # exactly as the crash point left them (that's the
                # point — resume must recover from it).
                return
            finally:
                self._queue.task_done()

    def process_queued(self) -> int:
        """Drain the queue in the calling thread (tests, workers=0)."""
        processed = 0
        while True:
            try:
                work = self._queue.get_nowait()
            except queue.Empty:
                return processed
            if work is None:
                continue
            try:
                self._process(work)
            finally:
                self._queue.task_done()
            processed += 1

    def shutdown_gracefully(self, timeout: float = 30.0) -> None:
        """Drain, flush, and notify — the SIGTERM/SIGINT path.

        New submissions are refused (:data:`~repro.service.protocol.
        ERR_SHUTTING_DOWN`, HTTP 503 + Retry-After) the moment this
        starts; the worker pool drains everything already queued (the
        stop sentinels sit behind the real work in the FIFO queue);
        any job still unfinished — a worker died to a crash fault, or
        the drain timed out — gets a final ``stopped`` status line on
        its open progress streams; and the journal is flushed and
        closed so ``repro serve --resume`` picks up exactly here.
        """
        with self._lock:
            already = self._stopping
            self._stopping = True
        if not already:
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        pool, self._pool = self._pool, None
        if pool is not None:
            # Idle workers exit at once; one a timed-out dispatcher
            # still waits on is left to finish its cell unwatched.
            drained = not any(thread.is_alive() for thread in self._threads)
            pool.shutdown(wait=drained, cancel_futures=True)
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if not job.finished.is_set():
                job.stopped = True
                job.finished.set()
                job.publish(job.status_message())
        if self.journal is not None:
            self.journal.close()

    def resume(self) -> int:
        """Rebuild unfinished journalled jobs; returns how many.

        For every journal job that never reached a terminal state:
        cells the journal records as resolved are restored as recorded
        (ok cells served from the store by content address — and
        re-queued if the store entry has since been evicted or torn);
        unresolved cells are re-triaged exactly like a fresh
        submission (store hit, coalesce, or queue).  Job ids are
        preserved, so a client polling a pre-crash job id finds its
        job again.  Afterwards the journal is compacted to just the
        live jobs.
        """
        if self.journal is None:
            raise ValueError("cannot resume without a journal")
        replayed = self.journal.replay()
        live = [job for job in replayed if not job.finished]
        # Compact first: finished jobs leave the journal, and the
        # resolutions re-recorded below land after a clean rotation.
        self.journal.rotate(live)
        resumed = 0
        with self._lock:
            for recorded in replayed:
                suffix = recorded.job_id.lstrip("j")
                if suffix.isdigit():
                    self._next_job = max(self._next_job, int(suffix))
            for recorded in live:
                job = Job(recorded.job_id, len(recorded.cells), recorded.verify)
                job.journal = self.journal
                self._jobs[job.id] = job
                resumed += 1
                self.counters["jobs_resumed"] += 1
                self.counters["cells_requested"] += len(recorded.cells)
                unresolved: List[SubmittedCell] = []
                for cell in recorded.cells:
                    status, error = recorded.resolved.get(cell.id, (None, None))
                    if status is None or status == protocol.STATUS_OK:
                        # An ok cell's stats live in the store, not the
                        # journal: triage finds them there, or — evicted
                        # or torn since — simulates again, byte-identical
                        # by construction.
                        unresolved.append(cell)
                    else:
                        self._resolve_locked(
                            job, cell.id, cell.hash, status, None, error=error
                        )
                self._commit_locked(job, self._triage_locked(unresolved, job.verify))
        return resumed

    def _process(self, work: _Work) -> None:
        cell = work.cell
        plan = self.fault_plan
        kind = plan.fire(SITE_WORKER, cell.workload) if plan is not None else None
        error: Optional[str] = None
        stats_payload: Optional[Dict[str, object]] = None
        try:
            if kind == FAULT_WORKER_EXCEPTION:
                raise FaultInjected(kind)
            stats = self._simulate(work)
        except Exception as exc:  # noqa: BLE001 — travels to the client
            error = "%s: %s" % (type(exc).__name__, exc)
        else:
            if plan is not None and kind == FAULT_CRASH_BEFORE_PUBLISH:
                plan.crash(kind)  # nothing durable: resume re-simulates
            self.store.store(cell.workload, cell.size, cell.config, stats)
            if plan is not None and kind == FAULT_CRASH_AFTER_PUBLISH:
                # The store entry is durable but no waiter hears about
                # it: resume serves the cell from the store.
                plan.crash(kind)
            stats_payload = stats_to_payload(stats)
        with self._lock:
            if error is None:
                status = protocol.STATUS_OK
                self.counters["cells_simulated"] += 1
            else:
                status = protocol.STATUS_FAILED
                self.counters["cells_failed"] += 1
            for job, cell_id, source in work.waiters:
                self._resolve_locked(
                    job, cell_id, cell.hash, status, source,
                    stats=stats_payload, error=error,
                )
            self._pending -= 1
            if not work.verify and self._inflight.get(cell.hash) is work:
                del self._inflight[cell.hash]

    def _simulate(self, work: _Work) -> AnyStats:
        """The one step that touches no daemon state: on a worker
        process, else (no pool, or its workers died) in this thread."""
        cell = work.cell
        pool = self._pool
        if pool is not None:
            try:
                future = pool.submit(
                    _compute_cell, cell.workload, normalize_size(cell.size),
                    cell.config, work.verify, {}, None,
                )
            except BrokenProcessPool:
                self._pool = pool = None  # a sibling's cell found out first
        if pool is None:
            return self._engine.run_cell(
                cell.workload, cell.size, cell.config, verify=work.verify, cache=False
            )
        try:
            return future.result()
        except BrokenProcessPool as exc:
            self._pool = None
            raise WorkerProcessDied(
                "a worker process died with cell %s@%s/%s (%s) on the pool; "
                "it was not simulated — resubmit it"
                % (cell.workload, cell.size, cell.config_name, cell.hash[:12])
            ) from exc

    def _resolve_locked(
        self,
        job: Job,
        cell_id: int,
        digest: str,
        status: str,
        source: Optional[str],
        stats: Optional[object] = None,
        error: Optional[str] = None,
    ) -> None:
        cell: Dict[str, object] = {
            "id": cell_id,
            "hash": digest,
            "status": status,
        }
        if source is not None:
            cell["source"] = source
        if stats is not None:
            cell["stats"] = stats
        if error is not None:
            cell["error"] = error
        job.cells[cell_id] = cell
        if job.journal is not None:
            job.journal.record_cell(job.id, cell_id, digest, status, error)
        if not job.answered:
            job.publish(job.progress_message(cell, job.done))
        if job.done >= job.total and not job.finished.is_set():
            job.finished.set()
            if not job.answered:
                job.publish(job.status_message())
            self._finished.append(job.id)
            if len(self._finished) > FINISHED_JOBS_KEPT:
                del self._jobs[self._finished.popleft()]


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service instance."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SweepService,
        heartbeat: float = 5.0,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.service = service
        self.heartbeat = heartbeat


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes /v1/* onto the :class:`SweepService`."""

    server: ServiceServer  # narrowed from BaseServer

    # One connection per request (HTTP/1.0): the progress stream is
    # delimited by connection close, so no chunked framing is needed
    # and clients read lines as they are flushed.
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args: object) -> None:
        return  # quiet; accounting lives in /v1/health counters

    # -- plumbing ------------------------------------------------------

    #: Set per-request by the fault injector in :meth:`_dispatch`.
    _truncate_response = False

    def _send_envelope(
        self,
        status: int,
        message: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_line(status, protocol.encode(message), extra_headers)

    def _send_line(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self._truncate_response:
            # Injected truncate-response fault: half the advertised
            # body, then connection close — the client sees a short
            # read and must retry.
            self._truncate_response = False
            self.wfile.write(body[: len(body) // 2])
            return
        self.wfile.write(body)

    def _send_error(self, exc: ProtocolError) -> None:
        headers = {}
        if exc.retry_after is not None:
            headers["Retry-After"] = "%g" % exc.retry_after
        self._send_envelope(
            _HTTP_STATUS.get(exc.code, 500), exc.to_envelope(), headers
        )

    def _read_message(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "request has no body"
            )
        if length > MAX_REQUEST_BYTES:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "request body of %d bytes is over the %d-byte limit"
                % (length, MAX_REQUEST_BYTES),
            )
        return protocol.decode(self.rfile.read(length))

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        # The API's one variable segment is the third — a job id or a
        # content address — and goes to the handler as its argument.
        args = parts[2:3]
        if args:
            parts[2] = "*"
        handler, op = self.ROUTES.get((verb, "/" + "/".join(parts)), (None, ""))
        plan = self.server.service.fault_plan
        if plan is not None:
            kind = plan.fire(SITE_HTTP, op)
            if kind == FAULT_DROP_CONNECTION:
                # Close without writing a single response byte; the
                # client sees a severed connection and retries.
                self.close_connection = True
                return
            if kind == FAULT_TRUNCATE_RESPONSE:
                self._truncate_response = True
            if kind == FAULT_DELAYED_RESPONSE:
                time.sleep(plan.delay)
        try:
            if handler is None:
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    "unknown endpoint %s %r" % (verb, self.path),
                )
            handler(self, *args)
        except ProtocolError as exc:
            self._send_error(exc)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 — must answer something
            try:
                self._send_error(
                    ProtocolError(
                        protocol.ERR_INTERNAL,
                        "%s: %s" % (type(exc).__name__, exc),
                    )
                )
            except OSError:
                pass

    # -- endpoints -----------------------------------------------------

    def _health(self) -> None:
        self._send_envelope(200, self.server.service.health())

    def _cell(self, digest: str) -> None:
        self._send_envelope(200, self.server.service.lookup_cell(digest))

    def _submit(self) -> None:
        self._send_line(200, self.server.service.submit_line(self._read_message()))

    def _job_result(self, job_id: str) -> None:
        job = self.server.service.get_job(job_id)
        if job.finished.is_set():
            self._send_envelope(200, job.result_message())
        else:
            self._send_envelope(202, job.status_message())

    def _job_events(self, job_id: str) -> None:
        """Line-delimited progress until the job reaches a terminal
        state; heartbeat status lines cover long simulation gaps so
        client read timeouts don't sever an idle stream.

        Each stream consumes its own :meth:`Job.subscribe` queue, so
        concurrent streams all see every event and a client that
        disconnects while the job finishes (the old shared-queue race)
        cannot swallow the terminal status line for anyone else.
        """
        job = self.server.service.get_job(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        subscription = job.subscribe()
        try:
            # The heartbeat loop is bounded by the job's terminal
            # status line, not an attempt count.
            # repro-lint: disable=service-retry-bounded
            while True:
                try:
                    event = subscription.get(timeout=self.server.heartbeat)
                except queue.Empty:
                    # Idle heartbeat; the terminal status always
                    # arrives through the subscription itself.
                    self.wfile.write(protocol.encode(job.status_message()))
                    self.wfile.flush()
                    continue
                self.wfile.write(protocol.encode(event))
                self.wfile.flush()
                if (
                    event.get("type") == protocol.MSG_STATUS
                    and event.get("state") in protocol.TERMINAL_JOB_STATES
                ):
                    return
        finally:
            job.unsubscribe(subscription)

    #: The whole HTTP API: (verb, path with ``*`` for the variable
    #: segment) -> (handler, the label a fault plan targets as ``@OP``).
    #: The path tokens are route segments, not protocol vocabulary, even
    #: where the spellings coincide.  A request matching no row is a
    #: typed 400 and fires fault plans under no label.
    ROUTES: Dict[Tuple[str, str], Tuple[Callable[..., None], str]] = {
        ("GET", "/v1/health"): (_health, "health"),
        ("GET", "/v1/cells/*"): (_cell, "cells"),
        ("POST", "/v1/jobs"): (_submit, "jobs"),
        ("GET", "/v1/jobs/*/result"): (_job_result, "result"),
        ("GET", "/v1/jobs/*/events"): (_job_events, "events"),
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: Optional[str] = None,
    workers: int = 2,
    queue_limit: int = 256,
    retry_after: float = 1.0,
    heartbeat: float = 5.0,
    engine: Optional[Engine] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> ServiceServer:
    """Build a ready-to-serve daemon (``port=0`` picks a free port).

    The caller drives ``serve_forever()`` (or ``handle_request()``) and
    is responsible for ``shutdown()`` + ``service.shutdown_gracefully()``.

    Journalling is always on for served daemons: the journal defaults
    to ``journal.ndjson`` inside the store root (the store's entry
    walk ignores it), and ``resume=True`` replays it before the first
    request is accepted.
    """
    store = ResultStore(resolve_store_dir(store_dir), fault_plan=fault_plan)
    journal = JobJournal(resolve_journal_path(journal_path, store.root))
    service = SweepService(
        store,
        workers=workers,
        queue_limit=queue_limit,
        retry_after=retry_after,
        engine=engine,
        journal=journal,
        fault_plan=fault_plan,
    )
    if resume:
        service.resume()
    try:
        return ServiceServer((host, port), service, heartbeat=heartbeat)
    except (OSError, OverflowError) as exc:
        # The bind failed (port taken or out of range): the workers are
        # already forked and the journal open — release both.
        service.shutdown_gracefully()
        raise OSError("cannot listen on %s:%s: %s" % (host, port, exc)) from exc
