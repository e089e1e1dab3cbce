"""The experiment engine: runs a :class:`SweepSpec` through a backend.

The :class:`Engine` owns the two-level result cache
(:mod:`repro.api.cache` — its disk level is a content-addressed store
a ``repro serve`` daemon can serve directly) and delegates uncached
cells to a pluggable execution backend:

``inline``
    simulate in this process, one cell at a time;
``process``
    fan uncached cells out over worker processes (:func:`worker_pool`,
    the constructor the ``repro serve`` daemon builds its workers with
    too; simulations are single-threaded and independent, so grids
    parallelise embarrassingly; workers only simulate);
``remote``
    submit uncached cells to a ``repro serve`` daemon
    (:mod:`repro.service`) and fold its results into the local caches
    — identical in-flight cells coalesce to one simulation on the
    daemon, and results land in its content-addressed shared store.

A backend only resolves cells: its runner yields, per cell, the stats
or the exception that failed it.  :meth:`Engine.run` is the one place
that reads or writes either cache level, the one that applies the error
policy — fail-fast (``errors="raise"``) or collect-and-continue
(``errors="collect"``, failed cells end up in ``ResultSet.errors``
carrying ``str()`` of what fail-fast would have raised) — and the one
that fires the progress callback for every cell as it resolves; one
cell is a one-cell :class:`SweepSpec`::

    engine = Engine(jobs=4, cache_dir=".repro_cache")
    rs = engine.run(SweepSpec.figure7(size="smoke"))
    print(rs.to_markdown())
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.api import cache as result_cache
from repro.api.cache import AnyConfig, AnyStats
from repro.api.results import CellError, Result, ResultSet
from repro.api.spec import Cell, SweepSpec
from repro.core.gpu import simulate_device
from repro.core.policy.observers import Observer
from repro.core.simulator import simulate
from repro.functional.compiled import compile_program
from repro.timing.config import GPUConfig
from repro.workloads import get_workload

if TYPE_CHECKING:  # imported where used: an inline sweep never runs them
    import urllib.parse
    from concurrent.futures import ProcessPoolExecutor

#: Error policies of :meth:`Engine.run`.
ERROR_POLICIES = ("raise", "collect")

#: Execution backends, in dispatch order.  Each name ``x`` pairs with
#: an ``Engine._run_x`` runner; validation and the backend error
#: message derive from this tuple, so adding a backend is one entry
#: plus one method.
BACKENDS = ("inline", "process", "remote")


@dataclass(frozen=True)
class Progress:
    """One progress event: the ``done``-th of ``total`` unique cells.

    ``done`` counts monotonically from 1 to ``total`` over the whole
    run — including fully-cached runs, where every event carries
    ``cached=True``.  ``source`` records provenance for remote cells
    (``"simulated"``, ``"store"`` or ``"coalesced"`` from the daemon,
    ``"fallback"`` for cells a degraded client simulated inline);
    local backends leave it ``None``.
    """

    done: int
    total: int
    workload: str
    size: str
    config_name: str
    cached: bool
    error: Optional[str] = None
    source: Optional[str] = None


ProgressFn = Callable[[Progress], None]

#: One cell a runner must resolve: ``(key, cell, content address, its
#: config's canonical text)``, address and text None in a run with
#: neither a disk level nor a daemon (such a run must not need its
#: configs JSON-native).
Pending = Tuple[Tuple, Cell, Optional[str], Optional[str]]

#: What a backend runner yields per pending cell: ``(key, cell, stats
#: or the exception that failed it, cached, source)``.
CellOutcome = Tuple[Tuple, Cell, Union[AnyStats, Exception], bool, Optional[str]]


def _build_and_simulate(
    workload: str,
    size: str,
    config: AnyConfig,
    verify: bool,
    observers: Tuple[str, ...] = (),
    build=get_workload,
    sim=simulate,
    sim_device=simulate_device,
) -> Tuple[AnyStats, Dict[str, Observer]]:
    """The one function every backend runs a cell in (module-level, so
    it pickles; it opens no cache): build the workload and the named
    ``observers``, simulate with them attached, check the outputs under
    ``verify``, and return the stats with the observers by name.

    An attached ``origins`` aggregator is held to the policy's modeled
    front-end width (:func:`repro.hwcost.validate_peak_issue`): a cell
    that issued through hardware the cost model never priced fails
    with :class:`~repro.hwcost.PeakIssueViolation`."""
    attached: Dict[str, Observer] = {}
    if observers:
        # Importing the package registers the built-in aggregators.
        from repro.analytics import OriginAggregator, make_aggregators
        from repro.hwcost import validate_peak_issue

        attached = make_aggregators(observers)
    inst = build(workload, size)
    # Only pass the keyword when observers are attached so injected
    # simulate_fn doubles that ignore it keep working unchanged.
    kwargs = {"observers": list(attached.values())} if attached else {}
    run = sim_device if isinstance(config, GPUConfig) else sim
    stats = run(inst.kernel, inst.memory, config, **kwargs)
    if verify and inst.numpy_check is not None:
        inst.numpy_check(inst.memory)
    for observer in attached.values():
        if isinstance(observer, OriginAggregator):
            validate_peak_issue(config, observer.snapshot())
    return stats, attached


def _warm(pending: List[Pending]) -> None:
    """Build the pending cells' workloads and compile their programs at
    each cell's warp width in this process, where both are kept
    (:func:`~repro.workloads.get_workload`,
    :meth:`~repro.isa.program.Program.plan_table`): workers forked
    afterwards start with them instead of each doing it again.  A
    workload that fails to build is left for its cells to fail on in a
    worker, as they would have."""
    widths: Dict[Tuple[str, str], Set[int]] = {}
    for _, cell, _, _ in pending:
        config = cell.config
        sm = config.sm if isinstance(config, GPUConfig) else config
        widths.setdefault((cell.workload, cell.size), set()).add(sm.warp_width)
    for (workload, size), in_use in widths.items():
        try:
            program = get_workload(workload, size).kernel.program
        except Exception:  # noqa: BLE001 — the cells' own error, raised in a worker
            continue
        for width in sorted(in_use):
            compile_program(program, width)


#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.5


def _exit_with_parent(parent: int) -> None:
    """A worker's watch thread: leave once ``parent`` has gone.

    Forked pool workers inherit each other's queue ends, so none of
    them ever reads end-of-file when the parent dies without shutting
    the pool down (``kill -9``, ``os._exit``); being re-parented is the
    one sign every kind of death leaves.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _worker_init(plugins: Tuple[str, ...]) -> None:
    """Import plugin modules so policies they register exist in the
    worker even under spawn/forkserver start methods (under fork the
    parent's registry is inherited anyway)."""
    for name in plugins:
        importlib.import_module(name)


def _enter_worker(plugins: Tuple[str, ...]) -> None:
    """Pool initializer: ignore SIGINT, so a terminal's Ctrl-C reaches
    the parent alone and the parent decides what its workers finish;
    start the parent-death watch; import the plugins."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    _worker_init(plugins)


def _check_jobs(jobs: Optional[int]) -> None:
    if jobs is not None and (type(jobs) is not int or jobs < 1):
        raise ValueError(
            "jobs must be None (one worker per core) or an integer >= 1, "
            "got %r" % (jobs,)
        )


def _check_timeout(timeout: object, name: str = "timeout") -> None:
    # A bool is an int, and the transport meets inf, nan or <= 0 only at
    # the first request — as an OverflowError, or after every retry.
    if (
        not isinstance(timeout, (int, float))
        or isinstance(timeout, bool)
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise ValueError(
            "%s must be a finite number of seconds > 0, got %r" % (name, timeout)
        )


def _check_retries(retries: object, name: str = "retries") -> None:
    if type(retries) is not int or retries < 0:  # True is not 1 retry
        raise ValueError("%s must be an integer >= 0, got %r" % (name, retries))


def _check_server(server: object) -> urllib.parse.SplitResult:
    """The parts of a daemon URL: an http(s) scheme, a host, a port in
    1..65535 when one is given and an optional path prefix — no query,
    fragment or user name.  Anything else is a ``ValueError`` naming the
    URL and the bad part, before any request: a malformed URL is a typo
    to fix, not a dead daemon to retry or fall back from."""
    import urllib.parse

    if not isinstance(server, str):
        raise ValueError("server must be an http(s) URL, got %r" % (server,))
    parts = urllib.parse.urlsplit(server)
    if parts.scheme not in ("http", "https"):
        bad = "must be an http(s) URL"
    elif "?" in server:
        bad = "has a query (%r); a daemon URL is a host, a port and a path" % (
            "?" + parts.query,
        )
    elif "#" in server:
        bad = "has a fragment (%r)" % ("#" + parts.fragment,)
    elif "@" in parts.netloc:
        bad = "has a user name; a daemon URL takes none"
    elif not parts.hostname:
        bad = "has no host"
    else:
        try:
            port = parts.port
        except ValueError as exc:  # not a number, or over 65535
            bad = "has a bad port: %s" % exc
        else:
            if port is None or 1 <= port <= 65535:
                return parts
            bad = "has a bad port: %d is not in 1..65535" % port
    raise ValueError("server %r %s" % (server, bad))


def worker_pool(
    jobs: Optional[int], plugins: Tuple[str, ...] = ()
) -> ProcessPoolExecutor:
    """The processes that run :func:`_build_and_simulate` outside the
    calling process — for the ``process`` backend and for the ``repro
    serve`` daemon alike.  ``jobs`` is taken as given: None is one worker per
    core, ``n >= 1`` is n.  Workers follow their parent down within
    about :data:`PARENT_POLL_S` however it dies."""
    from concurrent.futures import ProcessPoolExecutor

    _check_jobs(jobs)
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_enter_worker, initargs=(plugins,)
    )


class Engine:
    """Executes sweeps through the two-level cache and a backend.

    ``workload_factory`` / ``simulate_fn`` / ``simulate_device_fn``
    override how *inline* cells are built and simulated (tests use
    this to stay monkeypatch-compatible); the ``process`` backend
    always runs the real functions in its workers.
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        memo: Optional[Dict] = None,
        progress: Optional[ProgressFn] = None,
        errors: str = "raise",
        plugins: Optional[List[str]] = None,
        observers: Optional[List[str]] = None,
        server: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = 3,
        fallback: Optional[str] = None,
        workload_factory=None,
        simulate_fn=None,
        simulate_device_fn=None,
    ):
        _check_jobs(jobs)
        _check_timeout(timeout)
        _check_retries(retries)
        if server is not None:
            _check_server(server)
        if backend is None:
            if server is not None:
                backend = "remote"
            else:
                backend = "process" if jobs is not None and jobs > 1 else "inline"
        if backend not in BACKENDS:
            raise ValueError(
                "backend must be one of %s, got %r"
                % (", ".join(repr(b) for b in BACKENDS), backend)
            )
        if backend == "remote" and server is None:
            raise ValueError("backend 'remote' requires server=<daemon URL>")
        if errors not in ERROR_POLICIES:
            raise ValueError("errors must be one of %s" % (ERROR_POLICIES,))
        if fallback not in (None, "inline"):
            raise ValueError(
                "fallback must be None or 'inline', got %r" % (fallback,)
            )
        if fallback is not None and backend != "remote":
            raise ValueError(
                "fallback requires the remote backend (it is the remote "
                "path's degraded mode), got backend=%r" % backend
            )
        if observers:
            if backend == "remote":
                raise ValueError(
                    "observers run inline or on the process backend, not on "
                    "the remote backend: a repro serve daemon returns stats only"
                )
            # Importing the package registers the built-in aggregators.
            from repro.analytics import make_aggregators

            make_aggregators(observers)  # unknown names fail with the known list
        self.backend = backend
        self.jobs = jobs
        self.server = server
        self.timeout = timeout
        self.retries = retries
        #: ``"inline"`` lets the remote backend hand the cells a dead,
        #: shutting-down or faulting daemon left unresolved to
        #: :meth:`_run_inline`; None (default) fails loudly.
        self.fallback = fallback
        self._remote_client = None
        #: Module names imported in every process-pool worker (policy
        #: plugins must be registered there too, not just here).
        self.plugins = tuple(plugins or ())
        self.cache_dir = cache_dir
        self.memo = result_cache.MEMO if memo is None else memo
        self.progress = progress
        self.errors = errors
        self._hooks = dict(
            build=workload_factory or get_workload,
            sim=simulate_fn or simulate,
            sim_device=simulate_device_fn or simulate_device,
        )
        self.observer_names: Tuple[str, ...] = tuple(observers or ())
        #: ``(workload, size, config_name) -> {observer name: instance}``
        #: for every result cell of the last :meth:`run`, in spec order
        #: (empty without observers).  Observed cells always simulate
        #: (cache reads are bypassed), so each entry saw the complete
        #: event stream; aliased configs share one simulation, and with
        #: it one set of observers.
        self.observations: Dict[Tuple[str, str, str], Dict[str, Observer]] = {}
        #: The running sweep's observers by cell key (:meth:`_resolved`).
        self._observed: Dict[Tuple, Dict[str, Observer]] = {}

    def run(
        self,
        spec: SweepSpec,
        verify: bool = False,
        progress: Optional[ProgressFn] = None,
        errors: Optional[str] = None,
    ) -> ResultSet:
        """Execute every cell of ``spec`` and return a ResultSet.

        Cells whose configs alias (identical key under different
        names) simulate once.  Progress fires once per *unique* cell;
        under ``errors="collect"`` failed cells are reported in
        ``ResultSet.errors`` instead of aborting the sweep.
        """
        progress = progress if progress is not None else self.progress
        errors = self.errors if errors is None else errors
        if errors not in ERROR_POLICIES:
            raise ValueError("errors must be one of %s" % (ERROR_POLICIES,))
        self.observations = {}
        self._observed = {}

        cells = spec.cells()
        disk_dir = result_cache.resolve_dir(self.cache_dir)
        addressed = bool(disk_dir) or self.backend == "remote"
        # A grid is few configs x many workloads: walk each config once
        # for its memo key and — where a disk level or a daemon is asked
        # — its canonical text and digest, and key every cell off those.
        keys_of = result_cache.per_config(result_cache.ConfigKeys)

        # Unique work items: aliased configs share one simulation.  A
        # preset's key is a ~30-pair tuple that rehashes on every dict
        # probe, so past this loop a cell goes by its slot number.
        slots: List[int] = []  # slot of cells[i]
        unique: Dict[Tuple, int] = {}  # cell_key -> slot
        firsts: List[Tuple[Tuple, Cell]] = []  # (cell_key, first cell) per slot
        for cell in cells:
            key = (cell.workload, cell.size, keys_of(cell.config_name, cell.config).key)
            slot = unique.setdefault(key, len(firsts))
            if slot == len(firsts):
                firsts.append((key, cell))
            slots.append(slot)

        outcome: List[object] = [None] * len(firsts)  # AnyStats | CellError
        total = len(firsts)
        done = 0

        def emit(
            cell: Cell,
            cached: bool,
            error: Optional[str] = None,
            source: Optional[str] = None,
        ) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(
                    Progress(
                        done, total, cell.workload, cell.size, cell.config_name,
                        cached, error, source,
                    )
                )

        # Observed cells must simulate: a cached Stats object carries
        # no event stream for the aggregators to see.
        reuse = not (verify or self.observer_names)
        pending: List[Pending] = []
        for slot, (key, cell) in enumerate(firsts):
            stats = self.memo.get(key) if reuse else None
            digest: Optional[str] = None
            text: Optional[str] = None
            if stats is None and addressed:
                text, config_digest = keys_of(cell.config_name, cell.config).address()
                digest = result_cache.cell_address(cell.workload, cell.size, config_digest)
                if reuse and disk_dir:
                    stats = result_cache.disk_load(
                        disk_dir, cell.workload, cell.size, cell.config, digest
                    )
                    if stats is not None:
                        self.memo[key] = stats
            if stats is not None:
                outcome[slot] = stats
                emit(cell, cached=True)
            else:
                pending.append((key, cell, digest, text))

        if pending:
            runner = getattr(self, "_run_%s" % self.backend)
            address = {key: digest for key, _, digest, _ in pending}
            # Closing the runner on the way out — normally or through a
            # fail-fast raise — is what lets the pool drop queued cells.
            with closing(runner(pending, verify)) as outcomes:
                for key, cell, got, cached, source in outcomes:
                    slot = unique[key]
                    if isinstance(got, Exception):
                        if errors == "raise":
                            raise got
                        text = str(got)
                        outcome[slot] = CellError(
                            cell.workload, cell.size, cell.config_name, text
                        )
                        emit(cell, cached=False, error=text)
                        continue
                    self.memo[key] = got
                    if disk_dir:
                        result_cache.disk_store(
                            disk_dir, cell.workload, cell.size, cell.config, got,
                            address[key],
                        )
                    outcome[slot] = got
                    emit(cell, cached, source=source)

        results: List[Result] = []
        cell_errors: List[CellError] = []
        for slot, cell in zip(slots, cells):
            got = outcome[slot]
            if got is None:
                continue  # unresolved under fail-fast abort
            if isinstance(got, CellError):
                cell_errors.append(
                    CellError(cell.workload, cell.size, cell.config_name, got.error)
                )
            else:
                results.append(Result(cell.workload, cell.size, cell.config_name, got))
        # One simulation's observers go under every name that shares it.
        if self._observed:
            for slot, cell in zip(slots, cells):
                observers = self._observed.get(firsts[slot][0])
                if observers:
                    self.observations[cell.workload, cell.size, cell.config_name] = observers
        return ResultSet(results, errors=cell_errors)

    # -- backends ------------------------------------------------------
    #
    # A runner resolves the cells the caches could not: for each
    # ``(key, cell, content address, config text)`` pending it yields
    # one ``(key, cell, stats or exception, cached, source)`` and leaves
    # the error policy, the caches and progress to :meth:`run`.

    def _resolved(
        self,
        key: Tuple,
        cell: Cell,
        ran: Callable[[], Tuple[AnyStats, Dict[str, Observer]]],
    ) -> CellOutcome:
        """One simulated cell's outcome: what ``ran()`` returns or
        raises.  Its observers, if any, are kept for :meth:`run` to file
        in :attr:`observations`."""
        try:
            stats, observers = ran()
        except Exception as exc:
            return key, cell, exc, False, None
        if observers:
            self._observed[key] = observers
        return key, cell, stats, False, None

    def _run_inline(self, pending, verify) -> Iterator[CellOutcome]:
        for key, cell, _, _ in pending:
            yield self._resolved(key, cell, functools.partial(
                _build_and_simulate, cell.workload, cell.size, cell.config, verify,
                self.observer_names, **self._hooks,
            ))

    def _run_process(self, pending, verify) -> Iterator[CellOutcome]:
        import multiprocessing
        from concurrent.futures import as_completed

        if multiprocessing.get_start_method() == "fork":
            _warm(pending)  # the workers fork with it
        with worker_pool(self.jobs, self.plugins) as pool:
            futures = {
                pool.submit(
                    _build_and_simulate, cell.workload, cell.size, cell.config,
                    verify, self.observer_names,
                ): (key, cell)
                for key, cell, _, _ in pending
            }
            # Consume in completion order so progress never stalls
            # behind a slow early cell.
            try:
                for future in as_completed(futures):
                    yield self._resolved(*futures[future], future.result)
            except BaseException:
                # Fail fast (the consumer closed us): drop every queued
                # cell; the running ones finish unrecorded.
                pool.shutdown(wait=True, cancel_futures=True)
                raise

    @property
    def remote_client(self):
        """The lazily-built client for ``backend="remote"``.

        Lazy so constructing an inline/process Engine never imports the
        service package.  It holds no state between requests.  (Sweeps
        sharing one Engine coalesce on the daemon, like everyone else.)
        """
        if self._remote_client is None:
            from repro.service.remote import RemoteClient

            if self.server is None:
                raise ValueError("no server configured for remote backend")
            self._remote_client = RemoteClient(
                self.server, timeout=self.timeout, retries=self.retries
            )
        return self._remote_client

    def _run_remote(self, pending, verify) -> Iterator[CellOutcome]:
        from repro.service.remote import run_remote

        return run_remote(self, pending, verify)


def run(spec: SweepSpec, **engine_kwargs) -> ResultSet:
    """One-shot convenience: ``Engine(**engine_kwargs).run(spec)``."""
    return Engine(**engine_kwargs).run(spec)
