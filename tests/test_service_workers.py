"""The daemon's workers are processes: where cells run, that the bytes
are the same wherever they run, what a dead worker costs, and that no
worker outlives its daemon.

None of these tests reads a clock to decide: cells meet at barriers
the workers inherited through fork, report their pids back, and the
lifecycle tests look for pids in ``/proc``.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.engine import _build_and_simulate, worker_pool
from repro.core import presets
from repro.core.policy import POLICIES, PolicySpec, register_policy
from repro.service import protocol
from repro.service import store as store_module
from repro.service.daemon import SweepService, make_server
from repro.service.faults import FaultPlan
from repro.service.journal import JobJournal, resolve_journal_path
from repro.service.remote import RemoteClient
from repro.service.store import ResultStore
from repro.workloads import histogram

from service_helpers import submit

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork + /proc"
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY = SweepSpec.from_presets(
    ["baseline", "warp64"], workloads=["histogram"], size="tiny"
)
CELL_A = ("histogram", "tiny", "baseline", presets.baseline())
CELL_B = ("histogram", "tiny", "warp64", presets.warp64())
#: The cells ``served_sweep`` fills its daemon with under ``--quick``.
QUICK_CELLS = [
    (c.workload, c.size, c.config_name, c.config)
    for c in SweepSpec.from_presets(
        ["baseline"], ["histogram", "transpose"], "tiny"
    ).cells()
]
#: Enough tiny cells that a daemon killed right after the ack has not
#: finished them (~0.3 s of simulation on two workers).
LONG = SweepSpec.from_presets(
    presets.FIGURE7_CONFIGS,
    workloads=["histogram", "transpose", "hotspot", "bfs"],
    size="tiny",
)
LONG_CELLS = [(c.workload, c.size, c.config_name, c.config) for c in LONG.cells()]


@pytest.fixture(autouse=True)
def fresh_memo():
    result_cache.clear()
    yield
    result_cache.clear()


def _serve(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat", 0.1)
    server = make_server(store_dir=str(tmp_path / "store"), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, "http://%s:%d" % server.server_address[:2]


def _stop(server):
    server.shutdown()
    server.service.shutdown_gracefully()
    server.server_close()


def _in_build(monkeypatch, hook):
    """Run ``hook()`` inside every histogram build — the compute step —
    of whichever process builds it.  Patched before a service exists,
    so its forked workers carry it (and whatever ``hook`` closes over)."""
    real = histogram.build

    def build(size):
        hook()
        return real(size)

    monkeypatch.setattr(histogram, "build", build)


def _cache_files_in_parent_only(monkeypatch):
    """Make every cache or store file read or write outside this process
    raise.  Patched before any pool exists, so forked workers carry it."""
    parent = os.getpid()
    patched = (
        (result_cache, ("read_entry", "disk_load", "disk_store", "atomic_write_text")),
        (store_module, ("read_entry", "disk_store")),
    )
    for module, names in patched:
        for name in names:
            real = getattr(module, name)

            def guarded(*args, _real=real, _name=name, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError("a pool worker called %s" % _name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, guarded)


def _load_cell_a(cache_dir):
    return result_cache.disk_load(cache_dir, CELL_A[0], CELL_A[1], CELL_A[3])


# ----------------------------------------------------------------------
# (i) Where cells run
# ----------------------------------------------------------------------


class TestWhereCellsRun:
    def test_two_cells_in_flight_in_two_worker_processes(
        self, tmp_path, monkeypatch
    ):
        barrier = multiprocessing.Barrier(2, timeout=30)
        pids = multiprocessing.Array("i", 2)

        def meet():
            pids[barrier.wait()] = os.getpid()  # both cells are inside

        _in_build(monkeypatch, meet)
        server, url = _serve(tmp_path)
        try:
            result = Engine(server=url, cache_dir=None, memo={}).run(
                TINY, errors="collect"
            )
            assert not result.errors  # a broken barrier would fail both
            assert server.service.counters["cells_simulated"] == 2
        finally:
            _stop(server)
        seen = set(pids)
        assert len(seen) == 2 and 0 not in seen
        assert os.getpid() not in seen

    def test_no_pool_worker_reads_or_writes_a_cache_or_store_file(
        self, tmp_path, monkeypatch
    ):
        _cache_files_in_parent_only(monkeypatch)
        cache = str(tmp_path / "cache")
        with worker_pool(1) as pool:  # the guard holds in a worker
            with pytest.raises(AssertionError, match="disk_load"):
                pool.submit(_load_cell_a, cache).result()
        # A process-backend sweep and the daemon's pool only simulate:
        # the parent (the daemon) does every read and write.
        assert len(Engine(jobs=2, cache_dir=cache, memo={}).run(TINY)) == 2
        assert len(ResultStore(cache)) == 2
        service = SweepService(ResultStore(str(tmp_path / "store")), workers=2)
        try:
            result = _fill(service, QUICK_CELLS)
            assert {cell["status"] for cell in result["cells"]} == {protocol.STATUS_OK}
            assert service.counters["cells_simulated"] == len(QUICK_CELLS)
        finally:
            service.shutdown_gracefully()
        assert len(ResultStore(str(tmp_path / "store"))) == len(QUICK_CELLS)

    def test_forks_happen_before_the_first_thread_and_never_again(
        self, tmp_path, monkeypatch
    ):
        before = set(threading.enumerate())
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(set(threading.enumerate()) - before)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        server, url = _serve(tmp_path)
        try:
            Engine(server=url, cache_dir=None, memo={}).run(TINY)
            Engine(server=url, cache_dir=None, memo={}).run(TINY)  # store hits
        finally:
            _stop(server)
        # One fork per worker, each from a process holding no thread the
        # service (dispatchers, pool plumbing, HTTP) started.
        assert forks == [set(), set()]

    def test_injected_engine_and_hand_drain_stay_in_this_process(self, tmp_path):
        class _PidEngine:
            pids = []

            def __call__(self, *args, **kwargs):
                self.pids.append(os.getpid())
                return _build_and_simulate(*args, **kwargs)

        children = set(multiprocessing.active_children())
        stub = SweepService(
            ResultStore(str(tmp_path / "a")), workers=2, engine=_PidEngine()
        )
        by_hand = SweepService(ResultStore(str(tmp_path / "b")), workers=0)
        assert set(multiprocessing.active_children()) == children  # no fork
        try:
            ack = submit(stub, protocol.submit_message([CELL_A]))
            assert stub.get_job(str(ack["job"])).finished.wait(timeout=30)
            assert _PidEngine.pids == [os.getpid()]
            submit(by_hand, protocol.submit_message([CELL_A]))
            assert by_hand.process_queued() == 1
            assert by_hand.counters["cells_simulated"] == 1
            assert stub.health()["workers"] == {"configured": 2, "alive": 0}
            assert by_hand.health()["workers"] == {"configured": 0, "alive": 0}
        finally:
            stub.shutdown_gracefully()
            by_hand.shutdown_gracefully()


# ----------------------------------------------------------------------
# (ii) Same bytes wherever a cell runs
# ----------------------------------------------------------------------


def _store_files(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith(".json"):  # entries; the journal is .ndjson
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
    return files


def _fill(service, cells, verify=False):
    """Submit ``cells``, get them simulated, return the result envelope."""
    ack = submit(service, protocol.submit_message(list(cells), verify=verify))
    if not service.health()["workers"]["configured"]:
        service.process_queued()
    job = service.get_job(str(ack["job"]))
    assert job.finished.wait(timeout=60)
    return job.result_message()


class TestSameBytes:
    def test_worker_processes_and_calling_thread_store_identical_files(
        self, tmp_path
    ):
        results = {}
        for name, workers in (("processes", 2), ("by_hand", 0)):
            service = SweepService(
                ResultStore(str(tmp_path / name)), workers=workers
            )
            try:
                results[name] = _fill(service, QUICK_CELLS)
                assert service.counters["cells_simulated"] == len(QUICK_CELLS)
            finally:
                service.shutdown_gracefully()
        assert results["processes"] == results["by_hand"]
        files = _store_files(str(tmp_path / "processes"))
        assert len(files) == len(QUICK_CELLS)
        assert files == _store_files(str(tmp_path / "by_hand"))

    def test_verify_runs_the_numpy_check_in_the_worker(
        self, tmp_path, monkeypatch
    ):
        real = histogram.build

        def build(size):
            inst = real(size)

            def check(memory):
                raise AssertionError("checked in pid %d" % os.getpid())

            inst.numpy_check = check
            return inst

        monkeypatch.setattr(histogram, "build", build)
        service = SweepService(ResultStore(str(tmp_path / "store")), workers=2)
        try:
            (plain,) = _fill(service, [CELL_A])["cells"]
            assert plain["status"] == protocol.STATUS_OK  # no check asked
            (checked,) = _fill(service, [CELL_A], verify=True)["cells"]
        finally:
            service.shutdown_gracefully()
        assert checked["status"] == protocol.STATUS_FAILED
        # "<ExceptionType>: <message>", as the simulation raised it.
        kind, _, pid = checked["error"].rpartition(" ")
        assert kind == "AssertionError: checked in pid"
        assert int(pid) != os.getpid()

    def test_policy_registered_before_the_service_simulates_in_a_worker(
        self, tmp_path
    ):
        register_policy(
            PolicySpec(
                name="scratch_served_w64",
                scheduler="single_issue",
                divergence="frontier",
                preset=dict(warp_count=16, warp_width=64),
            )
        )
        try:
            config = presets.by_name("scratch_served_w64")
            cell = ("histogram", "tiny", "scratch_served_w64", config)
            inline = _build_and_simulate("histogram", "tiny", config, False)[0]
            service = SweepService(ResultStore(str(tmp_path / "store")), workers=2)
            try:
                (got,) = _fill(service, [cell])["cells"]
            finally:
                service.shutdown_gracefully()
        finally:
            POLICIES.unregister("scratch_served_w64")
        assert got["status"] == protocol.STATUS_OK, got.get("error")
        assert got["source"] == protocol.SOURCE_SIMULATED
        assert got["stats"] == result_cache.stats_to_payload(inline)


# ----------------------------------------------------------------------
# (iii) A worker dies
# ----------------------------------------------------------------------


class TestWorkerDeath:
    def test_killed_worker_fails_its_cells_and_the_daemon_carries_on(
        self, tmp_path, monkeypatch
    ):
        pids = multiprocessing.Array("i", 2)
        inside = multiprocessing.Semaphore(0)

        def hold(daemon=os.getpid()):
            if os.getpid() == daemon:
                return  # the re-run below, in the daemon's own threads
            with pids.get_lock():
                pids[list(pids).index(0)] = os.getpid()
            inside.release()
            time.sleep(60)  # mid-cell until killed

        _in_build(monkeypatch, hold)
        server, url = _serve(tmp_path)
        try:
            client = RemoteClient(url, retries=0)
            assert client.health()["workers"] == {"configured": 2, "alive": 2}
            job_id = str(client.submit([CELL_A, CELL_B])["job"])
            assert inside.acquire(timeout=30) and inside.acquire(timeout=30)
            victims = set(pids)
            assert len(victims) == 2 and not victims & {0, os.getpid()}
            os.kill(min(victims), signal.SIGKILL)  # mid-cell

            message = client.wait_result(job_id, poll_interval=0.05)
            assert message["state"] == protocol.JOB_DONE  # terminal, not hung
            names = {0: "histogram@tiny/baseline", 1: "histogram@tiny/warp64"}
            for cell in message["cells"]:
                assert cell["status"] == protocol.STATUS_FAILED
                assert cell["error"].startswith("WorkerProcessDied: ")
                assert "worker process died" in cell["error"]
                assert names[cell["id"]] in cell["error"]
            assert server.service.counters["cells_failed"] == 2
            assert server.service.counters["cells_simulated"] == 0

            # The daemon keeps answering: the same cells, resubmitted,
            # simulate in its own threads, and health says why.
            again = Engine(server=url, cache_dir=None, memo={}).run(TINY)
            inline = Engine(backend="inline", cache_dir=None, memo={}).run(TINY)
            assert again.to_json() == inline.to_json()
            assert server.service.counters["cells_simulated"] == 2
            assert client.health()["workers"] == {"configured": 2, "alive": 0}
        finally:
            _stop(server)
        deadline = time.monotonic() + 3.0
        while _alive(victims) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(victims)  # the survivor went with the pool

    def test_fallback_client_reruns_the_lost_cells_itself(
        self, tmp_path, monkeypatch
    ):
        def die_in_a_worker(parent=os.getpid()):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _in_build(monkeypatch, die_in_a_worker)
        server, url = _serve(tmp_path)
        try:
            events = []
            result = Engine(
                server=url, cache_dir=None, memo={}, fallback="inline",
                progress=events.append,
            ).run(TINY)
            # (A cell whose dispatcher found the pool already gone was
            # simulated by the daemon itself, in that thread.)
            sources = {e.source for e in events}
            assert protocol.SOURCE_FALLBACK in sources
            assert sources <= {protocol.SOURCE_FALLBACK, protocol.SOURCE_SIMULATED}
        finally:
            _stop(server)
        inline = Engine(backend="inline", cache_dir=None, memo={}).run(TINY)
        assert result.to_json() == inline.to_json()


# ----------------------------------------------------------------------
# (iv), (v) Lifecycle of a real ``repro serve``
# ----------------------------------------------------------------------


def _ppid_and_state(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None, None
    return int(fields[1]), fields[0]


def _alive(pids):
    """The pids that still run (a zombie awaiting its reaper does not)."""
    return {
        pid for pid in pids if _ppid_and_state(pid)[1] not in (None, "Z", "X")
    }


def _children_of(parent):
    return {
        int(name)
        for name in os.listdir("/proc")
        if name.isdigit() and _ppid_and_state(int(name))[0] == parent
    }


class _Served:
    """A ``repro serve --workers 2`` child in its own process group,
    with DeprecationWarning an error: on Python 3.12+ a fork from the
    threaded daemon fails the cell instead of warning."""

    def __init__(self, store_dir, *flags):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_CACHE_DIR", None)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-W", "error::DeprecationWarning",
                "-m", "repro.cli", "serve", "--port", "0", "--workers", "2",
                "--store", store_dir, *flags,
            ],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            text=True,
            env=env,
            start_new_session=True,
        )
        self.url = ""
        self.workers = set()
        try:
            for line in self.proc.stderr:
                if "listening on " in line:
                    self.url = line.split("listening on ", 1)[1].split()[0]
                    break
            assert self.url, "repro serve exited before listening"
            self.workers = _children_of(self.proc.pid)
            assert len(self.workers) == 2  # forked before it listened
        except BaseException:
            self.close()
            raise

    def finish(self):
        """Wait for the daemon to exit, however it was told to; no
        worker may outlive it by 3 s.  (exit status, rest of stderr)."""
        try:
            status = self.proc.wait(timeout=60)
            deadline = time.monotonic() + 3.0
            while _alive(self.workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(self.workers)
            return status, self.proc.stderr.read()
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pid in _alive(self.workers):  # a failed test leaves no orphans
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # gone since we looked
        self.proc.stderr.close()


def _resume_finishes(store_dir, job_id, cells):
    resumed = _Served(store_dir, "--resume")
    try:
        message = RemoteClient(resumed.url).wait_result(job_id, poll_interval=0.05)
        assert message["state"] == protocol.JOB_DONE
        assert len(message["cells"]) == cells
        assert all(c["status"] == protocol.STATUS_OK for c in message["cells"])
        assert _children_of(resumed.proc.pid) == resumed.workers  # no new fork
        resumed.proc.terminate()
        status, err = resumed.finish()
        assert status == 0, err
    finally:
        resumed.close()


class TestNoOrphans:
    def test_sigkilled_daemon_takes_its_workers_and_resume_finishes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        served = _Served(store_dir)
        try:
            job_id = str(RemoteClient(served.url).submit(LONG_CELLS)["job"])
            served.proc.kill()
            status, _ = served.finish()
            assert status == -signal.SIGKILL
        finally:
            served.close()
        _resume_finishes(store_dir, job_id, len(LONG_CELLS))

    def test_injected_crash_takes_its_workers_and_resume_finishes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        served = _Served(store_dir, "--fault-plan", "crash-before-publish:1")
        try:
            job_id = str(RemoteClient(served.url).submit([CELL_A, CELL_B])["job"])
            status, err = served.finish()
            assert status == 70, err  # os._exit in a dispatcher, in the daemon
            assert "injected crash (crash-before-publish)" in err
        finally:
            served.close()
        # The cell it died on was never written (its sibling's may be).
        assert len(ResultStore(store_dir)) <= 1
        _resume_finishes(store_dir, job_id, 2)

    def test_a_failed_bind_leaves_no_worker_and_a_closed_journal(
        self, tmp_path, monkeypatch
    ):
        """The workers are forked and the journal opened before the
        socket binds; a taken port must not leave either behind."""
        closed = []
        close = JobJournal.close
        monkeypatch.setattr(
            JobJournal, "close", lambda self: closed.append(self.path) or close(self)
        )
        server, _ = _serve(tmp_path / "first", workers=0)
        try:
            before = set(multiprocessing.active_children())
            port = server.server_address[1]
            store_dir = str(tmp_path / "store")
            with pytest.raises(OSError, match="cannot listen on 127.0.0.1:%d" % port):
                make_server(store_dir=store_dir, workers=2, port=port)
            assert closed == [resolve_journal_path(None, store_dir)]
            deadline = time.monotonic() + 10.0
            while (
                set(multiprocessing.active_children()) != before
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert set(multiprocessing.active_children()) == before
        finally:
            _stop(server)


class TestDrain:
    def test_sigint_to_the_process_group_drains_every_queued_cell(self, tmp_path):
        store_dir = str(tmp_path / "store")
        served = _Served(store_dir)
        try:
            ack = RemoteClient(served.url).submit(LONG_CELLS)
            assert ack["triage"]["queued"] == len(LONG_CELLS)
            os.killpg(served.proc.pid, signal.SIGINT)  # what Ctrl-C sends
            status, err = served.finish()
            assert status == 0, err
            assert "repro serve: stopped" in err
        finally:
            served.close()
        # The journal closed on a finished job; the store holds it all.
        path = resolve_journal_path(None, store_dir)
        (job,) = JobJournal.replay_path(path)
        assert job.finished
        assert {status for status, _ in job.resolved.values()} == {
            protocol.STATUS_OK
        }
        assert len(job.resolved) == len(LONG_CELLS)
        assert len(ResultStore(store_dir)) == len(LONG_CELLS)
        assert ResultStore(store_dir).verify().ok


# ----------------------------------------------------------------------
# The event stream is only a wait
# ----------------------------------------------------------------------


class TestTerminalAckSkipsTheStream:
    def test_store_answered_sweep_never_opens_the_stream(self, tmp_path):
        # From the second stream on, every one would be severed.
        plan = FaultPlan.parse("drop-connection@events:2x1000")
        (spec,) = plan.specs
        server, url = _serve(tmp_path, fault_plan=plan)
        try:
            cold = Engine(server=url, cache_dir=None, memo={}).run(TINY)
            assert spec.seen == 1  # a cold sweep still streams

            retries = []
            engine = Engine(server=url, cache_dir=None, memo={})
            engine._remote_client = RemoteClient(url, sleep=retries.append)
            events = []
            warm = engine.run(TINY, progress=events.append)
            assert warm.to_json() == cold.to_json()
            assert {e.source for e in events} == {protocol.SOURCE_STORE}
            assert spec.seen == 1 and plan.history == []  # op never fired
            assert retries == []
        finally:
            _stop(server)
