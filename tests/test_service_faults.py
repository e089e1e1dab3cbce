"""Fault injection, the write-ahead journal, crash recovery, store GC,
and graceful remote degradation.

The headline invariant throughout: whatever fault sequence is injected
— dropped connections, truncated responses, torn store writes, worker
crashes before/after publish, a daemon refusing work mid-shutdown —
the results a client ends up with are byte-identical to an inline run.
"""

import io
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.cache import cell_hash
from repro.core import presets
from repro.service import protocol
from repro.service.daemon import SweepService, make_server
from repro.service.faults import (
    CRASH_KINDS,
    FAULT_CRASH_AFTER_PUBLISH,
    FAULT_CRASH_BEFORE_PUBLISH,
    FAULT_DROP_CONNECTION,
    FAULT_KINDS,
    FAULT_TORN_STORE_WRITE,
    FAULT_WORKER_EXCEPTION,
    KIND_SITES,
    SITE_HTTP,
    SITE_STORE,
    SITE_WORKER,
    SITES,
    DaemonCrash,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)
from repro.service.journal import (
    JobJournal,
    JournalError,
    resolve_journal_path,
)
from repro.service.protocol import ProtocolError, SubmittedCell
from repro.service.remote import RemoteClient, RemoteError
from repro.service.store import ResultStore
from repro.timing.stats import Stats

from service_helpers import submit

TINY = SweepSpec.from_presets(
    ["baseline", "warp64"], workloads=["histogram"], size="tiny"
)

CELL_A = ("histogram", "tiny", "baseline", presets.baseline())
CELL_B = ("histogram", "tiny", "warp64", presets.warp64())
CELL_C = ("histogram", "tiny", "sbi", presets.sbi())

#: A server nobody listens on (port 9 is discard; connect refuses fast).
DEAD_URL = "http://127.0.0.1:9"


@pytest.fixture(autouse=True)
def fresh_memo():
    result_cache.clear()
    yield
    result_cache.clear()


class _StubEngine:
    """A cell function with ``_build_and_simulate``'s signature: counts
    calls; optionally fails every cell."""

    def __init__(self, fail=False):
        self.calls = 0
        self.fail = fail

    def __call__(self, workload, size, config, verify, observers=()):
        self.calls += 1
        if self.fail:
            raise RuntimeError("boom")
        return Stats(cycles=7, thread_instructions=3, instructions_issued=2), {}


def _journalled_service(tmp_path, fault_plan=None, engine=None):
    store = ResultStore(str(tmp_path / "store"), fault_plan=fault_plan)
    journal = JobJournal(resolve_journal_path(None, store.root))
    service = SweepService(
        store,
        workers=0,
        engine=engine if engine is not None else _StubEngine(),
        journal=journal,
        fault_plan=fault_plan,
    )
    return service


def _submit(service, cells=(CELL_A, CELL_B), verify=False):
    ack = submit(service, protocol.submit_message(list(cells), verify=verify))
    return str(ack["job"])


def _serve(tmp_path, name="store", **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat", 0.1)
    server = make_server(store_dir=str(tmp_path / name), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, "http://%s:%d" % (host, port)


def _stop(server):
    server.shutdown()
    server.service.shutdown_gracefully()
    server.server_close()


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_vocabulary_is_closed_and_sited(self):
        assert len(set(FAULT_KINDS)) == len(FAULT_KINDS)
        assert set(KIND_SITES) == set(FAULT_KINDS)
        assert set(KIND_SITES.values()) == set(SITES)
        assert set(CRASH_KINDS) < set(FAULT_KINDS)

    def test_parse_describe_round_trip(self):
        text = "drop-connection@jobs:2x3,worker-exception:1,torn-store-write:4"
        assert FaultPlan.parse(text).describe() == text

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("no-such-kind", "unknown fault kind"),
            ("drop-connection:0", "trigger must be >= 1"),
            ("drop-connection:zap", "bad fault trigger"),
            ("drop-connection@", "empty operation"),
            ("", "names no faults"),
            (" , ", "names no faults"),
        ],
    )
    def test_parse_rejections(self, spec, match):
        with pytest.raises(FaultPlanError, match=match):
            FaultPlan.parse(spec)

    def test_fire_targets_nth_matching_operation(self):
        plan = FaultPlan.parse("drop-connection@jobs:2")
        assert plan.fire(SITE_HTTP, "health") is None  # op filtered out
        assert plan.fire(SITE_HTTP, "jobs") is None  # 1st match: no
        assert plan.fire(SITE_HTTP, "jobs") == FAULT_DROP_CONNECTION
        assert plan.fire(SITE_HTTP, "jobs") is None  # count exhausted
        assert plan.history == [
            (SITE_HTTP, "jobs", 2, FAULT_DROP_CONNECTION)
        ]

    def test_count_widens_the_window(self):
        plan = FaultPlan.parse("worker-exception:2x2")
        fired = [plan.fire(SITE_WORKER, "bfs") for _ in range(4)]
        assert fired == [None, FAULT_WORKER_EXCEPTION, FAULT_WORKER_EXCEPTION, None]

    def test_specs_count_independently_first_match_wins(self):
        plan = FaultPlan.parse("worker-exception:1,torn-store-write:1")
        # Different sites never interfere...
        assert plan.fire(SITE_STORE, "bfs") == FAULT_TORN_STORE_WRITE
        assert plan.fire(SITE_WORKER, "bfs") == FAULT_WORKER_EXCEPTION
        # ...and two specs on one site each keep their own counter.
        both = FaultPlan.parse("worker-exception:1,crash-after-publish:2")
        assert both.fire(SITE_WORKER, "a") == FAULT_WORKER_EXCEPTION
        assert both.fire(SITE_WORKER, "b") == FAULT_CRASH_AFTER_PUBLISH

    def test_fire_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="fault site"):
            FaultPlan.parse("worker-exception").fire("disk", "x")

    def test_crash_without_hook_raises_daemon_crash(self):
        plan = FaultPlan.parse("crash-before-publish")
        with pytest.raises(DaemonCrash) as excinfo:
            plan.crash(FAULT_CRASH_BEFORE_PUBLISH)
        assert excinfo.value.kind == FAULT_CRASH_BEFORE_PUBLISH
        assert not isinstance(excinfo.value, Exception)  # un-swallowable

    def test_crash_hook_runs_first(self):
        died = []
        plan = FaultPlan([FaultSpec("crash-after-publish")], on_crash=died.append)
        with pytest.raises(DaemonCrash):
            plan.crash(FAULT_CRASH_AFTER_PUBLISH)
        assert died == [FAULT_CRASH_AFTER_PUBLISH]

    def test_crash_rejects_non_crash_kind(self):
        with pytest.raises(ValueError, match="not a crash"):
            FaultPlan.parse("worker-exception").crash(FAULT_WORKER_EXCEPTION)


# ----------------------------------------------------------------------
# The write-ahead journal
# ----------------------------------------------------------------------


def _journal_cells():
    return [
        SubmittedCell(0, *CELL_A[:3], CELL_A[3], cell_hash(*CELL_A[:2], CELL_A[3])),
        SubmittedCell(1, *CELL_B[:3], CELL_B[3], cell_hash(*CELL_B[:2], CELL_B[3])),
    ]


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.ndjson")
        with JobJournal(path) as journal:
            cells = _journal_cells()
            journal.record_job("j000001", False, cells)
            journal.record_cell("j000001", 0, cells[0].hash, protocol.STATUS_OK)
            journal.record_job("j000002", True, cells[:1])
        jobs = JobJournal.replay_path(path)
        assert [job.job_id for job in jobs] == ["j000001", "j000002"]
        first, second = jobs
        assert not first.verify and not first.finished
        assert first.resolved == {0: (protocol.STATUS_OK, None)}
        assert first.cells[1].config == CELL_B[3]  # decoded, not pickled
        assert second.verify and second.resolved == {}

    def test_failed_cell_keeps_its_error(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j1", False, _journal_cells()[:1])
            journal.record_cell(
                "j1", 0, "", protocol.STATUS_FAILED, error="RuntimeError: boom"
            )
        (job,) = JobJournal.replay_path(path)
        assert job.resolved[0] == (protocol.STATUS_FAILED, "RuntimeError: boom")
        assert job.finished

    def test_record_cell_rejects_unknown_status(self, tmp_path):
        with JobJournal(str(tmp_path / "j.ndjson")) as journal:
            with pytest.raises(JournalError, match="status"):
                journal.record_cell("j1", 0, "", "exploded")

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j1", False, _journal_cells())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"j": 1, "type": "cell", "job": "j1", "id"')  # torn
        (job,) = JobJournal.replay_path(path)
        assert job.resolved == {}  # the torn resolution never happened

    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"j": 99, "type": "cell", "job": "j1"}\n')
        with pytest.raises(JournalError, match="version"):
            JobJournal.replay_path(path)

    def test_tampered_content_address_fails_loudly(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j1", False, _journal_cells()[:1])
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.read())
        record["cells"][0]["hash"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="content address mismatch"):
            JobJournal.replay_path(path)

    def test_unknown_record_type_fails_loudly(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"j": 1, "type": "wat"}\n')
        with pytest.raises(JournalError, match="record type"):
            JobJournal.replay_path(path)

    def test_rotate_compacts_to_live_jobs_and_stays_appendable(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = JobJournal(path)
        cells = _journal_cells()
        journal.record_job("j1", False, cells)  # will finish
        journal.record_cell("j1", 0, cells[0].hash, protocol.STATUS_OK)
        journal.record_cell("j1", 1, cells[1].hash, protocol.STATUS_OK)
        journal.record_job("j2", False, cells[:1])  # stays live
        live = [job for job in journal.replay() if not job.finished]
        journal.rotate(live)
        jobs = journal.replay()
        assert [job.job_id for job in jobs] == ["j2"]
        # The post-rotate handle still appends to the compacted file.
        journal.record_cell("j2", 0, cells[0].hash, protocol.STATUS_OK)
        (job,) = journal.replay()
        assert job.finished
        journal.close()

    def test_group_commits_once_with_the_bytes_of_single_appends(
        self, tmp_path, monkeypatch
    ):
        syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (syncs.append(fd), real_fsync(fd)))
        cells = _journal_cells()

        def append_all(journal):
            journal.record_job("j1", False, cells)
            for cell in cells:
                journal.record_cell("j1", cell.id, cell.hash, protocol.STATUS_OK)

        one_by_one = JobJournal(str(tmp_path / "single.ndjson"))
        append_all(one_by_one)
        assert len(syncs) == 3
        del syncs[:]
        grouped = JobJournal(str(tmp_path / "grouped.ndjson"))
        with grouped.group():
            append_all(grouped)
            assert syncs == []
        assert len(syncs) == 1
        # Durable at the block's exit, without a close().
        assert (tmp_path / "grouped.ndjson").read_bytes() == (
            tmp_path / "single.ndjson"
        ).read_bytes()
        grouped.record_cell("j1", 0, cells[0].hash, protocol.STATUS_OK)  # synced alone
        assert len(syncs) == 2
        one_by_one.close()
        grouped.close()

    def test_group_syncs_what_was_appended_when_the_block_raises(self, tmp_path):
        path = str(tmp_path / "j.ndjson")
        journal = JobJournal(path)
        with pytest.raises(RuntimeError, match="mid-submit"):
            with journal.group():
                journal.record_job("j1", False, _journal_cells())
                with pytest.raises(JournalError, match="nest"):
                    with journal.group():
                        pass
                raise RuntimeError("mid-submit")
        (job,) = JobJournal.replay_path(path)
        assert job.job_id == "j1" and not job.finished
        cell = _journal_cells()[0]
        journal.record_cell("j1", 0, cell.hash, protocol.STATUS_OK)  # synced alone
        (job,) = JobJournal.replay_path(path)
        assert job.resolved == {0: (protocol.STATUS_OK, None)}
        journal.close()

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.ndjson"))
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record_cell("j1", 0, "", protocol.STATUS_OK)

    def test_resolve_journal_path(self, tmp_path):
        root = str(tmp_path / "store")
        assert resolve_journal_path(None, root) == os.path.join(
            root, "journal.ndjson"
        )
        assert resolve_journal_path("/x/y.ndjson", root) == "/x/y.ndjson"


# ----------------------------------------------------------------------
# Store GC and verification
# ----------------------------------------------------------------------


class TestStoreGC:
    def _fill(self, tmp_path, n=4):
        store = ResultStore(str(tmp_path / "store"))
        digests = []
        for i in range(n):
            stats = Stats(
                cycles=i + 1, thread_instructions=1, instructions_issued=1
            )
            config = presets.baseline()
            digest = store.store("histogram", "s%d" % i, config, stats)
            # Distinct mtimes so eviction order is deterministic.
            os.utime(store.path_for(digest), (1000.0 + i, 1000.0 + i))
            digests.append(digest)
        return store, digests

    def test_max_entries_keeps_newest(self, tmp_path):
        store, digests = self._fill(tmp_path)
        result = store.gc(max_entries=2)
        assert (result.examined, result.evicted, result.kept) == (4, 2, 2)
        assert sorted(store.digests()) == sorted(digests[2:])

    def test_max_age_with_explicit_now(self, tmp_path):
        store, digests = self._fill(tmp_path)
        result = store.gc(max_age=1.5, now=1003.0)
        assert result.evicted == 2  # mtimes 1000, 1001
        assert set(store.digests()) == set(digests[2:])

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        store, digests = self._fill(tmp_path)
        size = os.path.getsize(store.path_for(digests[0]))
        result = store.gc(max_bytes=size * 2 + 1)
        assert result.evicted == 2
        assert result.evicted_bytes > 0
        assert set(store.digests()) == set(digests[2:])

    def test_dry_run_deletes_nothing(self, tmp_path):
        store, digests = self._fill(tmp_path)
        result = store.gc(max_entries=0, dry_run=True)
        assert result.dry_run and result.evicted == 4
        assert len(store) == 4

    def test_gc_budget_validation(self, tmp_path):
        store, _ = self._fill(tmp_path, n=1)
        for kwargs in ({"max_age": -1}, {"max_entries": -1}, {"max_bytes": -1}):
            with pytest.raises(ValueError):
                store.gc(**kwargs)

    def test_a_nan_max_age_is_refused_and_inf_keeps_everything(self, tmp_path):
        # Every comparison with NaN is false: ``max_age < 0`` let it
        # through, and then no entry was ever old enough to evict.
        store, _ = self._fill(tmp_path, n=2)
        with pytest.raises(ValueError, match="max_age must be >= 0 .*got nan"):
            store.gc(max_age=float("nan"))
        result = store.gc(max_age=float("inf"), now=1e12)
        assert (result.evicted, result.kept) == (0, 2)

    def test_tombstone_reads_as_miss_and_is_swept(self, tmp_path):
        store, digests = self._fill(tmp_path, n=2)
        path = store.path_for(digests[0])
        # A GC killed between rename and unlink leaves only a tombstone.
        os.replace(path, path + ".tomb")
        assert store.get_entry(digests[0]) is None
        assert len(store) == 1
        result = store.gc()
        assert result.tombstones_swept == 1
        assert not os.path.exists(path + ".tomb")

    def test_delete_is_idempotent(self, tmp_path):
        store, digests = self._fill(tmp_path, n=1)
        assert store.delete(digests[0]) is True
        assert store.delete(digests[0]) is False

    def test_gc_beside_active_daemon_loses_nothing(self, tmp_path):
        """Collecting beside a live daemon needs no reservation: a job
        holds the stats of its store hits from triage on, and a queued
        cell has no entry to evict — it is stored when it resolves."""
        service = _journalled_service(tmp_path)
        _submit(service)
        service.process_queued()  # A and B are in the store now
        digest_a = cell_hash(*CELL_A[:2], CELL_A[3])
        with open(service.store.path_for(digest_a), "rb") as f:
            bytes_a = f.read()
        job_id = _submit(service, cells=(CELL_A, CELL_B, CELL_C))
        assert service.counters["cells_store"] == 2  # C alone is queued
        result = service.store.gc(max_entries=0)
        assert result.evicted == 2 and len(service.store) == 0
        service.process_queued()
        job = service.get_job(job_id)
        assert job.state == protocol.JOB_DONE
        cells = job.result_message()["cells"]
        assert [c["status"] for c in cells] == [protocol.STATUS_OK] * 3
        assert all(c["stats"]["data"]["cycles"] == 7 for c in cells)
        assert list(service.store.digests()) == [cell_hash(*CELL_C[:2], CELL_C[3])]
        # An evicted cell asked for again re-simulates to the same bytes.
        _submit(service, cells=(CELL_A,))
        service.process_queued()
        with open(service.store.path_for(digest_a), "rb") as f:
            assert f.read() == bytes_a
        service.shutdown_gracefully()


class TestStoreVerify:
    def test_clean_store_verifies(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.store(*CELL_A[:2], CELL_A[3], Stats(cycles=7))
        result = store.verify()
        assert result.ok and result.examined == 1

    def test_verify_flags_torn_and_mismatched_entries(self, tmp_path):
        plan = FaultPlan.parse("torn-store-write:1")
        store = ResultStore(str(tmp_path / "store"), fault_plan=plan)
        torn = store.store(*CELL_A[:2], CELL_A[3], Stats(cycles=7))
        good = store.store(*CELL_B[:2], CELL_B[3], Stats(cycles=7))
        # A good entry filed under the wrong content address.
        alias = "0" * 64
        os.makedirs(os.path.dirname(store.path_for(alias)), exist_ok=True)
        os.replace(store.path_for(good), store.path_for(alias))
        result = store.verify()
        assert not result.ok and result.examined == 2
        reasons = {p.digest: p.reason for p in result.problems}
        assert "torn" in reasons[torn]
        assert "content address mismatch" in reasons[alias]
        # And the torn entry already reads as a miss.
        assert store.get_entry(torn) is None

    def test_verify_flags_alien_cache_version(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        digest = store.store(*CELL_A[:2], CELL_A[3], Stats(cycles=7))
        path = store.path_for(digest)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["version"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        result = store.verify()
        assert [p.reason for p in result.problems] == [
            "cache version 999 (this build speaks %d)"
            % result_cache.CACHE_VERSION
        ]


# ----------------------------------------------------------------------
# Daemon faults, the journal, and resume
# ----------------------------------------------------------------------


class TestDaemonCrashRecovery:
    def test_submission_is_journalled_before_any_work_runs(self, tmp_path):
        service = _journalled_service(tmp_path)
        job_id = _submit(service)
        (job,) = service.journal.replay()
        assert job.job_id == job_id
        assert len(job.cells) == 2 and not job.finished

    @staticmethod
    def _count_fsyncs(monkeypatch):
        syncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (syncs.append(fd), real_fsync(fd)))
        return syncs

    def test_store_answered_submission_touches_no_journal(
        self, tmp_path, monkeypatch
    ):
        """A job the store answers is finished before its ack: there is
        nothing to resume, so nothing is written.  Its id is still unique
        for this daemon's lifetime, and ids restart from the journal's
        highest after a restart, as before — ``rotate`` already forgot
        finished ids."""
        service = _journalled_service(tmp_path)
        _submit(service)
        service.process_queued()  # both cells are in the store now
        size = os.path.getsize(service.journal.path)
        syncs = self._count_fsyncs(monkeypatch)
        ack = submit(service, protocol.submit_message([CELL_A, CELL_B]))
        assert syncs == []
        assert os.path.getsize(service.journal.path) == size
        assert ack["job"] not in {job.job_id for job in service.journal.replay()}
        assert service.counters["cells_store"] == 2
        assert ack["state"] == protocol.JOB_DONE
        assert [(c["id"], c["source"]) for c in ack["cells"]] == [
            (0, protocol.SOURCE_STORE), (1, protocol.SOURCE_STORE)
        ]
        assert ack["cells"] == service.get_job(ack["job"]).result_message()["cells"]

    def test_partly_answered_submission_is_one_group_commit(
        self, tmp_path, monkeypatch
    ):
        service = _journalled_service(tmp_path)
        _submit(service, cells=(CELL_A,))
        service.process_queued()  # A is in the store, C is not
        syncs = self._count_fsyncs(monkeypatch)
        ack = submit(service, protocol.submit_message([CELL_A, CELL_C]))
        # Job record + the store hit's cell record, durable before the
        # ack: one fsync.
        assert len(syncs) == 1
        assert "cells" not in ack and ack["state"] == protocol.JOB_RUNNING
        assert ack["triage"] == {"store": 1, "coalesced": 0, "queued": 1}
        replayed = {job.job_id: job for job in service.journal.replay()}
        job = replayed[ack["job"]]
        assert not job.finished
        assert job.resolved == {0: (protocol.STATUS_OK, None)}
        # The "process" dies here; a restart re-queues the one cell.
        engine = _StubEngine()
        resumed = _journalled_service(tmp_path, engine=engine)
        assert resumed.resume() == 1
        assert resumed.process_queued() == 1 and engine.calls == 1
        assert resumed.get_job(ack["job"]).state == protocol.JOB_DONE
        assert resumed.counters["cells_store"] == 1

    def test_worker_exception_fails_cell_and_is_journalled(self, tmp_path):
        plan = FaultPlan.parse("worker-exception:1")
        service = _journalled_service(tmp_path, fault_plan=plan)
        job_id = _submit(service)
        service.process_queued()
        job = service.get_job(job_id)
        statuses = sorted(str(c["status"]) for c in job.cells.values())
        assert statuses == [protocol.STATUS_FAILED, protocol.STATUS_OK]
        assert service.counters["cells_failed"] == 1
        (replayed,) = service.journal.replay()
        assert replayed.finished
        failed = [r for r in replayed.resolved.values() if r[0] == protocol.STATUS_FAILED]
        assert failed and "FaultInjected" in failed[0][1]

    def _crash_then_resume(self, tmp_path, kind):
        engine = _StubEngine()
        plan = FaultPlan.parse("%s:1" % kind)
        service = _journalled_service(tmp_path, fault_plan=plan, engine=engine)
        job_id = _submit(service)
        with pytest.raises(DaemonCrash):
            service.process_queued()
        # The "process" died: no graceful shutdown, journal left as-is.
        resumed_engine = _StubEngine()
        resumed = _journalled_service(tmp_path, engine=resumed_engine)
        assert resumed.resume() == 1
        assert resumed.counters["jobs_resumed"] == 1
        resumed.process_queued()
        job = resumed.get_job(job_id)  # the pre-crash job id survives
        assert job.state == protocol.JOB_DONE
        assert all(
            c["status"] == protocol.STATUS_OK for c in job.cells.values()
        )
        return engine, resumed_engine, resumed

    def test_crash_before_publish_resimulates_on_resume(self, tmp_path):
        first, second, resumed = self._crash_then_resume(
            tmp_path, FAULT_CRASH_BEFORE_PUBLISH
        )
        # Nothing durable survived the crashed cell: it runs again.
        assert first.calls == 1 and second.calls == 2
        assert resumed.counters["cells_simulated"] == 2

    def test_crash_after_publish_serves_from_store_on_resume(self, tmp_path):
        first, second, resumed = self._crash_then_resume(
            tmp_path, FAULT_CRASH_AFTER_PUBLISH
        )
        # The store write was durable: resume serves it by content
        # address and only the untouched cell simulates.
        assert first.calls == 1 and second.calls == 1
        assert resumed.counters["cells_store"] == 1
        assert resumed.counters["cells_simulated"] == 1

    def test_resume_requeues_ok_cell_whose_entry_was_evicted(self, tmp_path):
        # The journal promises cell 0 is in the store, but an
        # aggressive GC (or a torn write) lost the entry: resume must
        # re-simulate it rather than serve nothing.
        store_root = str(tmp_path / "store")
        ResultStore(store_root)
        cells = _journal_cells()
        with JobJournal(resolve_journal_path(None, store_root)) as journal:
            journal.record_job("j000003", False, cells)
            journal.record_cell(
                "j000003", 0, cells[0].hash, protocol.STATUS_OK
            )
        resumed = _journalled_service(tmp_path, engine=_StubEngine())
        assert resumed.resume() == 1
        resumed.process_queued()
        job = resumed.get_job("j000003")
        assert job.state == protocol.JOB_DONE
        assert resumed.counters["cells_simulated"] == 2  # both re-ran

    def test_resume_triages_like_submit(self, tmp_path):
        # One job whose cells hit every rung — a store hit, a duplicate
        # of another job's in-flight cell, and new work — must be
        # counted and attributed the same whether it arrives through
        # submit() or comes back from the journal through resume().
        stored, inflight, fresh = CELL_A, CELL_B, CELL_C
        stats = Stats(cycles=7, thread_instructions=3, instructions_issued=2)
        first = protocol.submit_message([inflight])
        second = protocol.submit_message([stored, inflight, fresh])

        def outcome(service):
            service.process_queued()
            cells = service.get_job("j000002").result_message()["cells"]
            return (
                {k: v for k, v in service.counters.items() if k.startswith("cells_")},
                [(c["id"], c["status"], c["source"]) for c in cells],
            )

        submitted = _journalled_service(tmp_path / "submit")
        submitted.store.store(stored[0], stored[1], stored[3], stats)
        submit(submitted, first)
        ack = submit(submitted, second)
        assert ack["job"] == "j000002"
        assert ack["triage"] == {"store": 1, "coalesced": 1, "queued": 1}

        root = tmp_path / "resume"
        ResultStore(str(root / "store")).store(stored[0], stored[1], stored[3], stats)
        with JobJournal(resolve_journal_path(None, str(root / "store"))) as journal:
            journal.record_job("j000001", False, protocol.decode_submit(first)[0])
            journal.record_job("j000002", False, protocol.decode_submit(second)[0])
        resumed = _journalled_service(root)
        assert resumed.resume() == 2

        counters, cells = outcome(resumed)
        assert (counters, cells) == outcome(submitted)
        assert [source for _, _, source in cells] == [
            protocol.SOURCE_STORE,
            protocol.SOURCE_COALESCED,
            protocol.SOURCE_SIMULATED,
        ]
        assert counters["cells_simulated"] == 2  # the in-flight cell + the new one

    def test_finished_jobs_compact_away_on_resume(self, tmp_path):
        # One job done, one finished by its failed cell: neither resumes.
        plan = FaultPlan.parse("worker-exception:2")
        service = _journalled_service(tmp_path, fault_plan=plan)
        done_id = _submit(service, cells=(CELL_B,))
        service.process_queued()
        failed_id = _submit(service, cells=(CELL_A,))
        service.process_queued()
        assert service.counters["cells_failed"] == 1
        resumed = _journalled_service(tmp_path, engine=_StubEngine())
        assert resumed.resume() == 0
        for job_id in (done_id, failed_id):
            with pytest.raises(ProtocolError):
                resumed.get_job(job_id)
        assert resumed.journal.replay() == []  # journal fully compacted

    def test_resume_job_ids_never_collide_with_new_submissions(self, tmp_path):
        service = _journalled_service(tmp_path)
        old_id = _submit(service)
        resumed = _journalled_service(tmp_path, engine=_StubEngine())
        resumed.resume()
        new_id = _submit(resumed, cells=(CELL_A,))
        assert new_id != old_id
        assert int(new_id.lstrip("j")) > int(old_id.lstrip("j"))

    def test_a_restart_without_resume_keeps_the_unfinished_job(self, tmp_path):
        """A acks a job and stops; B, started without ``--resume``,
        numbers its own job past it and finishes that; C, with
        ``--resume``, still resumes A's job."""
        a = _journalled_service(tmp_path)
        a_id = _submit(a, cells=(CELL_A,))
        a.shutdown_gracefully()
        b = _journalled_service(tmp_path)
        # B compacted the journal to A's unfinished job on opening it.
        assert [job.job_id for job in b.journal.replay()] == [a_id]
        b_id = _submit(b, cells=(CELL_B,))
        assert b.process_queued() == 1
        assert b_id != a_id and b.get_job(b_id).state == protocol.JOB_DONE
        b.shutdown_gracefully()
        c = _journalled_service(tmp_path)
        assert [job.job_id for job in c.journal.replay()] == [a_id]  # B's is gone
        assert c.resume() == 1
        assert c.process_queued() == 1
        assert c.get_job(a_id).state == protocol.JOB_DONE
        c.shutdown_gracefully()

    def test_replay_refuses_a_repeated_job_id(self, tmp_path):
        path = str(tmp_path / "journal.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j000001", False, _journal_cells())
            journal.record_job("j000001", False, _journal_cells())
        with pytest.raises(JournalError, match="repeats job id j000001"):
            JobJournal.replay_path(path)

    def test_resume_without_journal_is_an_error(self, tmp_path):
        service = SweepService(
            ResultStore(str(tmp_path / "store")), workers=0, engine=_StubEngine()
        )
        with pytest.raises(ValueError, match="journal"):
            service.resume()

    def test_torn_store_write_reads_as_miss_and_converges(self, tmp_path):
        plan = FaultPlan.parse("torn-store-write:1")
        engine = _StubEngine()
        service = _journalled_service(tmp_path, fault_plan=plan, engine=engine)
        job_id = _submit(service, cells=(CELL_A,))
        service.process_queued()
        # The waiter still got its stats (they were in memory)...
        job = service.get_job(job_id)
        assert job.cells[0]["status"] == protocol.STATUS_OK
        # ...but the torn entry reads as a miss, so the next identical
        # submission re-simulates and heals the store.
        digest = cell_hash(*CELL_A[:2], CELL_A[3])
        assert service.store.get_entry(digest) is None
        _submit(service, cells=(CELL_A,))
        service.process_queued()
        assert engine.calls == 2
        assert service.store.get_entry(digest) is not None
        assert service.store.verify().examined == 1


class TestGracefulShutdown:
    def test_refuses_new_work_and_stamps_stopped_status(self, tmp_path):
        service = _journalled_service(tmp_path)
        job_id = _submit(service)  # workers=0: never finishes
        job = service.get_job(job_id)
        events = []
        # The heartbeat outlasts the join: only shutdown's notification
        # can end the stream in time.
        follower = threading.Thread(
            target=lambda: events.extend(map(json.loads, job.stream(heartbeat=60))),
            daemon=True,
        )
        follower.start()
        time.sleep(0.15)  # the stream is open and waiting
        service.shutdown_gracefully()
        follower.join(timeout=5.0)
        assert not follower.is_alive()
        assert job.state == protocol.JOB_STOPPED
        assert job.finished.is_set()
        # The open progress stream ended on a final terminal status line.
        assert events == [job.status_message()]
        assert events[-1]["state"] == protocol.JOB_STOPPED
        # And new submissions are turned away, with retry guidance.
        with pytest.raises(ProtocolError) as excinfo:
            _submit(service)
        assert excinfo.value.code == protocol.ERR_SHUTTING_DOWN
        assert excinfo.value.retry_after is not None

    def test_idempotent_and_closes_journal(self, tmp_path):
        service = _journalled_service(tmp_path)
        service.shutdown_gracefully()
        service.shutdown_gracefully()  # no double sentinel, no raise
        with pytest.raises(JournalError, match="closed"):
            service.journal.record_cell("j1", 0, "", protocol.STATUS_OK)

    def test_stopped_job_resumes_after_restart(self, tmp_path):
        service = _journalled_service(tmp_path)
        job_id = _submit(service)
        service.shutdown_gracefully()
        resumed = _journalled_service(tmp_path, engine=_StubEngine())
        resumed.resume()
        resumed.process_queued()
        assert resumed.get_job(job_id).state == protocol.JOB_DONE


# ----------------------------------------------------------------------
# HTTP fault matrix: byte-identical under every injected fault
# ----------------------------------------------------------------------


class TestHTTPFaultMatrix:
    @pytest.fixture()
    def inline_json(self):
        return Engine(backend="inline", cache_dir=None, memo={}).run(TINY).to_json()

    @pytest.mark.parametrize(
        "plan_text",
        [
            "drop-connection@jobs:1",
            "truncate-response@jobs:1",
            "drop-connection@result:1,truncate-response@health:1",
            "delayed-response@jobs:1x3",
        ],
    )
    def test_http_faults_retry_to_byte_identical_results(
        self, tmp_path, inline_json, plan_text
    ):
        plan = FaultPlan.parse(plan_text, delay=0.01)
        server, url = _serve(tmp_path, fault_plan=plan)
        try:
            result = Engine(server=url, cache_dir=None, memo={}).run(TINY)
            assert result.to_json() == inline_json
        finally:
            _stop(server)

    def test_torn_store_write_converges_across_runs(
        self, tmp_path, inline_json
    ):
        plan = FaultPlan.parse("torn-store-write:1")
        server, url = _serve(tmp_path, fault_plan=plan)
        try:
            first = Engine(server=url, cache_dir=None, memo={}).run(TINY)
            assert first.to_json() == inline_json
            # The torn entry reads as a miss: a cold client re-simulates
            # it remotely and still matches, and the store heals.
            second = Engine(server=url, cache_dir=None, memo={}).run(TINY)
            assert second.to_json() == inline_json
            assert server.service.store.verify().ok
        finally:
            _stop(server)

    def test_worker_fault_degrades_inline(self, tmp_path, inline_json):
        plan = FaultPlan.parse("worker-exception:1")
        server, url = _serve(tmp_path, fault_plan=plan)
        try:
            events = []
            engine = Engine(
                server=url,
                cache_dir=None,
                memo={},
                fallback="inline",
                progress=events.append,
            )
            result = engine.run(TINY)
            assert result.to_json() == inline_json
            sources = sorted(e.source for e in events)
            assert protocol.SOURCE_FALLBACK in sources
            # The client uploads nothing: the store holds the one cell
            # the daemon's own worker simulated.
            assert server.service.counters["cells_simulated"] == 1
            assert len(server.service.store) == 1
        finally:
            _stop(server)

    def test_dead_server_with_fallback_runs_inline(self, tmp_path, inline_json):
        events = []
        memo = {}
        engine = Engine(
            server=DEAD_URL,
            cache_dir=None,
            memo=memo,
            retries=0,
            fallback="inline",
            progress=events.append,
        )
        result = engine.run(TINY)
        assert result.to_json() == inline_json
        assert [e.source for e in events] == [protocol.SOURCE_FALLBACK] * 2
        assert all(not e.cached for e in events)
        # The client keeps no state: a second cold run pays its own
        # (retries=0) schedule — one submit attempt, no probe — and
        # degrades the same way.
        opens = []

        def still_down(*args, **kwargs):
            opens.append(args)
            raise OSError("down")

        engine.remote_client._open = still_down
        memo.clear()
        result_cache.clear()
        again = engine.run(TINY)
        assert again.to_json() == inline_json
        assert [args[:2] for args in opens] == [("POST", "/v1/jobs")]

    def test_dead_server_without_fallback_still_raises(self):
        engine = Engine(server=DEAD_URL, cache_dir=None, memo={}, retries=0)
        with pytest.raises(RemoteError):
            engine.run(TINY)

    def test_shutting_down_daemon_degrades_to_inline(
        self, tmp_path, inline_json
    ):
        server, url = _serve(tmp_path)
        try:
            server.service.shutdown_gracefully()
            events = []
            engine = Engine(
                server=url,
                cache_dir=None,
                memo={},
                retries=0,
                fallback="inline",
                progress=events.append,
            )
            result = engine.run(TINY)
            assert result.to_json() == inline_json
            assert [e.source for e in events] == [protocol.SOURCE_FALLBACK] * 2
        finally:
            _stop(server)

    def test_engine_validates_fallback(self):
        with pytest.raises(ValueError, match="fallback"):
            Engine(server=DEAD_URL, fallback="carrier-pigeon")
        with pytest.raises(ValueError, match="fallback"):
            Engine(backend="inline", fallback="inline")


class TestSingleWriter:
    """Nothing reaches a served store over the network except what the
    daemon's own workers simulated."""

    def test_retired_publish_is_refused_and_changes_nothing(self, tmp_path):
        # Line 2 of the golden codec file is the upload an older
        # degraded client may still send after its fallback run.
        golden = os.path.join(
            os.path.dirname(__file__), "data", "golden_cell_codec.ndjson"
        )
        with open(golden, "rb") as handle:
            publish = handle.readlines()[1]
        assert b'"type": "publish"' in publish
        server, url = _serve(tmp_path)
        try:
            before = RemoteClient(url).health()
            request = urllib.request.Request(
                url + "/v1/cells", data=publish, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 400
            body = protocol.decode(excinfo.value.read())
            assert body["code"] == protocol.ERR_BAD_REQUEST
            after = RemoteClient(url).health()
            assert after["counters"] == before["counters"]
            assert after["store"]["entries"] == before["store"]["entries"] == 0
        finally:
            _stop(server)

    def test_every_store_entry_is_simulated_here_or_seeded(self, tmp_path):
        # One entry put in the directory from outside, then a mixed
        # submit / coalesce / crash / resume sequence.
        seeded = ResultStore(str(tmp_path / "store"))
        seeded.store(*CELL_C[:2], CELL_C[3], Stats(cycles=7))
        plan = FaultPlan.parse("crash-before-publish:2")
        crashed = _journalled_service(tmp_path, fault_plan=plan)
        _submit(crashed, cells=(CELL_A, CELL_B, CELL_C))
        _submit(crashed, cells=(CELL_A,))  # coalesces: finishes when A lands
        with pytest.raises(DaemonCrash):
            crashed.process_queued()  # A lands, the daemon dies on B
        simulated = crashed.health()["counters"]["cells_simulated"]
        crashed.journal.close()

        resumed = _journalled_service(tmp_path)
        assert resumed.resume() == 1
        resumed.process_queued()
        _submit(resumed, cells=(CELL_A, CELL_B))  # all store hits now
        health = resumed.health()
        simulated += health["counters"]["cells_simulated"]
        assert simulated + 1 == health["store"]["entries"] == 3
        assert resumed.store.verify().ok


class TestHTTPGracefulShutdown:
    def test_open_stream_gets_final_stopped_status(self, tmp_path):
        # The events request is delayed by the fault plan, so it
        # subscribes *during* shutdown and must still replay a
        # terminal line instead of just dying.
        plan = FaultPlan.parse("delayed-response@events:1", delay=0.5)
        server, url = _serve(tmp_path, workers=0, fault_plan=plan)
        lines = []
        failures = []

        def follow(job_id):
            try:
                for event in RemoteClient(url).events(job_id):
                    lines.append(event)
            except RemoteError as exc:
                failures.append(exc)

        try:
            client = RemoteClient(url)
            ack = client.submit([CELL_A, CELL_B])
            thread = threading.Thread(
                target=follow, args=(str(ack["job"]),), daemon=True
            )
            thread.start()
            time.sleep(0.15)  # the stream request is in flight (delayed)
        finally:
            _stop(server)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not failures
        assert lines, "stream died without a final status"
        assert lines[-1]["type"] == protocol.MSG_STATUS
        assert lines[-1]["state"] == protocol.JOB_STOPPED

    def test_submit_during_shutdown_is_typed_503(self, tmp_path):
        server, url = _serve(tmp_path)
        try:
            server.service.shutdown_gracefully()
            client = RemoteClient(url, retries=0)
            with pytest.raises(RemoteError, match="shutting down"):
                client.submit([CELL_A])
        finally:
            _stop(server)


# ----------------------------------------------------------------------
# Retry-After hardening (client side)
# ----------------------------------------------------------------------


class TestRetryAfterBounds:
    def _client_with_429(self, retry_after):
        class _Busy(io.BytesIO):
            status, reason = 429, "Too Many Requests"

        delays = []
        client = RemoteClient(
            "http://127.0.0.1:9", retries=1, backoff=0.25, sleep=delays.append
        )
        body = protocol.encode(
            {
                "v": protocol.PROTOCOL_VERSION,
                "type": protocol.MSG_ERROR,
                "code": protocol.ERR_QUEUE_FULL,
                "message": "busy",
                "retry_after": retry_after,
            }
        )

        client._open = lambda method, path, message=None: _Busy(body)
        return client, delays

    @pytest.mark.parametrize(
        "retry_after,expected",
        [
            (2.5, [2.5]),  # honoured
            (60, [10.0]),  # capped at the backoff ceiling
            (True, [0.25]),  # bool is an int subclass: ignored
            (-5, [0.25]),  # negative: ignored
            ("soon", [0.25]),  # non-numeric: ignored
        ],
    )
    def test_retry_after_bounds(self, retry_after, expected):
        client, delays = self._client_with_429(retry_after)
        with pytest.raises(RemoteError, match="busy"):
            client.health()
        assert delays == expected

    def test_exhaustion_leaves_no_state_behind(self):
        client, delays = self._client_with_429(0.5)
        for _ in range(2):
            # Each request pays its own schedule; nothing fails fast.
            with pytest.raises(RemoteError, match="after 2 attempts"):
                client.health()
        assert delays == [0.5, 0.5]


class _Reply(io.BytesIO):
    """A canned ``http.client`` response."""

    def __init__(self, status, reason, body):
        super().__init__(body)
        self.status, self.reason, self.headers = status, reason, {}


def _client_answering(status, reason, body, retries=0):
    """A client whose every request gets the same canned response."""

    class _Connection:
        def __init__(self, host, port, timeout):
            pass

        def request(self, method, path, body=None, headers=None):
            pass

        def getresponse(self):
            return _Reply(status, reason, body)

        def close(self):
            pass

    client = RemoteClient("http://127.0.0.1:9", retries=retries, sleep=lambda _: None)
    client._connection = _Connection
    return client


class TestClientBranchesOnStatus:
    """What a refusal turns into, by status and body, for a request and
    for an events stream."""

    def test_a_typed_refusal_carries_its_code_and_message(self):
        body = ProtocolError(protocol.ERR_UNKNOWN_JOB, "no such job 'j9'").to_envelope()
        client = _client_answering(404, "Not Found", protocol.encode(body))
        with pytest.raises(RemoteError) as excinfo:
            client.result("j9")
        assert str(excinfo.value) == "GET /v1/jobs/j9/result: no such job 'j9'"
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB
        with pytest.raises(RemoteError) as excinfo:
            list(client.events("j9"))
        assert str(excinfo.value) == "events stream for j9: no such job 'j9'"
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB

    def test_a_body_that_is_no_envelope_is_an_internal_error_naming_the_status(self):
        client = _client_answering(502, "Bad Gateway", b"<html>proxy</html>")
        with pytest.raises(RemoteError) as excinfo:
            client.health()
        assert str(excinfo.value) == "GET /v1/health: HTTP Error 502: Bad Gateway"
        assert excinfo.value.code == protocol.ERR_INTERNAL
        with pytest.raises(RemoteError) as excinfo:
            list(client.events("j9"))
        assert str(excinfo.value) == "events stream for j9: HTTP Error 502: Bad Gateway"
        assert excinfo.value.code == protocol.ERR_INTERNAL

    def test_a_503_retries_then_names_the_shutdown(self):
        body = ProtocolError(
            protocol.ERR_SHUTTING_DOWN, "daemon is shutting down", retry_after=0.5
        ).to_envelope()
        client = _client_answering(503, "Service Unavailable", protocol.encode(body), 1)
        with pytest.raises(RemoteError) as excinfo:
            client.health()
        assert str(excinfo.value).endswith(
            "after 2 attempts — last error: daemon shutting down (503): "
            "daemon is shutting down"
        )
        assert excinfo.value.code is None

    def test_an_unlisted_2xx_is_refused_at_once(self):
        client = _client_answering(202, "Accepted", b"{}", retries=3)
        with pytest.raises(RemoteError, match=r"^GET /v1/health: unexpected HTTP 202$"):
            client.health()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------


class TestCLI:
    def test_store_info_gc_verify(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.store(*CELL_A[:2], CELL_A[3], Stats(cycles=7))
        store.store(*CELL_B[:2], CELL_B[3], Stats(cycles=7))
        assert main(["store", "info", "--dir", root]) == 0
        assert "2 entries" in capsys.readouterr().out
        assert main(["store", "verify", "--dir", root]) == 0
        assert "2 entries: 0 bad" in capsys.readouterr().out
        assert (
            main(["store", "gc", "--dir", root, "--max-entries", "1", "--dry-run"])
            == 0
        )
        assert "would evict 1 of 2" in capsys.readouterr().out
        assert main(["store", "gc", "--dir", root, "--max-entries", "1"]) == 0
        assert "evicted 1 of 2" in capsys.readouterr().out
        assert len(store) == 1

    def test_store_verify_exits_nonzero_on_problems(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        store = ResultStore(root)
        digest = store.store(*CELL_A[:2], CELL_A[3], Stats(cycles=7))
        path = store.path_for(digest)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert main(["store", "verify", "--dir", root]) == 1
        captured = capsys.readouterr()
        assert "1 bad" in captured.out
        assert "torn" in captured.err

    def test_bad_fault_plan_is_a_clean_cli_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "--fault-plan", "no-such-kind"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--workers", "0"), ("--workers", "-2"), ("--queue-limit", "0")]
    )
    def test_serve_rejects_counts_below_one(self, tmp_path, capsys, flag, value):
        # --workers 0 is the Python API's drain-by-hand mode: served,
        # it would ack every job "queued" and never run one.
        from repro.cli import main

        store = tmp_path / "store"
        assert main(["serve", "--port", "0", "--store", str(store), flag, value]) == 2
        err = capsys.readouterr().err
        assert err == "error: %s must be >= 1, got %s\n" % (flag, value)
        assert not store.exists()  # refused before anything was built

    def test_fallback_accounting_line(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--workloads",
                "histogram",
                "--configs",
                "baseline",
                "--size",
                "tiny",
                "--server",
                DEAD_URL,
                "--retries",
                "0",
                "--fallback",
                "inline",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "# 1 cells: 1 simulated, 0 cached (1 fallback)" in err
