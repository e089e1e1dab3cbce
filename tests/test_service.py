"""Sweep service: protocol, shared store, daemon, remote backend."""

import http.client
import json
import os
import queue
import socket
import threading
import time

import pytest

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.cache import (
    atomic_write_text,
    cell_hash,
    config_from_payload,
    config_to_payload,
    is_cell_digest,
)
from repro.api.engine import BACKENDS
from repro.core import presets
from repro.service import protocol
from repro.service.daemon import (
    COUNTERS,
    FINISHED_JOBS_KEPT,
    MAX_REQUEST_BYTES,
    ServiceHandler,
    SweepService,
    make_server,
)
from repro.service.protocol import ProtocolError
from repro.service.remote import RemoteClient, RemoteError, _follow_job
from repro.service.store import ResultStore, resolve_store_dir
from repro.timing.config import GPUConfig
from repro.timing.stats import Stats

TINY = SweepSpec.from_presets(
    ["baseline", "warp64"], workloads=["histogram"], size="tiny"
)

#: (workload, size, config_name, config) rows for submit_message.
CELL_A = ("histogram", "tiny", "baseline", presets.baseline())
CELL_B = ("histogram", "tiny", "warp64", presets.warp64())


@pytest.fixture(autouse=True)
def fresh_memo():
    result_cache.clear()
    yield
    result_cache.clear()


class _StubEngine:
    """Counts run_cell calls; optionally fails every cell."""

    def __init__(self, fail=False):
        self.calls = 0
        self.fail = fail

    def run_cell(self, workload, size, config, verify=False, cache=True):
        self.calls += 1
        if self.fail:
            raise RuntimeError("boom")
        return Stats(cycles=7, thread_instructions=3, instructions_issued=2)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("engine", _StubEngine())
    return SweepService(ResultStore(str(tmp_path / "store")), **kwargs)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_envelope_encode_decode_round_trip(self):
        message = protocol.envelope(protocol.MSG_STATUS, job="j1", done=2)
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.decode(line) == message

    def test_envelope_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="message type"):
            protocol.envelope("definitely-not-a-type")

    @pytest.mark.parametrize(
        "line,code",
        [
            (b"\xff\xfe", protocol.ERR_BAD_REQUEST),
            (b"not json\n", protocol.ERR_BAD_REQUEST),
            (b"[1, 2]\n", protocol.ERR_BAD_REQUEST),
            (b'{"v": 999, "type": "status"}\n', protocol.ERR_VERSION),
            (b'{"v": 1, "type": "nope"}\n', protocol.ERR_BAD_REQUEST),
        ],
    )
    def test_decode_rejections_are_typed(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode(line)
        assert excinfo.value.code == code

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="error code"):
            ProtocolError("no_such_code", "x")

    def test_protocol_error_envelope_carries_retry_after(self):
        err = ProtocolError(protocol.ERR_QUEUE_FULL, "busy", retry_after=2.5)
        body = err.to_envelope()
        assert body["type"] == protocol.MSG_ERROR
        assert body["code"] == protocol.ERR_QUEUE_FULL
        assert body["retry_after"] == 2.5

    def test_submit_round_trip(self):
        message = protocol.submit_message([CELL_A, CELL_B], verify=True)
        # The wire form survives serialization.
        message = protocol.decode(protocol.encode(message))
        cells, verify = protocol.decode_submit(message)
        assert verify is True
        assert [c.config_name for c in cells] == ["baseline", "warp64"]
        assert cells[0].hash == cell_hash(*CELL_A[:2], CELL_A[3])
        assert cells[0].config == CELL_A[3]

    def test_submit_hash_mismatch_is_loud(self):
        message = protocol.submit_message([CELL_A])
        message["cells"][0]["hash"] = "0" * 64
        with pytest.raises(ProtocolError, match="content address mismatch"):
            protocol.decode_submit(message)

    def test_submit_shares_one_payload_per_config_and_takes_addresses(self, monkeypatch):
        cells = [CELL_A, ("bfs", "tiny") + CELL_A[2:], CELL_B]
        encoded = []
        real = protocol.config_text
        monkeypatch.setattr(
            protocol, "config_text", lambda c: (encoded.append(c), real(c))[1]
        )
        derived = protocol.submit_message(cells)
        assert encoded == [CELL_A[3], CELL_B[3]]  # one text per configuration
        a, a2, b = derived["cells"]
        assert a["config"] == a2["config"] == config_to_payload(CELL_A[3])
        assert b["config"] == config_to_payload(CELL_B[3])
        assert [c["hash"] for c in derived["cells"]] == [
            cell_hash(w, z, config) for w, z, _, config in cells
        ]
        # Handed the addresses, it sends exactly those: same bytes.
        handed = protocol.submit_message(
            cells, digests=[c["hash"] for c in derived["cells"]]
        )
        assert protocol.encode(handed) == protocol.encode(derived)
        with pytest.raises(ValueError):
            protocol.submit_message(cells, digests=[a["hash"]])
        # ...and the reader still recomputes every one of them.
        wrong = protocol.submit_message(cells, digests=[a["hash"]] * 3)
        with pytest.raises(ProtocolError, match="submit cell 1 content address"):
            protocol.decode_submit(wrong)

    def test_submit_rederives_when_a_name_means_another_object(self):
        other = ("histogram", "tiny", "baseline", presets.sbi())
        message = protocol.submit_message([CELL_A, other, CELL_A])
        cells, _ = protocol.decode_submit(message)
        assert [c.config.mode for c in cells] == ["baseline", "sbi", "baseline"]

    @pytest.mark.parametrize("second_id, reason", [
        (0, "submit cell 1 repeats id 0"),
        (True, "submit cell 1 is malformed: id True is not an integer"),
        (7.9, "submit cell 1 is malformed: id 7.9 is not an integer"),
        ("1", "submit cell 1 is malformed: id '1' is not an integer"),
    ])
    def test_submit_ids_must_be_distinct_json_integers(self, second_id, reason):
        message = protocol.submit_message([CELL_A, CELL_B])
        message["cells"][1]["id"] = second_id
        message = protocol.decode(protocol.encode(message))
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_submit(message)
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert str(excinfo.value) == reason

    def test_decoder_builds_each_distinct_config_once_and_checks_every_address(
        self, monkeypatch
    ):
        rows = [CELL_A, ("bfs", "tiny") + CELL_A[2:], CELL_B, ("bfs", "tiny") + CELL_B[2:]]
        message = protocol.decode(protocol.encode(protocol.submit_message(rows)))
        built, hashed, addressed = [], [], []
        for name, log in (
            ("config_from_payload", built), ("config_hash", hashed),
            ("cell_address", addressed),
        ):
            real = getattr(protocol, name)
            monkeypatch.setattr(
                protocol, name,
                lambda *args, _real=real, _log=log: (_log.append(args), _real(*args))[1],
            )
        cells, _ = protocol.decode_submit(message)
        assert len(built) == len(hashed) == 2 and len(addressed) == 4
        assert cells[0].config is cells[1].config and cells[2].config is cells[3].config
        assert [c.hash for c in cells] == [cell_hash(w, z, c) for w, z, _, c in rows]
        # A forged address on the second cell of a shared config is
        # still caught, by index.
        message["cells"][1]["hash"] = message["cells"][0]["hash"]
        with pytest.raises(ProtocolError, match="submit cell 1 content address mismatch"):
            protocol.decode_submit(message)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_one_name_with_two_payloads_is_two_configs(self, order, monkeypatch):
        # No false sharing: the table is checked by payload, not by name.
        rows = [CELL_A, ("histogram", "tiny", "baseline", presets.sbi())]
        rows = [rows[i] for i in order] * 2
        message = protocol.decode(protocol.encode(protocol.submit_message(rows)))
        built = []
        real = protocol.config_from_payload
        monkeypatch.setattr(
            protocol, "config_from_payload", lambda p: (built.append(p), real(p))[1]
        )
        cells, _ = protocol.decode_submit(message)
        assert len(built) == 4  # the name changes meaning at every cell
        assert [c.config for c in cells] == [row[3] for row in rows]
        assert [c.hash for c in cells] == [cell_hash(w, z, c) for w, z, _, c in rows]

    def test_submit_without_cells_rejected(self):
        with pytest.raises(ProtocolError, match="no cells"):
            protocol.decode_submit(protocol.envelope(protocol.MSG_SUBMIT))

    def test_vocabulary_is_closed_and_disjointly_spelled(self):
        # The lint rule keys on spelling; a new constant colliding with
        # an existing one would make violations ambiguous.
        groups = (
            protocol.MESSAGE_TYPES,
            protocol.ERROR_CODES,
            protocol.CELL_SOURCES,
            protocol.CELL_STATUSES,
            protocol.JOB_STATES,
        )
        total = sum(len(g) for g in groups)
        assert len(protocol.VOCABULARY) == total


class TestConfigPayloads:
    def test_sm_config_round_trip(self):
        config = presets.sbi_swi()
        assert config_from_payload(config_to_payload(config)) == config

    def test_gpu_config_round_trip(self):
        config = GPUConfig(sm=presets.baseline())
        assert config_from_payload(config_to_payload(config)) == config

    def test_unknown_type_rejected(self):
        # The message names the accepted types.
        with pytest.raises(ValueError, match="SMConfig or GPUConfig"):
            config_from_payload({"type": "Mystery", "fields": {}})

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            config_from_payload({"type": "SMConfig", "fields": {"bogus": 1}})


# ----------------------------------------------------------------------
# Atomic writes (disk cache + store)
# ----------------------------------------------------------------------


class TestAtomicWrites:
    def test_writes_content(self, tmp_path):
        target = str(tmp_path / "entry.json")
        atomic_write_text(target, "payload")
        with open(target) as f:
            assert f.read() == "payload"
        assert os.listdir(str(tmp_path)) == ["entry.json"]  # no tmp orphan

    def test_crashed_write_leaves_no_torn_file(self, tmp_path, monkeypatch):
        # Simulate a writer dying between the tmp write and the rename.
        target = str(tmp_path / "entry.json")
        atomic_write_text(target, "old")

        def crash(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "new")
        monkeypatch.undo()
        with open(target) as f:
            assert f.read() == "old"  # reader sees the previous entry
        assert os.listdir(str(tmp_path)) == ["entry.json"]  # tmp cleaned up

    def test_interrupted_disk_store_reads_as_miss(self, tmp_path, monkeypatch):
        config = presets.baseline()
        stats = Stats(cycles=5, thread_instructions=5, instructions_issued=5)
        monkeypatch.setattr(
            os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("crash"))
        )
        with pytest.raises(OSError):
            result_cache.disk_store(str(tmp_path), "histogram", "tiny", config, stats)
        monkeypatch.undo()
        assert result_cache.disk_load(str(tmp_path), "histogram", "tiny", config) is None
        assert [n for n in os.listdir(str(tmp_path)) if n.endswith(".json")] == []

    def test_concurrent_same_path_writers_never_tear(self, tmp_path):
        # The daemon's worker threads may store identical cells at once;
        # whatever lands last, readers must always see one whole JSON
        # document.
        target = str(tmp_path / "cell.json")
        payloads = [json.dumps({"writer": i, "pad": "x" * 4096}) for i in range(8)]
        errors = []

        def write(blob):
            try:
                for _ in range(20):
                    atomic_write_text(target, blob)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with open(target) as f:
            final = f.read()
        assert final in payloads  # complete, untorn document
        assert os.listdir(str(tmp_path)) == ["cell.json"]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


class TestRequestPolicy:
    """``timeout`` and ``retries`` are refused where they are given, not
    at the first request."""

    URL = "http://127.0.0.1:9"
    BAD_TIMEOUTS = [float("inf"), float("nan"), -1, 0, 0.0, True, "30", None]
    BAD_RETRIES = [True, 1.5, -1, "3", None]

    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
    def test_a_timeout_must_be_finite_and_positive(self, timeout):
        reason = "timeout must be a finite number of seconds > 0, got %r" % (timeout,)
        for make in (
            lambda: Engine(server=self.URL, timeout=timeout),
            lambda: Engine(timeout=timeout),
            lambda: RemoteClient(self.URL, timeout=timeout),
        ):
            with pytest.raises(ValueError) as excinfo:
                make()
            assert str(excinfo.value) == reason

    @pytest.mark.parametrize("retries", BAD_RETRIES)
    def test_retries_must_be_a_non_negative_int(self, retries):
        reason = "retries must be an integer >= 0, got %r" % (retries,)
        for make in (
            lambda: Engine(server=self.URL, retries=retries),
            lambda: RemoteClient(self.URL, retries=retries),
        ):
            with pytest.raises(ValueError) as excinfo:
                make()
            assert str(excinfo.value) == reason

    def test_good_values_are_kept(self):
        client = Engine(server=self.URL, timeout=2, retries=0).remote_client
        assert (client.timeout, client.retries) == (2, 0)
        assert RemoteClient(self.URL, timeout=0.5, retries=5).timeout == 0.5


class TestResultStore:
    def test_round_trip_and_layout(self, tmp_path):
        store = ResultStore(str(tmp_path))
        stats = Stats(cycles=9, thread_instructions=4, instructions_issued=3)
        digest = store.store("histogram", "tiny", presets.baseline(), stats)
        assert digest == cell_hash("histogram", "tiny", presets.baseline())
        # Sharded by the first two hex digits of the content address.
        assert store.path_for(digest) == os.path.join(
            str(tmp_path), digest[:2], digest + ".json"
        )
        assert store.load_stats(digest).to_dict() == stats.to_dict()
        assert list(store.digests()) == [digest]
        assert len(store) == 1
        info = store.info()
        assert info.entries == 1 and info.total_bytes > 0

    def test_store_entry_schema_matches_disk_cache(self, tmp_path):
        # One schema: version/workload/size/config payload/stats payload.
        store = ResultStore(str(tmp_path))
        stats = Stats(cycles=9, thread_instructions=4, instructions_issued=3)
        digest = store.store("histogram", "tiny", presets.baseline(), stats)
        entry = store.get_entry(digest)
        assert set(entry) == {"version", "workload", "size", "config", "stats"}
        assert entry["version"] == result_cache.CACHE_VERSION
        assert config_from_payload(entry["config"]) == presets.baseline()

    def test_torn_and_alien_entries_read_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        digest = cell_hash("histogram", "tiny", presets.baseline())
        path = store.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write('{"version":')  # torn mid-write
        assert store.get_entry(digest) is None
        with open(path, "w") as f:
            json.dump({"version": -1, "stats": {}}, f)  # alien cache version
        assert store.get_entry(digest) is None
        assert store.load_stats(digest) is None

    def test_unencodable_stats_raise_before_the_filesystem_is_touched(
        self, tmp_path
    ):
        root = tmp_path / "store"
        bad = Stats(cycles=10, thread_instructions=10)
        bad.per_op_class["weird"] = object()  # json cannot encode this
        with pytest.raises(result_cache.CacheSerializationError, match="histogram"):
            ResultStore(str(root)).store("histogram", "tiny", presets.baseline(), bad)
        assert not root.exists()  # no root, no empty shard

    def test_missing_root_reads_as_an_empty_store(self, tmp_path):
        root = tmp_path / "typo"
        store = ResultStore(str(root))
        assert len(store) == 0 and list(store.digests()) == []
        assert store.info().entries == 0
        assert store.verify().examined == 0
        assert store.gc(max_entries=0).examined == 0
        assert store.get_entry("0" * 64) is None
        assert not root.exists()

    def test_path_for_rejects_non_digests(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for bad in ("", "abc", "../../etc/passwd", "G" * 64):
            with pytest.raises(ValueError, match="digest"):
                store.path_for(bad)

    def test_is_cell_digest(self):
        assert is_cell_digest("0" * 64)
        assert not is_cell_digest("0" * 63)
        assert not is_cell_digest("g" * 64)

    def test_resolve_store_dir_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        # The variable older trees read for the store is not read.
        monkeypatch.setenv("REPRO_STORE_DIR", "/retired")
        assert resolve_store_dir("explicit") == "explicit"
        assert resolve_store_dir(None) == ".repro_store"
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from/env")
        assert resolve_store_dir(None) == "/from/env"
        assert resolve_store_dir("explicit") == "explicit"


class TestCacheDirIsAStore:
    """``Engine(cache_dir=X)`` and ``ResultStore(X)`` are one format."""

    CELLS = [CELL_A, CELL_B]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_daemon_serves_an_engine_written_cache(self, tmp_path, jobs):
        root = str(tmp_path / "cache")
        Engine(jobs=jobs, cache_dir=root, memo={}).run(TINY)
        store = ResultStore(root)
        assert store.verify().ok
        assert len(store) == len(self.CELLS)
        service = SweepService(store, workers=0, engine=_StubEngine(fail=True))
        ack = service.submit(protocol.submit_message(self.CELLS))
        assert ack["triage"] == {
            "store": len(self.CELLS), "coalesced": 0, "queued": 0,
        }
        assert service.counters["cells_simulated"] == 0

    def test_engine_is_warm_from_a_daemon_filled_store(self, tmp_path):
        root = str(tmp_path / "store")
        service = SweepService(ResultStore(root), workers=0)
        service.submit(protocol.submit_message(self.CELLS))
        assert service.process_queued() == len(self.CELLS)

        def must_not_run(*args, **kwargs):
            raise AssertionError("a warm cache must not simulate")

        events = []
        Engine(
            cache_dir=root,
            memo={},
            progress=events.append,
            workload_factory=must_not_run,
            simulate_fn=must_not_run,
            simulate_device_fn=must_not_run,
        ).run(TINY)
        assert len(events) == len(self.CELLS)
        assert all(e.cached for e in events)

    @pytest.mark.parametrize(
        "config", [presets.baseline(), presets.device("baseline", sm_count=2)]
    )
    def test_both_writers_produce_identical_files(self, tmp_path, config):
        stats = Engine(cache_dir=None, memo={}).run_cell("histogram", "tiny", config)
        a, b = tmp_path / "a", tmp_path / "b"
        digest = result_cache.disk_store(str(a), "histogram", "tiny", config, stats)
        assert ResultStore(str(b)).store("histogram", "tiny", config, stats) == digest
        relative = os.path.join(digest[:2], digest + ".json")
        assert (a / relative).read_bytes() == (b / relative).read_bytes()
        assert os.listdir(str(a)) == os.listdir(str(b)) == [digest[:2]]


# ----------------------------------------------------------------------
# Daemon service (workers=0: deterministic triage + drain)
# ----------------------------------------------------------------------


class TestSweepService:
    def test_identical_submissions_cost_one_simulation(self, tmp_path):
        service = _service(tmp_path)
        # Two concurrent identical submissions (plus an in-message
        # duplicate): exactly one simulation, per the daemon counters.
        ack1 = service.submit(protocol.submit_message([CELL_A, CELL_A]))
        ack2 = service.submit(protocol.submit_message([CELL_A]))
        assert ack1["triage"] == {"store": 0, "coalesced": 1, "queued": 1}
        assert ack2["triage"] == {"store": 0, "coalesced": 1, "queued": 0}
        assert service.process_queued() == 1
        assert service._engine.calls == 1
        assert service.counters["cells_requested"] == 3
        assert service.counters["cells_simulated"] == 1
        assert service.counters["cells_coalesced"] == 2
        for job_id in (ack1["job"], ack2["job"]):
            job = service.get_job(job_id)
            assert job.finished.is_set()
            cells = job.result_message()["cells"]
            assert [c["status"] for c in cells] == [protocol.STATUS_OK] * len(cells)
        sources = [
            c["source"] for c in service.get_job(ack1["job"]).result_message()["cells"]
        ]
        assert sources == [protocol.SOURCE_SIMULATED, protocol.SOURCE_COALESCED]

    def test_store_hits_resolve_without_simulation(self, tmp_path):
        service = _service(tmp_path)
        service.store.store(
            CELL_A[0], CELL_A[1], CELL_A[3],
            Stats(cycles=7, thread_instructions=3, instructions_issued=2),
        )
        ack = service.submit(protocol.submit_message([CELL_A]))
        assert ack["triage"] == {"store": 1, "coalesced": 0, "queued": 0}
        job = service.get_job(ack["job"])
        assert job.finished.is_set()
        (cell,) = job.result_message()["cells"]
        assert cell["source"] == protocol.SOURCE_STORE
        assert cell["stats"]["data"]["cycles"] == 7
        assert service._engine.calls == 0

    def test_answered_submission_acks_with_its_cells(self, tmp_path):
        service = _service(tmp_path)
        first = service.submit(protocol.submit_message([CELL_A, CELL_B]))
        assert "cells" not in first  # work left: the result comes later
        service.process_queued()
        ack = service.submit(protocol.submit_message([CELL_A, CELL_B]))
        assert ack["state"] == protocol.JOB_DONE
        job = service.get_job(ack["job"])
        assert ack["cells"] == job.result_message()["cells"]
        assert [c["source"] for c in ack["cells"]] == [protocol.SOURCE_STORE] * 2
        # A client that ignores them still finds the job, and its event
        # history replays to the terminal status.
        events = job.subscribe()
        replayed = [events.get_nowait() for _ in range(events.qsize())]
        assert [e["type"] for e in replayed] == [
            protocol.MSG_PROGRESS, protocol.MSG_PROGRESS, protocol.MSG_STATUS
        ]
        assert replayed[-1]["state"] == protocol.JOB_DONE
        # One queued cell among the hits and the ack carries none.
        other = ("bfs", "tiny") + CELL_A[2:]
        assert "cells" not in service.submit(protocol.submit_message([CELL_A, other]))

    def test_duplicate_cell_ids_are_refused_not_left_running(self, tmp_path):
        service = _service(tmp_path)
        service.submit(protocol.submit_message([CELL_A, CELL_B]))
        service.process_queued()
        message = protocol.submit_message([CELL_A, CELL_B])
        message["cells"][1]["id"] = 0  # two answered cells 0: done 1 / total 2 forever
        with pytest.raises(ProtocolError, match="cell 1 repeats id 0") as excinfo:
            service.submit(message)
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert service.health()["jobs"] == 1 and service.counters["jobs_submitted"] == 1

    def test_finished_jobs_are_kept_up_to_a_bound(self, tmp_path):
        service = _service(tmp_path)
        service.store.store(CELL_A[0], CELL_A[1], CELL_A[3], Stats(cycles=7))
        # One job with a queued cell nobody simulates: work left throughout.
        waiting = service.submit(protocol.submit_message([CELL_B]))["job"]
        answered = [
            service.submit(protocol.submit_message([CELL_A]))["job"]
            for _ in range(FINISHED_JOBS_KEPT + 5)
        ]
        assert service.health()["jobs"] == FINISHED_JOBS_KEPT + 1
        with pytest.raises(ProtocolError) as excinfo:
            service.get_job(answered[0])
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB
        newest = service.get_job(answered[-1])
        assert newest.result_message()["cells"][0]["status"] == protocol.STATUS_OK
        assert newest.subscribe().qsize() == 2  # progress + terminal status
        assert not service.get_job(waiting).finished.is_set()

    def test_queue_full_back_pressure(self, tmp_path):
        service = _service(tmp_path, queue_limit=1, retry_after=2.5)
        service.submit(protocol.submit_message([CELL_A]))  # the queue is full
        with pytest.raises(ProtocolError) as excinfo:
            service.submit(protocol.submit_message([CELL_B]))
        assert excinfo.value.code == protocol.ERR_QUEUE_FULL
        assert excinfo.value.retry_after == 2.5
        assert "1 pending, limit 1" in str(excinfo.value)
        # Nothing was enqueued: once the queue drains, the same
        # submission starts clean.
        assert service.counters["jobs_submitted"] == 1
        assert service.process_queued() == 1
        ack = service.submit(protocol.submit_message([CELL_B]))
        assert ack["triage"]["queued"] == 1

    def test_submission_larger_than_the_queue_is_refused_not_deferred(
        self, tmp_path
    ):
        """An idle daemon cannot make room for more new cells than its
        queue holds: that is a bad request to split, not a 429 to
        retry forever."""
        service = _service(tmp_path, queue_limit=1)
        with pytest.raises(ProtocolError) as excinfo:
            service.submit(protocol.submit_message([CELL_A, CELL_B]))
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert excinfo.value.retry_after is None
        message = str(excinfo.value)
        assert "needs 2 new simulations" in message and "queue limit of 1" in message
        assert "split the sweep" in message and "--queue-limit" in message
        assert service.counters == {name: 0 for name in COUNTERS}
        assert service.process_queued() == 0
        # Store hits and coalesced cells are free: only new work counts.
        service.store.store(CELL_B[0], CELL_B[1], CELL_B[3], Stats(cycles=7))
        ack = service.submit(protocol.submit_message([CELL_A, CELL_B, CELL_A]))
        assert ack["triage"] == {"store": 1, "coalesced": 1, "queued": 1}

    def test_a_submission_that_fills_an_idle_queue_exactly_is_accepted(
        self, tmp_path
    ):
        service = _service(tmp_path, queue_limit=2)
        ack = service.submit(protocol.submit_message([CELL_A, CELL_B]))
        assert ack["triage"]["queued"] == 2
        # The queue is full now: one more new cell is a 429 to retry,
        # not an oversized submission.
        other = ("bfs", "tiny") + CELL_A[2:]
        with pytest.raises(ProtocolError) as excinfo:
            service.submit(protocol.submit_message([other]))
        assert excinfo.value.code == protocol.ERR_QUEUE_FULL
        assert service.process_queued() == 2
        assert service.get_job(ack["job"]).state == protocol.JOB_DONE

    def test_the_api_is_five_routes_and_seven_counters(self, tmp_path):
        assert sorted(ServiceHandler.ROUTES) == [
            ("GET", "/v1/cells/*"),
            ("GET", "/v1/health"),
            ("GET", "/v1/jobs/*/events"),
            ("GET", "/v1/jobs/*/result"),
            ("POST", "/v1/jobs"),
        ]
        assert len(COUNTERS) == 7
        assert list(_service(tmp_path).health()["counters"]) == list(COUNTERS)

    def test_failed_cell_reported_with_error(self, tmp_path):
        service = _service(tmp_path, engine=_StubEngine(fail=True))
        ack = service.submit(protocol.submit_message([CELL_A]))
        service.process_queued()
        assert service.counters["cells_failed"] == 1
        assert service.counters["cells_simulated"] == 0
        job = service.get_job(ack["job"])
        assert job.finished.is_set()
        (cell,) = job.result_message()["cells"]
        assert cell["status"] == protocol.STATUS_FAILED
        assert "boom" in cell["error"]
        assert len(service.store) == 0  # failures never pollute the store

    def test_verify_cells_never_coalesce_or_store_serve(self, tmp_path):
        service = _service(tmp_path)
        ack1 = service.submit(protocol.submit_message([CELL_A], verify=True))
        ack2 = service.submit(protocol.submit_message([CELL_A], verify=True))
        assert ack1["triage"]["queued"] == 1
        assert ack2["triage"]["queued"] == 1
        service.process_queued()
        assert service._engine.calls == 2

    def test_lookup_cell(self, tmp_path):
        service = _service(tmp_path)
        digest = cell_hash(CELL_A[0], CELL_A[1], CELL_A[3])
        for missing in (digest, "zzz"):
            with pytest.raises(ProtocolError) as excinfo:
                service.lookup_cell(missing)
            assert excinfo.value.code == protocol.ERR_UNKNOWN_CELL
        service.submit(protocol.submit_message([CELL_A]))
        service.process_queued()
        message = service.lookup_cell(digest)
        assert message["hash"] == digest
        assert message["workload"] == "histogram"
        assert message["stats"]["data"]["cycles"] == 7

    def test_unknown_job(self, tmp_path):
        with pytest.raises(ProtocolError) as excinfo:
            _service(tmp_path).get_job("j999999")
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB

    def test_event_subscriptions_are_independent_and_replayed(self, tmp_path):
        # The lost-final-status race: one consumer popping the shared
        # event queue used to swallow events (terminal status included)
        # for every other stream.  Subscriptions are now independent,
        # and a late subscriber gets the full history back.
        service = _service(tmp_path)
        ack = service.submit(protocol.submit_message([CELL_A]))
        job = service.get_job(ack["job"])
        sub_a = job.subscribe()
        service.process_queued()
        # sub_a received everything but its client "disconnected"
        # without consuming; dropping it must not lose anything.
        job.unsubscribe(sub_a)
        sub_b = job.subscribe()  # attaches after the job finished
        events = []
        while True:
            events.append(sub_b.get_nowait())
            if events[-1]["type"] == protocol.MSG_STATUS:
                break
        assert events[0]["type"] == protocol.MSG_PROGRESS
        assert events[0]["cell"]["status"] == protocol.STATUS_OK
        assert events[-1]["state"] == protocol.JOB_DONE
        # The history is bounded by the job, not by consumers.
        with pytest.raises(queue.Empty):
            sub_b.get_nowait()

    def test_finish_within_heartbeat_of_disconnect_keeps_status(self, tmp_path):
        # A subscriber vanishing right before the job finishes (the
        # disconnect-within-a-heartbeat window) leaves the terminal
        # status intact for a stream that attaches afterwards.
        service = _service(tmp_path)
        ack = service.submit(protocol.submit_message([CELL_A]))
        job = service.get_job(ack["job"])
        doomed = job.subscribe()
        job.unsubscribe(doomed)
        service.process_queued()
        survivor = job.subscribe()
        seen = [survivor.get_nowait() for _ in range(2)]
        assert seen[-1]["type"] == protocol.MSG_STATUS
        assert seen[-1]["state"] == protocol.JOB_DONE

    def test_health_reports_the_closed_counter_set(self, tmp_path):
        message = _service(tmp_path).health()
        assert set(message["counters"]) == set(COUNTERS)
        assert message["queue_limit"] == 256
        assert message["store"]["entries"] == 0


# ----------------------------------------------------------------------
# Remote client (no server needed)
# ----------------------------------------------------------------------


class TestRemoteClient:
    def test_rejects_bad_server_and_retries(self):
        with pytest.raises(ValueError, match="http"):
            RemoteClient("localhost:1")
        with pytest.raises(ValueError, match="retries"):
            RemoteClient("http://x", retries=-1)

    def test_deterministic_backoff_on_dead_server(self):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        delays = []
        client = RemoteClient(
            "http://127.0.0.1:%d" % port,
            timeout=1.0,
            retries=2,
            backoff=0.25,
            sleep=delays.append,
        )
        with pytest.raises(RemoteError, match="after 3 attempts"):
            client.health()
        assert delays == [0.25, 0.5]  # backoff * 2**attempt, no jitter

    def test_follow_job_falls_back_to_polling(self):
        result = protocol.envelope(
            protocol.MSG_RESULT,
            job="j000001",
            state=protocol.JOB_DONE,
            cells=[{"id": 0, "hash": "cd" * 32, "status": protocol.STATUS_OK}],
        )

        class _BrokenStream:
            def events(self, job_id):
                raise RemoteError("stream broke")

            def wait_result(self, job_id):
                return result

        collected = {}
        _follow_job(_BrokenStream(), "j000001", collected)
        assert list(collected) == ["cd" * 32]

    @staticmethod
    def _recording(monkeypatch, kind):
        """Replace ``http.client.<kind>`` with a connection that records
        what it was built with and asked for, then fails the request."""
        made = []

        class Recorder:
            def __init__(self, host, port, **kwargs):
                self.call = {"host": host, "port": port, **kwargs}
                made.append(self.call)

            def request(self, method, url, body=None, headers=None):
                self.call.update(method=method, url=url, body=body)
                raise ConnectionRefusedError("recorded")

            def close(self):
                self.call["closed"] = True

        monkeypatch.setattr(http.client, kind, Recorder)
        return made

    @pytest.mark.parametrize("url, kind, host, port, path", [
        ("https://sweeps.example:8443", "HTTPSConnection", "sweeps.example", 8443, "/v1/health"),
        ("https://sweeps.example/lab/", "HTTPSConnection", "sweeps.example", None, "/lab/v1/health"),
        ("http://[::1]:8421/a/b", "HTTPConnection", "::1", 8421, "/a/b/v1/health"),
        ("http://127.0.0.1:8421/", "HTTPConnection", "127.0.0.1", 8421, "/v1/health"),
    ])
    def test_the_transport_is_http_client_and_keeps_the_path_prefix(
        self, monkeypatch, url, kind, host, port, path
    ):
        """https builds an ``HTTPSConnection`` with the default (verifying)
        context, as ``urllib`` did; a path prefix goes before every route."""
        made = self._recording(monkeypatch, kind)
        with pytest.raises(RemoteError, match="after 1 attempt .*recorded"):
            RemoteClient(url, timeout=2.5, retries=0).health()
        assert made == [{
            "host": host, "port": port, "timeout": 2.5, "method": "GET",
            "url": path, "body": None, "closed": True,
        }]

    #: (URL, the bad part its error names): each once accepted and then
    #: retried as "no response ... after N attempts".
    BAD_URLS = [
        ("http://", "has no host"),
        ("http://:8421", "has no host"),
        ("http://127.0.0.1:0", "has a bad port: 0 is not in 1..65535"),
        ("http://127.0.0.1:70000", "has a bad port"),
        ("http://127.0.0.1:notaport", "has a bad port"),
        ("http://127.0.0.1:8421?job=1", "has a query ('?job=1')"),
        ("http://127.0.0.1:8421/?", "has a query ('?')"),
        ("http://127.0.0.1:8421#top", "has a fragment ('#top')"),
        ("http://me@127.0.0.1:8421", "has a user name"),
        ("ftp://127.0.0.1:8421", "must be an http(s) URL"),
        ("localhost:8421", "must be an http(s) URL"),
    ]

    @pytest.mark.parametrize("url, bad", BAD_URLS)
    def test_a_malformed_url_is_refused_before_any_request(self, monkeypatch, url, bad):
        connected = []
        monkeypatch.setattr(
            socket, "create_connection", lambda *args, **kwargs: connected.append(args)
        )
        for build in (RemoteClient, lambda u: Engine(server=u, fallback="inline")):
            with pytest.raises(ValueError) as excinfo:
                build(url)
            assert str(excinfo.value).startswith("server %r %s" % (url, bad))
        assert connected == []

    def test_a_url_that_is_not_text_is_refused(self):
        with pytest.raises(ValueError, match="http"):
            RemoteClient(b"http://127.0.0.1:8421")


class TestBackendRegistry:
    def test_error_message_lists_every_backend(self):
        with pytest.raises(ValueError) as excinfo:
            Engine(backend="bogus")
        for name in BACKENDS:
            assert name in str(excinfo.value)

    def test_every_backend_has_a_runner(self):
        for name in BACKENDS:
            assert callable(getattr(Engine, "_run_%s" % name))

    def test_remote_requires_server(self):
        with pytest.raises(ValueError, match="server"):
            Engine(backend="remote")

    def test_non_http_server_rejected_at_construction(self):
        with pytest.raises(ValueError, match="http"):
            Engine(server="ftp://fileserver/sweeps")

    def test_server_implies_remote_backend(self):
        engine = Engine(server="http://127.0.0.1:9")
        assert engine.backend == "remote"
        assert engine.remote_client.server == "http://127.0.0.1:9"


# ----------------------------------------------------------------------
# HTTP round trips (a real daemon on a loopback port)
# ----------------------------------------------------------------------


@pytest.fixture()
def live_server(tmp_path):
    server = make_server(
        store_dir=str(tmp_path / "store"), workers=2, heartbeat=0.1
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, "http://%s:%d" % (host, port)
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()


@pytest.fixture()
def queued_server(tmp_path):
    """A daemon whose queue is never drained (workers=0)."""
    server = make_server(
        store_dir=str(tmp_path / "store"),
        workers=0,
        queue_limit=1,
        retry_after=1.5,
        heartbeat=0.05,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, "http://%s:%d" % (host, port)
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()


class TestAnsweredJobBytes:
    """An answered job's ack is spliced from the stats texts the store
    keeps, and its ``/events`` history is derived when first asked for:
    the bodies are still the bytes the tree that built and published
    them (9c94718) served — captured from it, as (length, sha256)."""

    SM = Stats(
        cycles=2**40 + 3, thread_instructions=4, instructions_issued=3,
        dram_bytes=1234.5, per_op_class={"alu": 3, "ld.global": 2**53 + 1},
    )
    ROWS = [
        ("histogram", "tiny", "baseline", presets.baseline()),
        ("bfs", "tiny", "dev2", presets.device("baseline", sm_count=2)),
        ("transpose", "tiny", "baseline", presets.baseline()),
    ]
    PARENT = {
        "ack j000001": (2953, "b285287271959caa58d9d078ddf79e897e6693b2df00d9c052cf503c4772e6bd"),
        "result j000001": (2891, "2d3ce872845e34619d416e630f997b2ff73f54751e9c6566ac7d16700feea7e1"),
        "events j000001": (685, "2506fb70b9a653feabefdcc1e7e724101d9cf39c582f0a5584100a0de528bdf7"),
        "ack j000002": (2953, "b6b44aac097b01337776af0804c27b0c81995a8bdc97ddf4c6002b31d9571a63"),
        "result j000002": (2891, "37397ba470092933128d16545313e2aa8734e3f81e0fd562651e7235332f6770"),
        "events j000002": (685, "144649c782f62d36d2867f3dcf9b27d4d47e8bc7c17490d0fc867e49ef5aa2d3"),
    }

    def test_ack_result_and_events_are_the_parents_bytes(self, tmp_path):
        import hashlib

        from repro.timing.stats import DeviceStats

        device = DeviceStats(
            cycles=77, dram_bytes=0.1, l2_accesses=5, sm_stats=[self.SM, Stats(cycles=1)]
        )
        root = str(tmp_path / "store")
        for (workload, size, _, config), stats in zip(self.ROWS, (self.SM, device, self.SM)):
            result_cache.disk_store(root, workload, size, config, stats)
        server = make_server(store_dir=root, workers=0, heartbeat=0.05)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def body(method, path, payload=None):
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            try:
                conn.request(method, path, body=payload)
                response = conn.getresponse()
                assert response.status == 200
                return response.read()
            finally:
                conn.close()

        got = {}
        try:
            line = protocol.submit_line(self.ROWS)
            for job in ("j000001", "j000002"):  # a first ask and a re-ask
                got["ack " + job] = body("POST", "/v1/jobs", line)
                got["result " + job] = body("GET", "/v1/jobs/%s/result" % job)
                got["events " + job] = body("GET", "/v1/jobs/%s/events" % job)
                # One writer: the spliced ack is encode() of the dict form.
                cells = server.service.get_job(job).result_message()["cells"]
                assert got["ack " + job] == protocol.encode(protocol.envelope(
                    protocol.MSG_ACK, job=job, state=protocol.JOB_DONE, total=3,
                    triage={"store": 3, "coalesced": 0, "queued": 0}, cells=cells,
                ))
        finally:
            server.shutdown()
            server.service.shutdown_gracefully()
            server.server_close()
            thread.join(timeout=10)
        assert {
            name: (len(data), hashlib.sha256(data).hexdigest()) for name, data in got.items()
        } == self.PARENT
        events = [json.loads(line) for line in got["events j000002"].splitlines()]
        assert [(e["type"], e.get("done")) for e in events] == [
            (protocol.MSG_PROGRESS, 1), (protocol.MSG_PROGRESS, 2),
            (protocol.MSG_PROGRESS, 3), (protocol.MSG_STATUS, 3),
        ]


class TestHTTPRoundTrip:
    def test_remote_matches_inline_and_warm_pass_is_free(self, live_server):
        server, url = live_server
        inline = Engine(backend="inline", cache_dir=None, memo={}).run(TINY)
        events = []
        remote = Engine(
            server=url, cache_dir=None, memo={}, progress=events.append
        ).run(TINY)
        assert remote.to_json() == inline.to_json()  # byte-identical
        assert all(not e.cached for e in events)
        assert [e.done for e in events] == [1, 2]  # monotone, complete
        assert all(e.source == protocol.SOURCE_SIMULATED for e in events)
        assert server.service.counters["cells_simulated"] == 2

        warm_events = []
        warm = Engine(
            server=url, cache_dir=None, memo={}, progress=warm_events.append
        ).run(TINY)
        assert warm.to_json() == inline.to_json()
        assert all(e.cached for e in warm_events)  # store-served
        assert [e.done for e in warm_events] == [1, 2]
        # Cached remote cells carry daemon provenance, matching the
        # daemon's own cells_store counter below.
        assert all(e.source == protocol.SOURCE_STORE for e in warm_events)
        assert server.service.counters["cells_simulated"] == 2  # unchanged
        assert server.service.counters["cells_store"] == 2

    @staticmethod
    def _count_requests(monkeypatch):
        paths = []
        real_open = RemoteClient._open

        def counted(self, method, path, message=None):
            paths.append((method, path))
            return real_open(self, method, path, message)

        monkeypatch.setattr(RemoteClient, "_open", counted)
        return paths

    def test_answered_sweep_is_one_request_and_any_ack_shape_gives_one_answer(
        self, live_server, monkeypatch
    ):
        server, url = live_server
        inline = Engine(backend="inline", cache_dir=None, memo={}).run(TINY)
        Engine(server=url, cache_dir=None, memo={}).run(TINY)  # cold fill
        paths = self._count_requests(monkeypatch)
        warm = Engine(server=url, cache_dir=None, memo={}).run(TINY)
        assert paths == [("POST", "/v1/jobs")]
        assert warm.to_json() == inline.to_json()

        # What a daemon from before the ack carried cells sends: the
        # client follows and fetches, to the same bytes.
        submit_line = server.service.submit_line

        def old_daemon_submit_line(message):
            ack = json.loads(submit_line(message))
            assert ack.pop("cells")
            return protocol.encode(ack)

        monkeypatch.setattr(server.service, "submit_line", old_daemon_submit_line)
        del paths[:]
        events = []
        fetched = Engine(
            server=url, cache_dir=None, memo={}, progress=events.append
        ).run(TINY)
        (post, path), (get, result_path) = paths
        assert (post, path, get) == ("POST", "/v1/jobs", "GET")
        assert result_path.endswith("/result")
        assert fetched.to_json() == inline.to_json()
        assert {e.source for e in events} == {protocol.SOURCE_STORE}

    def test_answered_job_still_serves_result_and_events(self, live_server):
        """A client that never looks at the ack's cells loses nothing."""
        _, url = live_server
        client = RemoteClient(url, retries=0)
        cells = [CELL_A, CELL_B]
        client.wait_result(str(client.submit(cells)["job"]), poll_interval=0.02)
        ack = client.submit(cells)
        assert ack["state"] == protocol.JOB_DONE and len(ack["cells"]) == 2
        job_id = str(ack["job"])
        assert client.result(job_id)["cells"] == ack["cells"]
        events = list(client.events(job_id))
        assert [e["type"] for e in events] == [
            protocol.MSG_PROGRESS, protocol.MSG_PROGRESS, protocol.MSG_STATUS
        ]
        assert events[-1]["state"] == protocol.JOB_DONE

    def test_two_clients_warm_and_cold_match_inline(self, live_server):
        _, url = live_server
        spec = SweepSpec.from_presets(
            ["baseline", "warp64", "sbi"], workloads=["histogram", "bfs"], size="tiny"
        )
        inline = Engine(backend="inline", cache_dir=None, memo={}).run(spec).to_json()
        for _ in ("cold", "warm"):
            got = [None, None]

            def one_client(index):
                got[index] = Engine(server=url, cache_dir=None, memo={}).run(spec).to_json()

            threads = [threading.Thread(target=one_client, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [inline, inline]

    def test_results_fold_into_local_caches(self, live_server, tmp_path):
        _, url = live_server
        cache_dir = str(tmp_path / "localcache")
        memo = {}
        Engine(server=url, cache_dir=cache_dir, memo=memo).run(TINY)
        assert len(memo) == 2
        # A later offline (inline) engine is warm from the disk level.
        events = []
        Engine(
            backend="inline", cache_dir=cache_dir, memo={}, progress=events.append
        ).run(TINY)
        assert all(e.cached for e in events)

    def test_queued_submissions_coalesce_across_http(self, queued_server):
        server, url = queued_server
        client = RemoteClient(url, retries=0)
        ack1 = client.submit([CELL_A])
        ack2 = client.submit([CELL_A])
        assert ack1["triage"]["queued"] == 1
        assert ack2["triage"]["coalesced"] == 1
        assert server.service.process_queued() == 1
        for ack in (ack1, ack2):
            message = client.result(str(ack["job"]))
            assert message["type"] == protocol.MSG_RESULT
            (cell,) = message["cells"]
            assert cell["status"] == protocol.STATUS_OK
        assert server.service.counters["cells_simulated"] == 1

    def test_rider_attributes_ridden_cells_as_coalesced(self, queued_server):
        # Two threads sweep the same cell through one Engine.  Each
        # submits its own job; the daemon attaches the second job's
        # cell to the first's in-flight simulation and tags it
        # coalesced — a rider caused no simulation.
        server, url = queued_server
        spec = SweepSpec.from_presets(
            ["baseline"], workloads=["histogram"], size="tiny"
        )
        engine = Engine(server=url, cache_dir=None, memo={})
        first, second = [], []

        def sweep(events):
            engine.run(spec, progress=events.append)

        leader = threading.Thread(target=sweep, args=(first,))
        leader.start()
        deadline = time.monotonic() + 5.0
        while server.service.counters["jobs_submitted"] < 1:
            assert time.monotonic() < deadline, "leader never submitted"
            time.sleep(0.01)
        rider = threading.Thread(target=sweep, args=(second,))
        rider.start()
        time.sleep(0.15)  # rider's job has coalesced onto the leader's queued cell
        assert server.service.process_queued() == 1
        leader.join(timeout=5.0)
        rider.join(timeout=5.0)
        assert not leader.is_alive() and not rider.is_alive()

        (lead_event,) = first
        assert not lead_event.cached
        assert lead_event.source == protocol.SOURCE_SIMULATED
        (ride_event,) = second
        assert ride_event.cached
        assert ride_event.source == protocol.SOURCE_COALESCED
        assert server.service.counters["cells_simulated"] == 1

    def test_429_retry_after_honoured_by_client(self, queued_server):
        _, url = queued_server
        delays = []
        client = RemoteClient(
            url, retries=1, backoff=0.01, sleep=delays.append
        )
        client.submit([CELL_A])  # the one queue slot, never drained
        with pytest.raises(RemoteError, match="busy"):
            client.submit([CELL_B])
        assert delays == [1.5]  # the daemon's Retry-After, not backoff

    def test_oversized_submission_fails_at_once(self, queued_server, monkeypatch):
        server, url = queued_server
        delays = []
        requests = self._count_requests(monkeypatch)
        client = RemoteClient(url, retries=3, sleep=delays.append)
        with pytest.raises(RemoteError) as excinfo:
            client.submit([CELL_A, CELL_B])  # 2 new cells > queue_limit=1
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert "queue limit of 1" in str(excinfo.value)
        assert requests == [("POST", "/v1/jobs")] and delays == []
        assert server.service.counters["cells_requested"] == 0

    def test_oversized_sweep_is_one_cli_error_line(
        self, queued_server, monkeypatch, capsys
    ):
        from repro.cli import main

        server, url = queued_server
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main([
            "sweep", "--workloads", "histogram", "--configs", "baseline,warp64",
            "--size", "tiny", "--server", url,
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        header, line = captured.err.splitlines()
        assert header == "sweep: 1 workloads x 1 sizes x 2 configs = 2 cells"
        assert line.startswith("error: ") and "queue limit of 1" in line
        assert "attempt" not in line  # refused, not retried
        assert server.service.counters["cells_requested"] == 0

    def test_typed_errors_do_not_retry(self, queued_server):
        _, url = queued_server
        delays = []
        client = RemoteClient(url, retries=3, sleep=delays.append)
        with pytest.raises(RemoteError) as excinfo:
            client.result("j999999")
        assert excinfo.value.code == protocol.ERR_UNKNOWN_JOB
        with pytest.raises(RemoteError) as excinfo:
            client.cell("0" * 64)
        assert excinfo.value.code == protocol.ERR_UNKNOWN_CELL
        cancel = {"job": "j000001", "type": "cancel", "v": protocol.PROTOCOL_VERSION}
        for method, path, message in (
            ("GET", "/nope", None),
            # What a client from before the routes went still sends.
            ("GET", "/v1/jobs/j000001", None),
            ("POST", "/v1/jobs/j000001/cancel", cancel),
        ):
            with pytest.raises(RemoteError, match="unknown endpoint") as excinfo:
                client._request(method, path, message and protocol.encode(message))
            assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert delays == []  # 4xx re-runs would fail identically

    def test_events_stream_heartbeats_then_terminal(self, queued_server):
        server, url = queued_server
        client = RemoteClient(url, retries=0)
        ack = client.submit([CELL_A])
        job_id = str(ack["job"])
        stream = client.events(job_id)
        first = next(stream)  # heartbeat: nothing is processing
        assert first["type"] == protocol.MSG_STATUS
        assert first["state"] == protocol.JOB_QUEUED
        assert client.result(job_id) == first  # 202: the same snapshot
        server.service.process_queued()
        seen = [first] + list(stream)
        assert seen[-1]["type"] == protocol.MSG_STATUS
        assert seen[-1]["state"] == protocol.JOB_DONE
        assert any(
            e["type"] == protocol.MSG_PROGRESS
            and e["cell"]["status"] == protocol.STATUS_OK
            for e in seen
        )

    def test_concurrent_streams_both_see_every_event(self, queued_server):
        # Two live streams of one job: with the old shared queue each
        # event went to exactly one of them, so at least one stream
        # lost the per-cell progress line or the terminal status.
        server, url = queued_server
        client = RemoteClient(url, retries=0)
        ack = client.submit([CELL_A])
        job_id = str(ack["job"])
        streams = {}

        def consume(tag):
            streams[tag] = list(client.events(job_id))

        threads = [
            threading.Thread(target=consume, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # both streams attached and heartbeating
        server.service.process_queued()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        for tag in ("a", "b"):
            assert streams[tag][-1]["type"] == protocol.MSG_STATUS
            assert streams[tag][-1]["state"] == protocol.JOB_DONE
            assert any(
                e["type"] == protocol.MSG_PROGRESS
                and e["cell"]["status"] == protocol.STATUS_OK
                for e in streams[tag]
            )

    @pytest.mark.parametrize(
        "declared,needle",
        [
            (str(MAX_REQUEST_BYTES + 1), str(MAX_REQUEST_BYTES)),
            ("-5", "no body"),
        ],
    )
    def test_request_body_length_is_bounded(self, live_server, declared, needle):
        server, _ = live_server
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            # Headers only: the daemon must answer from the declared
            # length, without waiting for (or allocating) the body.
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", declared)
            conn.endheaders()
            response = conn.getresponse()
            body = protocol.decode(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["code"] == protocol.ERR_BAD_REQUEST
        assert needle in body["message"]

    @pytest.mark.parametrize(
        "verb,path",
        [
            ("GET", "/v1/nope"),
            ("POST", "/v1/health"),
            ("GET", "/v1/jobs/j000001/cancel"),
            ("GET", "/v1/jobs/j000001/result/extra"),
            ("GET", "/v2/health"),
        ],
    )
    def test_unrouted_requests_are_typed_400s(self, live_server, verb, path):
        server, _ = live_server
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request(verb, path, body=b"{}" if verb == "POST" else None)
            response = conn.getresponse()
            body = protocol.decode(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["code"] == protocol.ERR_BAD_REQUEST
        assert "unknown endpoint" in body["message"]

    def test_cell_lookup_over_http(self, live_server):
        _, url = live_server
        client = RemoteClient(url, retries=0)
        Engine(server=url, cache_dir=None, memo={}).run(TINY)
        digest = cell_hash(CELL_A[0], CELL_A[1], CELL_A[3])
        message = client.cell(digest)
        assert message["hash"] == digest
        assert message["stats"]["kind"] == "sm"

    def test_health_over_http(self, live_server):
        _, url = live_server
        message = RemoteClient(url, retries=0).health()
        assert set(message["counters"]) == set(COUNTERS)
