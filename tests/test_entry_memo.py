"""The daemon's store hits come from memory while the file is unchanged.

:meth:`ResultStore.get_kept` keeps the entries it has answered, each
with the text of its stats, and answers them again after one
``os.stat`` that reads the stamp —
(inode, mtime in ns, size) — it read them under.  These tests hold it to
what a daemon's store can suffer beside it: a ``repro store gc``, a torn
write, an entry of another ``CACHE_VERSION`` put in place, lookups on
HTTP threads that take no service lock, and callers that get the kept
dict itself.
"""

import copy
import json
import os
import sys
import threading

import pytest

from repro.api import cache as result_cache
from repro.core import presets
from repro.service import protocol
from repro.service import store as store_module
from repro.service.daemon import SweepService, make_server
from repro.service.faults import FaultPlan
from repro.service.protocol import ProtocolError
from repro.service.remote import RemoteClient
from repro.service.store import ResultStore
from repro.timing.stats import Stats

CELL = ("histogram", "tiny", presets.baseline())
STATS = Stats(cycles=9, thread_instructions=4, instructions_issued=3)


@pytest.fixture
def reads(monkeypatch):
    """Paths the store opens and parses, in order."""
    opened = []
    real = store_module.read_entry

    def counted(path):
        opened.append(path)
        return real(path)

    monkeypatch.setattr(store_module, "read_entry", counted)
    return opened


def stored(tmp_path, **kwargs):
    store = ResultStore(str(tmp_path / "store"), **kwargs)
    return store, store.store(*CELL, STATS)


class TestStatRule:
    def test_a_hit_is_read_once_then_answered_from_memory(self, tmp_path, reads):
        store, digest = stored(tmp_path)
        first = store.get_entry(digest)
        assert store.get_entry(digest) is first
        assert reads == [store.path_for(digest)]
        assert first == result_cache.read_entry(store.path_for(digest))

    def test_a_gc_eviction_is_a_miss_and_a_rewrite_is_read_again(self, tmp_path, reads):
        store, digest = stored(tmp_path)
        assert store.get_entry(digest) is not None
        assert store.gc(max_entries=0).evicted == 1
        assert store.get_entry(digest) is None
        assert len(reads) == 1  # the miss is a failed stat, not an open
        store.store(*CELL, STATS)
        assert store.get_entry(digest) is not None
        assert len(reads) == 2

    def test_a_torn_store_write_is_never_served(self, tmp_path):
        # The second write of the cell is torn in place after its
        # atomic rename: same path, half the bytes.
        store, digest = stored(
            tmp_path, fault_plan=FaultPlan.parse("torn-store-write:2")
        )
        assert store.get_entry(digest) is not None
        store.store(*CELL, STATS)
        assert store.get_entry(digest) is None
        store.store(*CELL, STATS)  # the next writer converges
        assert store.get_entry(digest) is not None

    def test_a_truncation_in_place_is_never_served(self, tmp_path):
        store, digest = stored(tmp_path)
        path = store.path_for(digest)
        assert store.get_entry(digest) is not None
        os.truncate(path, os.path.getsize(path) // 2)
        assert store.get_entry(digest) is None

    def test_an_entry_of_another_cache_version_put_in_place_is_a_miss(self, tmp_path):
        store, digest = stored(tmp_path)
        path = store.path_for(digest)
        assert store.get_entry(digest) is not None
        with open(path, "rb") as handle:
            text = handle.read().decode()
        version = '"version": %d' % result_cache.CACHE_VERSION
        alien = text.replace(version, '"version": %d' % (result_cache.CACHE_VERSION + 1))
        assert alien != text and len(alien) == len(text)  # same size, same second
        result_cache.atomic_write_text(path, alien)
        assert store.get_entry(digest) is None
        result_cache.atomic_write_text(path, text)
        assert store.get_entry(digest) == json.loads(text)

    def test_the_bound_holds_least_recently_answered_out_first(
        self, tmp_path, reads, monkeypatch
    ):
        monkeypatch.setattr(store_module, "ENTRY_MEMO_ENTRIES", 3)
        store = ResultStore(str(tmp_path / "store"))
        digests = [
            store.store(workload, "tiny", presets.baseline(), STATS)
            for workload in ("histogram", "bfs", "transpose", "hotspot")
        ]
        for digest in digests[:3]:
            store.get_entry(digest)
        store.get_entry(digests[0])  # answered again: now the newest
        store.get_entry(digests[3])  # over the bound: digests[1] leaves
        assert len(store._answered) == 3
        del reads[:]
        for digest in (digests[0], digests[2], digests[3]):
            assert store.get_entry(digest) is not None
        assert reads == []
        assert store.get_entry(digests[1]) is not None
        assert reads == [store.path_for(digests[1])]
        assert len(store._answered) == 3


def text_of(entry):
    return json.dumps(entry["stats"], sort_keys=True)


class TestKeptText:
    """The stats text a daemon splices into its answers is kept with its
    entry, under the entry's stamp: it goes when the file goes."""

    def test_the_text_is_its_entrys_stats_and_kept_with_it(self, tmp_path, reads):
        store, digest = stored(tmp_path)
        kept = store.get_kept(digest)
        assert kept.entry == result_cache.read_entry(store.path_for(digest))
        assert kept.stats_text == text_of(kept.entry)
        assert store.get_kept(digest) is kept
        assert store.get_entry(digest) is kept.entry
        assert len(reads) == 1

    def test_an_entry_without_stats_has_no_text(self, tmp_path):
        store, digest = stored(tmp_path)
        path = store.path_for(digest)
        entry = result_cache.read_entry(path)
        del entry["stats"]
        result_cache.atomic_write_text(path, json.dumps(entry))
        assert store.get_kept(digest) == (entry, None)

    def test_the_text_is_sorted_whatever_order_the_file_holds(self, tmp_path):
        """The text is what a ``sort_keys`` message writes for the stats,
        even from an entry written with its keys in another order."""
        store, digest = stored(tmp_path)
        path = store.path_for(digest)
        entry = result_cache.read_entry(path)
        stats = entry["stats"]
        entry["stats"] = {"kind": stats["kind"], "data": dict(reversed(stats["data"].items()))}
        result_cache.atomic_write_text(path, json.dumps(entry))
        text = store.get_kept(digest).stats_text
        assert text == text_of(entry) != json.dumps(entry["stats"])

    @pytest.mark.parametrize("event", ["gc", "torn", "replace", "version"])
    def test_a_kept_text_never_outlives_its_file(self, tmp_path, event):
        store, digest = stored(tmp_path)
        path = store.path_for(digest)
        assert store.get_kept(digest).stats_text == text_of(
            result_cache.read_entry(path)
        )
        if event == "gc":
            assert store.gc(max_entries=0).evicted == 1
        elif event == "torn":
            os.truncate(path, os.path.getsize(path) // 2)
        elif event == "replace":  # the same cell, other stats, put in place
            other = result_cache.entry_text(*CELL, Stats(cycles=10, per_op_class={"alu": 1}))
            result_cache.atomic_write_text(path, other)
        else:
            with open(path, "rb") as handle:
                text = handle.read().decode()
            version = '"version": %d' % result_cache.CACHE_VERSION
            result_cache.atomic_write_text(
                path, text.replace(version, '"version": %d' % (result_cache.CACHE_VERSION + 1))
            )
        kept = store.get_kept(digest)
        if event == "replace":
            assert kept.entry["stats"]["data"]["cycles"] == 10
            assert kept.stats_text == text_of(result_cache.read_entry(path))
        else:
            assert kept is None


class TestDaemonUse:
    def test_lookups_beside_a_filling_triage_raise_nothing(self, tmp_path):
        """HTTP threads look cells up without the service lock while
        triage and the dispatcher fill, evict and re-read the store."""
        service = SweepService(ResultStore(str(tmp_path / "store")), workers=1)
        rows = [
            (workload, "tiny", name, getattr(presets, name)())
            for workload in ("histogram", "bfs")
            for name in ("baseline", "warp64")
        ]
        digests = [result_cache.cell_hash(w, z, c) for w, z, _, c in rows]
        failures = []
        done = threading.Event()

        def look() -> None:
            while not done.is_set():
                for digest in digests:
                    try:
                        answer = service.lookup_cell(digest)
                    except ProtocolError as exc:
                        if exc.code != protocol.ERR_UNKNOWN_CELL:
                            failures.append(exc)
                    except Exception as exc:  # noqa: BLE001 — the assertion
                        failures.append(exc)
                    else:
                        if answer["hash"] != digest or "stats" not in answer:
                            failures.append(answer)
                    kept = service.store.get_kept(digest)
                    if kept is not None and kept.stats_text != text_of(kept.entry):
                        failures.append(kept)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=look) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for _ in range(3):
                ack = service.submit(protocol.submit_message(rows))
                assert service.get_job(str(ack["job"])).finished.wait(timeout=60)
                service.store.gc(max_entries=1)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
            service.shutdown_gracefully()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_no_route_changes_a_kept_entry(self, tmp_path):
        root = str(tmp_path / "store")
        rows = [
            ("histogram", "tiny", "baseline", presets.baseline()),
            ("bfs", "tiny", "dev2", presets.device("baseline", sm_count=2)),
        ]
        for workload, size, _, config in rows:
            result_cache.disk_store(root, workload, size, config, STATS)
        server = make_server(store_dir=root, workers=0, heartbeat=0.05)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteClient("http://%s:%d" % server.server_address[:2])
            ack = client.submit(rows)  # answered: the ack carries the cells
            kept = copy.deepcopy(dict(server.service.store._answered))
            assert len(kept) == len(rows)
            job = str(ack["job"])
            for _ in range(2):
                assert client.submit(rows)["cells"] == ack["cells"]
                assert client.result(job)["cells"] == ack["cells"]
                for cell in ack["cells"]:
                    client.cell(cell["hash"])
                service_ack = server.service.submit(protocol.submit_message(rows))
                server.service.lookup_cell(str(service_ack["cells"][0]["hash"]))
            assert dict(server.service.store._answered) == kept
            for digest, (_, (entry, text)) in kept.items():
                assert entry == result_cache.read_entry(result_cache.digest_path(root, digest))
                assert text == json.dumps(entry["stats"], sort_keys=True)
        finally:
            server.shutdown()
            server.service.shutdown_gracefully()
            server.server_close()
            thread.join(timeout=10)
