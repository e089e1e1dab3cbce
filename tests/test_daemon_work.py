"""A deterministic gauge of what one submission costs the daemon.

A group sharing ``repro serve`` re-asks the evaluation's grids — few
configurations x many kernels — and once the store holds a grid, what a
re-ask costs is the daemon's own bookkeeping, all of it under one lock:
building and hashing configurations as it decodes the cells, walking
them again for the journal, the journal's bytes and its fsync, and the
requests the client needs for its answer.  The tree before this gauge
(6f7d7ba) did each of those per *cell*, journalled a job that was
already finished, and answered in two requests.  The counts here repeat
exactly, so they are pinned without a timing run, in the mould of
``tests/test_keying_work.py``: per store-answered submission the daemon
builds, hashes and walks each *distinct* configuration once, writes
nothing, and the client makes one request — and none of it moves when
the number of kernels doubles.  A submission with work left is still
journalled, job record and store hits in one group commit, before its
ack.  The tree before the entry memo and the one-writer submit (fb2bca0)
also opened and parsed every answered cell's entry again on every
re-ask, and the client re-encoded every cell's configuration inside one
whole-message ``json.dumps``: now a re-asked hit is one ``os.stat``, and
a client submit encodes each configuration once.  The tree before the
spliced ack (9c94718) still encoded every answered cell's stats payload
again inside the ack's whole-message ``json.dumps``, and built a
progress envelope per cell for a history nobody had subscribed to: now
the ack is joined from the stats texts the store keeps beside its
entries.  That tree published a progress envelope per resolved cell of
a job with work left, too; now every job's history is its resolved
cells, and a progress envelope is built only when ``/events`` is read.

``python tests/test_daemon_work.py`` prints the table.
"""

import contextlib
import json
import os
import threading
from unittest import mock

import pytest

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.core import presets
from repro.service import protocol
from repro.service.daemon import SweepService, make_server
from repro.service.journal import JobJournal, resolve_journal_path
from repro.service import store as store_module
from repro.service.remote import RemoteClient
from repro.service.store import ResultStore
from repro.timing.stats import Stats
from repro.workloads import ALL_WORKLOADS

from service_helpers import submit

#: Three machines, one of them a device (a nested walk is one walk).
CONFIGS = {
    "baseline": presets.baseline(),
    "sbi_swi": presets.sbi_swi(),
    "dev": presets.device("sbi_swi", sm_count=2),
}
STATS = Stats(cycles=100, thread_instructions=3200, per_op_class={"alu": 3200})


def grid(kernels: int) -> SweepSpec:
    return SweepSpec(
        workloads=ALL_WORKLOADS[:kernels], configs=CONFIGS, size="tiny"
    )


def fill(store_dir: str, spec: SweepSpec, every: int = 1) -> None:
    """Put every ``every``-th cell of ``spec`` in the store."""
    for cell in list(spec.cells())[::every]:
        result_cache.disk_store(store_dir, cell.workload, cell.size, cell.config, STATS)


@contextlib.contextmanager
def counting():
    """Counts of the daemon's per-configuration work and its fsyncs,
    while the block runs: ``config_from_payload`` and ``config_hash``
    as the decoder calls them, top-level ``config_fields`` walks, and
    ``os.fsync``."""
    counts = {"built": 0, "hashed": 0, "walks": 0, "fsyncs": 0}
    depth = [0]
    build, digest = protocol.config_from_payload, protocol.config_hash
    walk, fsync = result_cache.config_fields, os.fsync

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    def counted_walk(config):
        counts["walks"] += depth[0] == 0
        depth[0] += 1
        try:
            return walk(config)
        finally:
            depth[0] -= 1

    with mock.patch.object(protocol, "config_from_payload", counted("built", build)), \
            mock.patch.object(protocol, "config_hash", counted("hashed", digest)), \
            mock.patch.object(result_cache, "config_fields", counted_walk), \
            mock.patch.object(os, "fsync", counted("fsyncs", fsync)):
        yield counts


def submit_counts(kernels: int, root: str, every: int = 1) -> dict:
    """What one submission of a ``kernels`` x 3 grid costs a journalled
    daemon whose store holds every ``every``-th cell (all of them by
    default: the submission is answered), up to its ack."""
    spec = grid(kernels)
    store = ResultStore(os.path.join(root, "store"))
    fill(store.root, spec, every)
    journal = JobJournal(resolve_journal_path(None, store.root))
    service = SweepService(store, workers=0, journal=journal)
    message = protocol.decode(protocol.encode(protocol.submit_message(
        [(c.workload, c.size, c.config_name, c.config) for c in spec.cells()]
    )))
    try:
        with counting() as counts:
            ack = submit(service, message)
        counts["journal_bytes"] = os.path.getsize(journal.path)
        hits = len(range(0, spec.total_cells, every))
        assert ack["triage"]["store"] == hits
        assert ack["triage"]["queued"] == spec.total_cells - hits
        assert ("cells" in ack) == (every == 1)
        replayed = journal.replay()
        assert len(replayed) == (every != 1)
        if replayed:  # durable before the ack: the job, and its store hits
            assert len(replayed[0].cells) == spec.total_cells
            assert len(replayed[0].resolved) == hits
    finally:
        service.shutdown_gracefully()
    return counts


def resubmit_counts(kernels: int, root: str) -> dict:
    """Entry files opened and parsed, and ``os.stat`` calls, while a
    daemon answers a ``kernels`` x 3 grid it has answered before."""
    spec = grid(kernels)
    store = ResultStore(os.path.join(root, "store"))
    fill(store.root, spec)
    service = SweepService(store, workers=0)
    message = protocol.submit_message(
        [(c.workload, c.size, c.config_name, c.config) for c in spec.cells()]
    )
    counts = {"opened": 0, "stats": 0}
    read, stat = store_module.read_entry, os.stat

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    try:
        submit(service, message)
        with mock.patch.object(store_module, "read_entry", counted("opened", read)), \
                mock.patch.object(os, "stat", counted("stats", stat)):
            ack = submit(service, message)
        assert ack["triage"]["store"] == spec.total_cells
    finally:
        service.shutdown_gracefully()
    return counts


def client_submit_dumps(kernels: int, root: str) -> dict:
    """``json.dumps`` calls one ``RemoteClient.submit`` of a ``kernels``
    x 3 grid makes on the client's thread, with the addresses given (as
    ``Engine.run`` gives them): of whole messages, and of configurations."""
    spec = grid(kernels)
    rows = [(c.workload, c.size, c.config_name, c.config) for c in spec.cells()]
    digests = [result_cache.cell_hash(w, z, c) for w, z, _, c in rows]
    server = make_server(store_dir=os.path.join(root, "store"), workers=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client_thread = threading.get_ident()
    counts = {"messages": 0, "configs": 0}
    real = json.dumps

    def counted(obj, *args, **kwargs):
        if threading.get_ident() == client_thread and isinstance(obj, dict):
            counts["messages"] += "cells" in obj
            counts["configs"] += set(obj) == {"type", "fields"}
        return real(obj, *args, **kwargs)

    try:
        client = RemoteClient("http://%s:%d" % server.server_address[:2])
        with mock.patch.object(json, "dumps", counted):
            ack = client.submit(rows, digests=digests)
        assert ack["total"] == spec.total_cells
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
        thread.join(timeout=10)
    return counts


def stats_payloads(obj) -> int:
    """Stats payloads (``{"kind": ..., "data": ...}``) inside ``obj``."""
    if isinstance(obj, dict):
        return (set(obj) == {"kind", "data"}) + sum(map(stats_payloads, obj.values()))
    if isinstance(obj, list):
        return sum(map(stats_payloads, obj))
    return 0


def answered_resubmit_work(kernels: int, root: str) -> dict:
    """What a daemon does for a ``kernels`` x 3 grid it has answered
    before, over HTTP: stats payloads it hands ``json.dumps``, and the
    progress envelopes it builds up to the ack and then while a client
    reads the job's ``/events``."""
    spec = grid(kernels)
    store_dir = os.path.join(root, "store")
    fill(store_dir, spec)
    rows = [(c.workload, c.size, c.config_name, c.config) for c in spec.cells()]
    server = make_server(store_dir=store_dir, workers=0, heartbeat=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    counts = {"stats_dumped": 0, "progress": 0}
    dumps, envelope = json.dumps, protocol.envelope

    def counted_dumps(obj, *args, **kwargs):
        counts["stats_dumped"] += stats_payloads(obj)
        return dumps(obj, *args, **kwargs)

    def counted_envelope(msg_type, **body):
        counts["progress"] += msg_type == protocol.MSG_PROGRESS
        return envelope(msg_type, **body)

    try:
        client = RemoteClient("http://%s:%d" % server.server_address[:2])
        client.submit(rows)  # the first ask reads every entry
        with mock.patch.object(json, "dumps", counted_dumps), \
                mock.patch.object(protocol, "envelope", counted_envelope):
            ack = client.submit(rows)
            at_ack = dict(counts)
            events = list(client.events(str(ack["job"])))
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
        thread.join(timeout=10)
    assert ack["state"] == protocol.JOB_DONE and len(ack["cells"]) == spec.total_cells
    assert [e.get("done") for e in events] == list(range(1, spec.total_cells + 1)) + [
        spec.total_cells
    ]
    assert events[-1]["state"] == protocol.JOB_DONE
    return {
        "stats_dumped": at_ack["stats_dumped"],
        "progress_at_ack": at_ack["progress"],
        "progress_with_events": counts["progress"],
    }


class _CannedEngine:
    """Answers every cell with :data:`STATS`, simulating nothing."""

    def __call__(self, *args, **kwargs):
        return STATS, {}


def queued_job_work(kernels: int, root: str) -> dict:
    """Progress envelopes a daemon builds for a ``kernels`` x 3 grid
    whose store holds every other cell: up to the moment the last cell
    resolves, and then while the job's events are read."""
    spec = grid(kernels)
    store = ResultStore(os.path.join(root, "store"))
    fill(store.root, spec, every=2)
    service = SweepService(store, workers=0, engine=_CannedEngine())
    message = protocol.submit_message(
        [(c.workload, c.size, c.config_name, c.config) for c in spec.cells()]
    )
    counts = {"progress": 0}
    envelope = protocol.envelope

    def counted_envelope(msg_type, **body):
        counts["progress"] += msg_type == protocol.MSG_PROGRESS
        return envelope(msg_type, **body)

    try:
        with mock.patch.object(protocol, "envelope", counted_envelope):
            ack = submit(service, message)
            assert ack["triage"]["queued"] > 0
            service.process_queued()
            job = service.get_job(str(ack["job"]))
            assert job.state == protocol.JOB_DONE
            at_done = counts["progress"]
            events = [json.loads(line) for line in job.stream(heartbeat=0)]
    finally:
        service.shutdown_gracefully()
    assert [e.get("done") for e in events] == list(range(1, spec.total_cells + 1)) + [
        spec.total_cells
    ]
    return {"progress_at_done": at_done, "progress_with_events": counts["progress"]}


def requests_per_run(kernels: int, root: str) -> int:
    """HTTP requests one ``Engine(server=...).run`` of a ``kernels`` x 3
    grid makes against a daemon whose store holds every cell."""
    spec = grid(kernels)
    store_dir = os.path.join(root, "store")
    fill(store_dir, spec)
    server = make_server(store_dir=store_dir, workers=0, heartbeat=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    requests = []
    real_open = RemoteClient._open

    def counted_open(self, method, path, message=None):
        requests.append(path)
        return real_open(self, method, path, message)

    try:
        url = "http://%s:%d" % server.server_address[:2]
        with mock.patch.object(RemoteClient, "_open", counted_open):
            results = Engine(server=url, cache_dir=None, memo={}).run(spec)
        assert len(results) == spec.total_cells and not results.errors
        assert server.service.health()["counters"]["cells_store"] == spec.total_cells
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
        thread.join(timeout=10)
    return len(requests)


# The tree this gauge was introduced against (6f7d7ba), per answered
# submission of W x C cells: a config built and hashed per cell, walked
# once for the hash and once for the journal's payload, a job record and
# W x C cell records in one fsync, and a second request for the result.
PARENT_BUILT_PER_CELL = 1
PARENT_HASHED_PER_CELL = 1
PARENT_WALKS_PER_CELL = 2
PARENT_FSYNCS = 1
PARENT_REQUESTS = 2
PARENT_JOURNAL_BYTES_8X5 = 37153  # the benchmark's served_sweep shape
# fb2bca0, per answered re-submission: every entry opened and parsed
# again (and no stat); per client submit, one whole-message json.dumps
# that re-encodes each cell's configuration payload.
PARENT_OPENS_PER_CELL = 1
PARENT_STATS = 0
PARENT_MESSAGE_DUMPS = 1
PARENT_CONFIG_DUMPS = 0
# 9c94718, per answered re-submission: the whole-ack json.dumps encoded
# every cell's stats payload again, and every cell published a progress
# envelope into a history nobody had asked for.
PARENT_STATS_DUMPED_PER_CELL = 1
PARENT_PROGRESS_AT_ACK_PER_CELL = 1
# 2f75cc5, per job with work left: every resolved cell published a
# progress envelope, read or not.
PARENT_PROGRESS_AT_DONE_PER_CELL = 1


class TestDaemonWork:
    @pytest.mark.parametrize("kernels", [2, 8])
    def test_answered_submit_is_one_pass_and_writes_nothing(self, kernels, tmp_path):
        configs = len(CONFIGS)
        assert submit_counts(kernels, str(tmp_path)) == {
            "built": configs, "hashed": configs, "walks": configs,
            "fsyncs": 0, "journal_bytes": 0,
        }

    def test_answered_submit_does_not_grow_with_kernels(self, tmp_path):
        few = submit_counts(4, str(tmp_path / "few"))
        many = submit_counts(8, str(tmp_path / "many"))
        assert few == many

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_submit_with_work_left_is_journalled_in_one_commit(self, kernels, tmp_path):
        configs = len(CONFIGS)
        counts = submit_counts(kernels, str(tmp_path), every=2)
        assert counts["built"] == counts["hashed"] == configs
        assert counts["walks"] <= 2 * configs  # the digest, the journal's payload
        assert counts["fsyncs"] == 1
        assert counts["journal_bytes"] > 0

    def test_answered_sweep_is_one_request(self, tmp_path):
        assert requests_per_run(2, str(tmp_path / "few")) == 1
        assert requests_per_run(8, str(tmp_path / "many")) == 1

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_a_re_asked_hit_is_a_stat_not_a_parse(self, kernels, tmp_path):
        cells = kernels * len(CONFIGS)
        assert resubmit_counts(kernels, str(tmp_path)) == {"opened": 0, "stats": cells}

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_an_answered_ack_is_spliced_and_its_history_derived_on_demand(
        self, kernels, tmp_path
    ):
        """No stats payload is encoded again for the ack, and the job's
        progress envelopes are built only when its ``/events`` is read:
        one per cell, then the terminal status."""
        cells = kernels * len(CONFIGS)
        assert answered_resubmit_work(kernels, str(tmp_path)) == {
            "stats_dumped": 0, "progress_at_ack": 0, "progress_with_events": cells,
        }

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_a_job_with_work_left_builds_its_history_on_demand(self, kernels, tmp_path):
        """Resolving a cell records it and nothing more: the job's
        progress envelopes are built when its ``/events`` is read."""
        cells = kernels * len(CONFIGS)
        assert queued_job_work(kernels, str(tmp_path)) == {
            "progress_at_done": 0, "progress_with_events": cells,
        }

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_a_client_submit_encodes_each_configuration_once(self, kernels, tmp_path):
        assert client_submit_dumps(kernels, str(tmp_path)) == {
            "messages": 0, "configs": len(CONFIGS),
        }


def main() -> None:
    import tempfile

    print("| per submission | kernels x configs | before (6f7d7ba) | now |")
    print("| --- | ---: | ---: | ---: |")
    for kernels in (2, 8, 21):
        with tempfile.TemporaryDirectory() as tmp:
            answered = submit_counts(kernels, os.path.join(tmp, "a"))
            partial = submit_counts(kernels, os.path.join(tmp, "p"), every=2)
            requests = requests_per_run(kernels, os.path.join(tmp, "r"))
            again = resubmit_counts(kernels, os.path.join(tmp, "g"))
            dumps = client_submit_dumps(kernels, os.path.join(tmp, "d"))
            spliced = answered_resubmit_work(kernels, os.path.join(tmp, "s"))
            queued = queued_job_work(kernels, os.path.join(tmp, "q"))
        shape = "%d x %d" % (kernels, len(CONFIGS))
        cells = kernels * len(CONFIGS)
        for label, key, before in (
            ("config_from_payload", "built", PARENT_BUILT_PER_CELL * cells),
            ("config_hash", "hashed", PARENT_HASHED_PER_CELL * cells),
            ("config_fields walks", "walks", PARENT_WALKS_PER_CELL * cells),
            ("os.fsync", "fsyncs", PARENT_FSYNCS),
        ):
            print("| answered: %s | %s | %d | %d |" % (label, shape, before, answered[key]))
        print("| answered: journal bytes | %s | > 0 (%d at 8 x 5) | %d |" % (
            shape, PARENT_JOURNAL_BYTES_8X5, answered["journal_bytes"]
        ))
        print("| answered: HTTP requests per Engine.run | %s | %d | %d |" % (
            shape, PARENT_REQUESTS, requests
        ))
        print("| half queued: config_fields walks | %s | %d | %d |" % (
            shape, PARENT_WALKS_PER_CELL * cells, partial["walks"]
        ))
        print("| half queued: os.fsync before the ack | %s | %d | %d |" % (
            shape, PARENT_FSYNCS, partial["fsyncs"]
        ))
        print("| re-asked: entry files opened and parsed | %s | %d (fb2bca0) | %d |" % (
            shape, PARENT_OPENS_PER_CELL * cells, again["opened"]
        ))
        print("| re-asked: os.stat | %s | %d (fb2bca0) | %d |" % (
            shape, PARENT_STATS, again["stats"]
        ))
        print("| client submit: whole-message json.dumps | %s | %d (fb2bca0) | %d |" % (
            shape, PARENT_MESSAGE_DUMPS, dumps["messages"]
        ))
        print("| client submit: configuration json.dumps | %s | %d (fb2bca0) | %d |" % (
            shape, PARENT_CONFIG_DUMPS, dumps["configs"]
        ))
        print("| re-asked: stats payloads json.dumps'd for the ack | %s | %d (9c94718) | %d |" % (
            shape, PARENT_STATS_DUMPED_PER_CELL * cells, spliced["stats_dumped"]
        ))
        print("| re-asked: progress envelopes by the ack | %s | %d (9c94718) | %d |" % (
            shape, PARENT_PROGRESS_AT_ACK_PER_CELL * cells, spliced["progress_at_ack"]
        ))
        print("| re-asked: progress envelopes once /events is read | %s | %d (9c94718) | %d |" % (
            shape, PARENT_PROGRESS_AT_ACK_PER_CELL * cells, spliced["progress_with_events"]
        ))
        print("| half queued: progress envelopes by the last resolution | %s | %d (2f75cc5) | %d |" % (
            shape, PARENT_PROGRESS_AT_DONE_PER_CELL * cells, queued["progress_at_done"]
        ))
        print("| half queued: progress envelopes once /events is read | %s | %d (2f75cc5) | %d |" % (
            shape, PARENT_PROGRESS_AT_DONE_PER_CELL * cells, queued["progress_with_events"]
        ))


if __name__ == "__main__":
    main()
