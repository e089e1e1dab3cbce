"""The store's entry reader, and every other reader of JSON from outside.

:func:`repro.api.cache.read_entry` is the one reader behind the Engine's
disk level, the daemon's first read of an entry
(:meth:`ResultStore.get_kept`) and ``repro store verify``: one
``os.open``, ``os.read`` until end of file, one ``os.close``, a strict
UTF-8 decode and one ``json.loads``.  What it answers for every kind of
file that can sit at an entry path is pinned here through all three
callers — the contract a rewrite of the reader must keep — as is
:func:`repro.api.cache.digest_path` against the ``os.path.join`` it
replaced.  JSON nested past the decoder's recursion limit is the
reader's own typed error everywhere outside JSON is read: a miss for
the store, ``bad_request`` on the wire, a :class:`JournalError` naming
the journal, a ``ValueError`` from ``ResultSet.from_json`` — never a
``RecursionError``.
"""

import http.client
import io
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Engine, ResultSet, SweepSpec
from repro.api import cache as result_cache
from repro.core import presets
from repro.service import journal as journal_module
from repro.service import protocol
from repro.service.daemon import SweepService, make_server
from repro.service.journal import JobJournal, JournalError
from repro.service.remote import RemoteClient, RemoteError
from repro.service.store import ResultStore
from repro.timing.stats import Stats

from service_helpers import submit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CELL = ("histogram", "tiny", presets.baseline())
ROW = ("histogram", "tiny", "baseline", presets.baseline())
STATS = Stats(cycles=9, thread_instructions=4, instructions_issued=3)
GOOD = result_cache.entry_text(*CELL, STATS).encode()
#: Past every recursion limit the decoder can be run under.
BOMB = b"[" * 100_000
TORN = "unreadable or torn JSON"
NESTED = TORN + ": nested too deeply"
#: An entry this large takes many reads of any plausible buffer size.
BIG = 1 << 20


def stored(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    digest = store.store(*CELL, STATS)
    return store, digest, store.path_for(digest)


def put(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def repro(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(args),
        capture_output=True, text=True, env=env, cwd=cwd,
    )


# ----------------------------------------------------------------------
# The read contract on odd files
# ----------------------------------------------------------------------


def _directory(path):
    os.remove(path)
    os.mkdir(path)


def _big(path):
    put(path, GOOD[:-1] + b" " * BIG + b"}")


#: (name, what is put at the entry path, the reason or None for a hit).
ODD_FILES = [
    ("directory", _directory, TORN),
    ("empty", lambda path: put(path, b""), TORN),
    ("big", _big, None),
    ("not_utf8", lambda path: put(path, GOOD.replace(b"histogram", b"histo\xffgram")), TORN),
    ("truncated", lambda path: put(path, GOOD[: len(GOOD) // 2]), TORN),
    ("not_object", lambda path: put(path, b"[1, 2]"), "entry is not a JSON object"),
    (
        "other_version",
        lambda path: put(path, GOOD.replace(b'"version": 1', b'"version": 2')),
        "cache version 2 (this build speaks 1)",
    ),
]


class TestOddFiles:
    @pytest.mark.parametrize(
        "make, reason", [odd[1:] for odd in ODD_FILES], ids=[odd[0] for odd in ODD_FILES]
    )
    def test_every_reader_answers_the_same(self, tmp_path, make, reason):
        store, digest, path = stored(tmp_path)
        make(path)
        load = result_cache.disk_load(store.root, *CELL, digest)
        if reason is None:
            entry = result_cache.read_entry(path)
            assert entry == json.loads(GOOD)
            assert store.get_kept(digest).entry == entry
            assert load == STATS
            assert store.verify().ok
            return
        with pytest.raises(ValueError) as excinfo:
            result_cache.read_entry(path)
        assert str(excinfo.value) == reason
        assert store.get_kept(digest) is None
        assert load is None
        problems = store.verify().problems
        assert [(p.digest, p.reason) for p in problems] == [(digest, reason)]

    def test_a_missing_file_is_a_miss(self, tmp_path):
        store, digest, path = stored(tmp_path)
        os.remove(path)
        with pytest.raises(ValueError, match="^%s$" % TORN):
            result_cache.read_entry(path)
        assert store.get_kept(digest) is None
        assert store.verify().examined == 0


class TestDigestPath:
    @pytest.mark.parametrize(
        "root", ["store", "a/b", "/abs/store", "store/", "/abs/store/", "/", "", "./x", "a//"]
    )
    def test_it_is_the_join_it_replaced(self, root):
        digest = result_cache.cell_hash(*CELL)
        expected = os.path.join(root, digest[:2], digest + ".json")
        assert result_cache.digest_path(root, digest) == expected
        assert ResultStore(root).path_for(digest) == expected

    def test_a_path_object_is_a_root_too(self, tmp_path):
        digest = result_cache.cell_hash(*CELL)
        expected = os.path.join(tmp_path, digest[:2], digest + ".json")
        assert result_cache.digest_path(tmp_path, digest) == expected
        assert isinstance(result_cache.digest_path(pathlib.Path("/"), digest), str)


class TestTheReadIsSyscalls:
    """A read is ``os.open``, ``os.read`` until a short read (a regular
    file's end), and ``os.close`` on every path, the failing ones
    included."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("open", "read", "close"):
            real = getattr(os, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(os, name, counted)

        def refused(*args, **kwargs):
            raise AssertionError("a buffered open on the read path")

        monkeypatch.setattr(result_cache, "open", refused, raising=False)
        return calls

    def test_an_entry_is_one_open_one_read_one_close(self, tmp_path, calls):
        path = stored(tmp_path)[2]
        del calls[:]
        result_cache.read_entry(path)
        assert calls == ["open", "read", "close"]

    def test_a_big_entry_is_read_to_its_end(self, tmp_path, calls):
        path = stored(tmp_path)[2]
        _big(path)
        assert BIG > 2 * result_cache.READ_SIZE
        del calls[:]
        result_cache.read_entry(path)
        reads = os.path.getsize(path) // result_cache.READ_SIZE + 1
        assert calls == ["open"] + ["read"] * reads + ["close"]

    def test_an_entry_of_whole_reads_ends_on_an_empty_one(self, tmp_path, calls):
        path = stored(tmp_path)[2]
        put(path, GOOD[:-1] + b" " * (2 * result_cache.READ_SIZE - len(GOOD)) + b"}")
        del calls[:]
        assert result_cache.read_entry(path) == json.loads(GOOD)
        assert calls == ["open", "read", "read", "read", "close"]

    def test_a_failed_read_still_closes(self, tmp_path, calls):
        path = stored(tmp_path)[2]
        _directory(path)
        del calls[:]
        with pytest.raises(ValueError):
            result_cache.read_entry(path)
        assert calls == ["open", "read", "close"]


# ----------------------------------------------------------------------
# Over-deep JSON at an entry path: a miss for every caller
# ----------------------------------------------------------------------


class _StubEngine:
    def __init__(self):
        self.calls = 0

    def __call__(self, workload, size, config, verify, observers=()):
        self.calls += 1
        return STATS, {}


class TestNestedEntry:
    def test_the_reason_says_so(self, tmp_path):
        path = stored(tmp_path)[2]
        put(path, BOMB)
        with pytest.raises(ValueError) as excinfo:
            result_cache.read_entry(path)
        assert str(excinfo.value) == NESTED

    @pytest.mark.parametrize("errors", ["collect", "raise"])
    def test_engine_run_simulates_it_again(self, tmp_path, errors):
        store, digest, path = stored(tmp_path)
        put(path, BOMB)
        events = []
        spec = SweepSpec(workloads=["histogram"], configs={"baseline": CELL[2]}, size="tiny")
        rs = Engine(cache_dir=store.root, memo={}, progress=events.append).run(
            spec, errors=errors
        )
        assert len(rs) == 1 and not rs.errors
        assert [e.cached for e in events] == [False]
        assert store.verify().ok  # the simulated cell replaced the bomb

    def test_the_daemon_triages_it_as_a_miss(self, tmp_path):
        store, digest, path = stored(tmp_path)
        put(path, BOMB)
        engine = _StubEngine()
        service = SweepService(store, workers=0, engine=engine)
        ack = submit(service, protocol.submit_message([ROW]))
        assert ack["triage"] == {"store": 0, "coalesced": 0, "queued": 1}
        assert service.process_queued() == 1 and engine.calls == 1
        assert store.verify().ok

    def test_store_verify_names_it_and_fails(self, tmp_path):
        store, digest, path = stored(tmp_path)
        put(path, BOMB)
        proc = repro("store", "verify", "--dir", store.root)
        assert proc.returncode == 1
        assert proc.stdout == "verified 1 entries: 1 bad\n"
        assert proc.stderr == "bad entry %s: %s\n" % (digest[:16], NESTED)


# ----------------------------------------------------------------------
# Over-deep JSON everywhere else: the reader's typed error
# ----------------------------------------------------------------------


def _wire(tmp_path):
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode(BOMB)
    assert excinfo.value.code == protocol.ERR_BAD_REQUEST
    assert "nested too deeply" in str(excinfo.value)


def _posted_job(tmp_path):
    server = make_server(store_dir=str(tmp_path / "store"), workers=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10.0)
        try:
            conn.request("POST", "/v1/jobs", body=BOMB)
            response = conn.getresponse()
            body = protocol.decode(response.read())
        finally:
            conn.close()
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
    assert (response.status, body["code"]) == (400, protocol.ERR_BAD_REQUEST)


class _Answer(io.BytesIO):
    status = 200


def _daemon_answer(tmp_path):
    client = RemoteClient("http://127.0.0.1:1", retries=0)
    client._open = lambda method, path, body=None: _Answer(BOMB)
    with pytest.raises(RemoteError) as excinfo:
        client.health()
    assert excinfo.value.code == protocol.ERR_BAD_REQUEST


def _journal(tmp_path, line):
    path = str(tmp_path / "journal.ndjson")
    put(path, line + b"\n")
    with pytest.raises(JournalError) as excinfo:
        JobJournal.replay_path(path)
    assert path in str(excinfo.value)


def _serve_resume(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    put(str(store / "journal.ndjson"), BOMB + b"\n")
    proc = repro(
        "serve", "--port", "0", "--workers", "1", "--store", str(store), "--resume"
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: journal %s" % store)


def _resultset(tmp_path):
    path = tmp_path / "bomb.json"
    path.write_bytes(b'{"results": ' + BOMB)
    for source in (str(path), path.read_text()):
        with pytest.raises(ValueError, match="nested too deeply"):
            ResultSet.from_json(source)


def _merge(tmp_path):
    path = tmp_path / "bomb.json"
    path.write_bytes(BOMB)
    proc = repro("merge", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: %s: ResultSet JSON is nested too deeply\n" % path


OTHER_READERS = {
    "wire_line": _wire,
    "posted_job": _posted_job,
    "daemon_answer": _daemon_answer,
    "journal_nested": lambda tmp_path: _journal(tmp_path, BOMB),
    "journal_not_utf8": lambda tmp_path: _journal(tmp_path, b'{"j": 1, "\xff": 0}'),
    "serve_resume": _serve_resume,
    "resultset_from_json": _resultset,
    "repro_merge": _merge,
}


@pytest.mark.parametrize("reader", sorted(OTHER_READERS))
def test_over_deep_or_undecodable_json_is_the_readers_typed_error(tmp_path, reader):
    OTHER_READERS[reader](tmp_path)


# ----------------------------------------------------------------------
# Fuzz: any bytes decode or fail typed
# ----------------------------------------------------------------------


def _mutated(good: bytes):
    """``good`` with a few bytes spliced in at one offset and its tail
    cut at another."""
    return st.builds(
        lambda at, junk, end: good[:at] + junk + good[at:end],
        st.integers(0, len(good)), st.binary(max_size=4), st.integers(0, len(good)),
    )


#: A journal's job record for :data:`ROW`, as the daemon writes it.
JOURNAL_LINE = journal_module._job_record(
    "j1", False, protocol.cells_from_wire(protocol.submit_message([ROW])["cells"])
).encode()


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=64) | _mutated(GOOD))
    @example(data=BOMB)
    @example(data=GOOD)
    def test_an_entry_file_is_an_entry_or_a_miss(self, tmp_path_factory, data):
        store = ResultStore(str(tmp_path_factory.mktemp("fuzz-entry")))
        digest = result_cache.cell_hash(*CELL)
        path = store.path_for(digest)
        os.makedirs(os.path.dirname(path))
        put(path, data)
        try:
            entry = result_cache.read_entry(path)
        except ValueError:
            assert store.get_kept(digest) is None
        else:
            assert isinstance(entry, dict)
            assert store.get_kept(digest).entry == entry

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=64) | _mutated(protocol.encode(protocol.submit_message([ROW]))))
    @example(data=BOMB)
    def test_a_wire_line_is_a_message_or_a_protocol_error(self, data):
        try:
            message = protocol.decode(data)
            if message["type"] == protocol.MSG_SUBMIT:
                protocol.decode_submit(message)
        except protocol.ProtocolError:
            return
        assert isinstance(message, dict)

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=64) | _mutated(JOURNAL_LINE))
    @example(data=BOMB)
    @example(data=b"\xff\n")
    def test_a_journal_line_is_records_or_a_journal_error(self, tmp_path_factory, data):
        path = str(tmp_path_factory.mktemp("fuzz-journal") / "journal.ndjson")
        put(path, JOURNAL_LINE + data)
        try:
            jobs = JobJournal.replay_path(path)
        except JournalError:
            return
        assert all(job.job_id for job in jobs)
