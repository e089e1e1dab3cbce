"""The bytes the sweep service writes are pinned, not just round-tripped.

``tests/data/golden_cell_codec.ndjson`` was written by an older tree
(before the cell codec was unified): line 1 is an encoded ``submit``
envelope and lines 3–5 a journal file, both from exactly the calls in
:func:`golden_lines`.  A codec change that moves one byte on the wire
or in the journal — or that stops replaying what an older daemon
wrote — fails here.  Two lines are records of what is retired, and
what is pinned is that they are refused: line 2 is the ``publish``
envelope (two results uploaded to the store) that tree's degraded
client sent, line 6 the journal's ``cancel`` record of a job that
tree's daemon cancelled.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cache import (
    cell_address, cell_hash, config_from_payload, config_hash, config_to_payload,
    stats_to_payload,
)
from repro.core import presets
from repro.service import journal as journal_module
from repro.service import protocol
from repro.service.journal import JobJournal, JournalError
from repro.timing.stats import DeviceStats, Stats

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cell_codec.ndjson")

#: One single-SM cell, one device cell, and a third so the journalled
#: job stays unfinished (rotate keeps only live jobs).
SM_CELL = ("histogram", "tiny", "baseline", presets.baseline())
GPU_CELL = ("histogram", "tiny", "dev2", presets.device("baseline", sm_count=2))
THIRD_CELL = ("histogram", "tiny", "warp64", presets.warp64())
CELLS = [SM_CELL, GPU_CELL, THIRD_CELL]


def golden_lines(journal_path):
    """(submit line, journal bytes) from today's code."""
    message = protocol.submit_message(CELLS, verify=True)
    cells, verify = protocol.decode_submit(message)
    with JobJournal(journal_path) as journal:
        journal.record_job("j000001", verify, cells)
        journal.record_cell("j000001", 0, cells[0].hash, protocol.STATUS_OK)
        journal.record_cell(
            "j000001", 1, cells[1].hash, protocol.STATUS_FAILED,
            error="RuntimeError: boom",
        )
    with open(journal_path, "rb") as handle:
        return protocol.encode(message), handle.read()


def _golden():
    """(submit line, retired publish line, journal bytes, retired cancel
    record) as committed."""
    with open(GOLDEN, "rb") as handle:
        lines = handle.readlines()
    assert len(lines) == 6
    return lines[0], lines[1], b"".join(lines[2:5]), lines[5]


class TestGoldenFormats:
    def test_fresh_lines_match_the_parent_written_fixture(self, tmp_path):
        submit, _, journal, _ = _golden()
        assert golden_lines(str(tmp_path / "j.ndjson")) == (submit, journal)

    def test_parent_written_messages_decode(self):
        submit = _golden()[0]
        cells, verify = protocol.decode_submit(protocol.decode(submit))
        assert verify is True
        assert [(c.id, c.workload, c.size, c.config_name, c.config) for c in cells] == [
            (i,) + cell for i, cell in enumerate(CELLS)
        ]

    def test_parent_written_submit_re_encodes_to_its_bytes(self):
        """Decoded through the shared config table and written again,
        cell by cell: the same line."""
        submit = _golden()[0]
        cells, verify = protocol.decode_submit(protocol.decode(submit))
        again = protocol.submit_message(
            [(c.workload, c.size, c.config_name, c.config) for c in cells],
            verify, digests=[c.hash for c in cells],
        )
        assert protocol.encode(again) == submit

    def test_parent_written_publish_is_refused(self):
        publish = _golden()[1]
        assert b'"type": "publish"' in publish and b'"stats"' in publish
        with pytest.raises(protocol.ProtocolError, match="publish") as excinfo:
            protocol.decode(publish)
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_parent_written_journal_replays_and_survives_rotate(self, tmp_path):
        path = str(tmp_path / "journal.ndjson")
        golden_journal = _golden()[2]
        with open(path, "wb") as handle:
            handle.write(golden_journal)
        (job,) = JobJournal.replay_path(path)
        assert job.job_id == "j000001" and job.verify
        assert [c.config for c in job.cells] == [cell[3] for cell in CELLS]
        assert job.resolved == {
            0: (protocol.STATUS_OK, None),
            1: (protocol.STATUS_FAILED, "RuntimeError: boom"),
        }
        assert not job.finished
        with JobJournal(path) as journal:
            journal.rotate([job])
        with open(path, "rb") as handle:
            assert handle.read() == golden_journal

    def test_parent_written_cancel_record_fails_replay(self, tmp_path):
        """A journal an older daemon left with a cancelled job in it is
        refused whole, naming the record, not resumed without it."""
        path = str(tmp_path / "journal.ndjson")
        _, _, journal, cancel = _golden()
        assert b'"type": "cancel"' in cancel
        with open(path, "wb") as handle:
            handle.write(journal + cancel)
        with pytest.raises(JournalError, match="unknown record type 'cancel'"):
            JobJournal.replay_path(path)

    @pytest.mark.parametrize("second_id, reason", [
        (0, "job j000001 cell 1 repeats id 0"),
        (True, "job j000001 cell 1 is malformed: id True is not an integer"),
        (7.9, "job j000001 cell 1 is malformed: id 7.9 is not an integer"),
    ])
    def test_a_job_record_with_bad_cell_ids_fails_replay(
        self, tmp_path, second_id, reason
    ):
        """Two cells 0 would replay as a job that can never finish, and
        every ``--resume`` would resurrect it."""
        path = str(tmp_path / "journal.ndjson")
        record = json.loads(_golden()[2].splitlines()[0])
        record["cells"][1]["id"] = second_id
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalError) as excinfo:
            JobJournal.replay_path(path)
        assert str(excinfo.value) == reason


# ----------------------------------------------------------------------
# The writer: one config text per configuration, spliced, same bytes
# ----------------------------------------------------------------------

#: Names a writer must escape exactly as ``json.dumps`` does.
AWKWARD = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"]
NAMES = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=8)
CONFIGS = st.sampled_from([
    presets.baseline(), presets.sbi_swi(), presets.warp64(),
    presets.device("baseline", sm_count=2), presets.device("sbi_swi", sm_count=4),
])
ROWS = st.lists(st.tuples(NAMES, NAMES, NAMES, CONFIGS), min_size=0, max_size=6)
DIGESTS = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)


def dict_cells(rows, digests):
    """The cells as the tree before the writer built them: a dict per
    cell around the configuration's payload."""
    if digests is None:
        digests = [cell_hash(w, z, c) for w, z, _, c in rows]
    return [
        {"workload": w, "size": z, "config": config_to_payload(c),
         "hash": d, "id": i, "config_name": n}
        for i, ((w, z, n, c), d) in enumerate(zip(rows, digests))
    ]


class TestOneWriter:
    @settings(max_examples=200, deadline=None)
    @given(rows=ROWS, verify=st.booleans(), given_digests=st.booleans(), data=st.data())
    def test_submit_line_is_the_dict_writers_bytes(self, rows, verify, given_digests, data):
        digests = None
        if given_digests:
            digests = data.draw(st.lists(DIGESTS, min_size=len(rows), max_size=len(rows)))
        reference = (json.dumps(
            protocol.envelope(protocol.MSG_SUBMIT, cells=dict_cells(rows, digests), verify=verify),
            sort_keys=True,
        ) + "\n").encode("utf-8")
        line = protocol.submit_line(rows, verify, digests)
        assert line == reference
        assert protocol.encode(protocol.submit_message(rows, verify, digests)) == line

    @settings(max_examples=100, deadline=None)
    @given(rows=ROWS.filter(bool), job_id=NAMES, verify=st.booleans())
    def test_a_journal_job_record_is_the_dict_writers_bytes(self, rows, job_id, verify):
        cells = [
            protocol.SubmittedCell(i, w, z, n, c, cell_hash(w, z, c))
            for i, (w, z, n, c) in enumerate(rows)
        ]
        record = {
            "j": journal_module.JOURNAL_VERSION, "type": journal_module.REC_JOB,
            "job": job_id, "verify": verify, "cells": dict_cells(rows, None),
        }
        assert journal_module._job_record(job_id, verify, cells) == (
            json.dumps(record, sort_keys=True) + "\n"
        )

    def test_a_journalled_job_is_its_submit_lines_cells(self, tmp_path):
        line = protocol.submit_line(CELLS, verify=True)
        cells, _ = protocol.decode_submit(protocol.decode(line))
        path = str(tmp_path / "j.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j000001", True, cells)
        with open(path, "rb") as handle:
            record = handle.read()
        assert record.rsplit(b', "j": ', 1)[0] == line.rsplit(b', "type": ', 1)[0]


# ----------------------------------------------------------------------
# The answered ack: stats texts spliced, the dict writer's bytes
# ----------------------------------------------------------------------

COUNTS = st.one_of(st.integers(min_value=0, max_value=2**64), st.integers())
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sm_stats(draw):
    return Stats(
        cycles=draw(COUNTS), thread_instructions=draw(COUNTS),
        instructions_issued=draw(COUNTS), dram_bytes=draw(FLOATS),
        per_op_class=draw(st.dictionaries(NAMES, COUNTS, max_size=4)),
    )


STATS_PAYLOADS = st.one_of(
    sm_stats(),
    st.builds(
        DeviceStats, cycles=COUNTS, dram_bytes=FLOATS, l2_accesses=COUNTS,
        sm_stats=st.lists(sm_stats(), max_size=3),
    ),
).map(stats_to_payload)
ANSWERED_CELLS = st.lists(
    st.tuples(st.integers(), DIGESTS | NAMES, st.none() | STATS_PAYLOADS),
    min_size=1, max_size=5, unique_by=lambda cell: cell[0],
)


class TestAnsweredAck:
    @settings(max_examples=200, deadline=None)
    @given(job_id=NAMES, cells=ANSWERED_CELLS)
    def test_the_spliced_ack_is_the_dict_writers_bytes(self, job_id, cells):
        """Whatever the stats hold — SM or device, huge counters, floats,
        any op classes — and whatever the ids, addresses and job id."""
        cells = sorted(cells, key=lambda cell: cell[0])
        as_dicts = []
        for cell_id, digest, stats in cells:
            cell = {"id": cell_id, "hash": digest, "status": protocol.STATUS_OK,
                    "source": protocol.SOURCE_STORE}
            if stats is not None:
                cell["stats"] = stats
            as_dicts.append(cell)
        reference = protocol.encode(protocol.envelope(
            protocol.MSG_ACK, job=job_id, state=protocol.JOB_DONE, total=len(cells),
            triage={"store": len(cells), "coalesced": 0, "queued": 0}, cells=as_dicts,
        ))
        texts = [
            (cell_id, digest, None if stats is None else json.dumps(stats, sort_keys=True))
            for cell_id, digest, stats in cells
        ]
        assert protocol.answered_ack_line(job_id, texts) == reference


# ----------------------------------------------------------------------
# The reader refuses a field of the wrong JSON type by name
# ----------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FIELDS = ("workload", "size", "config", "hash", "id", "config_name")


class TestCellFields:
    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
    def test_any_json_value_in_any_field_decodes_or_names_the_field(self, field, value):
        raw = protocol.submit_message([SM_CELL])["cells"][0]
        raw[field] = value
        # Where the value is well-formed, give the cell its true address:
        # then it must decode.
        workload, size, config = raw["workload"], raw["size"], SM_CELL[3]
        if field == "config" and isinstance(value, dict):
            try:
                config = config_from_payload(value)
            except (ValueError, TypeError):
                pass
        if field != "hash" and all(isinstance(x, str) for x in (workload, size)):
            raw["hash"] = cell_address(workload, size, config_hash(config))
        try:
            cell = protocol.cell_from_wire(raw)
        except ValueError as exc:
            assert field in str(exc)
        else:
            assert field == "config" or getattr(cell, field) == value

    @pytest.mark.parametrize("field, value", [
        ("workload", 5), ("size", None), ("hash", 7), ("config_name", {"a": 1}),
    ])
    def test_a_non_string_is_refused_on_the_wire_and_in_the_journal(
        self, tmp_path, field, value
    ):
        message = protocol.submit_message([SM_CELL, GPU_CELL])
        message["cells"][1][field] = value
        reason = "cell 1 is malformed: %s %r is not a string" % (field, value)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode_submit(protocol.decode(protocol.encode(message)))
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert str(excinfo.value) == "submit " + reason
        path = str(tmp_path / "journal.ndjson")
        record = json.loads(_golden()[2].splitlines()[0])
        record["cells"][1][field] = value
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalError) as excinfo:
            JobJournal.replay_path(path)
        assert str(excinfo.value) == "job j000001 " + reason
