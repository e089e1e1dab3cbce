"""The bytes the sweep service writes are pinned, not just round-tripped.

``tests/data/golden_cell_codec.ndjson`` was written by the PR 12 tree
(before the cell codec was unified): line 1 is an encoded ``submit``
envelope and everything from line 3 on a journal file, both from
exactly the calls in :func:`golden_lines`.  A codec change that moves
one byte on the wire or in the journal — or that stops replaying what
an older daemon wrote — fails here.  Line 2 is the ``publish`` envelope
(two results uploaded to the store) that tree's degraded client sent;
the message type is retired, and what is pinned is that a peer still
sending it is refused.
"""

import json
import os

import pytest

from repro.core import presets
from repro.service import protocol
from repro.service.journal import JobJournal, JournalError

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
        journal.record_cancel("j000001")
    with open(journal_path, "rb") as handle:
        return protocol.encode(message), handle.read()


def _golden():
    """(submit line, retired publish line, journal bytes) as committed."""
    with open(GOLDEN, "rb") as handle:
        lines = handle.readlines()
    return lines[0], lines[1], b"".join(lines[2:])


class TestGoldenFormats:
    def test_fresh_lines_match_the_parent_written_fixture(self, tmp_path):
        submit, _, journal = _golden()
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
        assert job.job_id == "j000001" and job.verify and job.cancelled
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
