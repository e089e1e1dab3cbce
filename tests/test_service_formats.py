"""The bytes the sweep service writes are pinned, not just round-tripped.

``tests/data/golden_cell_codec.ndjson`` was written by the PR 12 tree
(before the cell codec was unified) from exactly the calls in
:func:`golden_lines`: line 1 is an encoded ``submit`` envelope, line 2
an encoded ``publish`` envelope, the rest is a journal file.  A codec
change that moves one byte on the wire or in the journal — or that
stops replaying what an older daemon wrote — fails here.
"""

import os

from repro.core import presets
from repro.service import protocol
from repro.service.journal import JobJournal
from repro.timing.stats import DeviceStats, Stats

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cell_codec.ndjson")

#: One single-SM cell, one device cell, and a third so the journalled
#: job stays unfinished (rotate keeps only live jobs).
SM_CELL = ("histogram", "tiny", "baseline", presets.baseline())
GPU_CELL = ("histogram", "tiny", "dev2", presets.device("baseline", sm_count=2))
THIRD_CELL = ("histogram", "tiny", "warp64", presets.warp64())
CELLS = [SM_CELL, GPU_CELL, THIRD_CELL]

SM_STATS = Stats(cycles=7, thread_instructions=3, instructions_issued=2)
GPU_STATS = DeviceStats(
    cycles=11,
    sm_stats=[Stats(cycles=11, thread_instructions=5), Stats(cycles=9)],
    l2_accesses=4,
    l2_hits=1,
    l2_misses=3,
    dram_bytes=96.0,
)


def golden_lines(journal_path):
    """(submit line, publish line, journal bytes) from today's code."""
    message = protocol.submit_message(CELLS, verify=True)
    publish = protocol.publish_message(
        [
            (SM_CELL[0], SM_CELL[1], SM_CELL[3], SM_STATS),
            (GPU_CELL[0], GPU_CELL[1], GPU_CELL[3], GPU_STATS),
        ]
    )
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
        return protocol.encode(message), protocol.encode(publish), handle.read()


def _golden():
    with open(GOLDEN, "rb") as handle:
        lines = handle.readlines()
    return lines[0], lines[1], b"".join(lines[2:])


class TestGoldenFormats:
    def test_fresh_lines_match_the_parent_written_fixture(self, tmp_path):
        assert golden_lines(str(tmp_path / "j.ndjson")) == _golden()

    def test_parent_written_messages_decode(self):
        submit, publish, _ = _golden()
        cells, verify = protocol.decode_submit(protocol.decode(submit))
        assert verify is True
        assert [(c.id, c.workload, c.size, c.config_name, c.config) for c in cells] == [
            (i,) + cell for i, cell in enumerate(CELLS)
        ]
        published = protocol.decode_publish(protocol.decode(publish))
        assert [c.stats for c in published] == [SM_STATS, GPU_STATS]
        assert [c.hash for c in published] == [c.hash for c in cells[:2]]

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
