"""Which cycles are stepped is architectural: replay them.

``GPUDevice.run``, the one run loop (``simulate`` is a one-SM device),
skips idle spans: a step that neither issued nor fetched jumps the
clock to ``next_event_cycle``.  That reads like a host-side shortcut,
but ``FetchEngine._rr`` — the fetch round-robin pointer — advances
once per *stepped* cycle, dead steps included, so the set of cycles at
which ``StreamingMultiprocessor.step`` runs decides which warp the
next contended fetch serves first, and through it every later cycle.

The experiment that showed it (PR 20, on cd31422): answering
``next_event_cycle`` from the timer heap alone — stepping *fewer* dead
cycles, every real event still reached on time — moved eigenvalues /
sbi @``smoke`` from 33 574 to 33 533 simulated cycles.  Dead cycles may
be made cheaper; they may not be made fewer (or more) without a
modelling decision.

``tests/data/golden_steps.json`` was written by the tree before PR 20
touched the engine (``python tests/test_stepped_cycles.py --write``
with ``PYTHONPATH`` on that tree's ``src``): per cell, the number of
steps, a sha256 over them and the stepped cycles themselves as
``[first cycle, run length]`` spans per SM, so a mismatch names the
first cycle that differs instead of surfacing as a golden diff three
layers up.  A diff here means the engine steps other cycles, not that
the fixture needs regenerating.
"""

import hashlib
import json
import os
import sys
from unittest import mock

import pytest

from repro.core import presets
from repro.core.simulator import simulate, simulate_device
from repro.core.sm import StreamingMultiprocessor
from repro.workloads import get_workload

GOLDEN_STEPS = os.path.join(os.path.dirname(__file__), "data", "golden_steps.json")

MODES = ("baseline", "sbi", "swi", "sbi_swi")

#: cell name -> (workload, size, mode, SMs); the gauge workloads of
#: ``tests/test_ready_set.py`` under the four modes, the cell of the
#: idle-skip experiment, and one multi-SM cell behind the shared L2.
CELLS = {
    "%s@tiny/%s" % (workload, mode): (workload, "tiny", mode, 1)
    for workload in ("transpose", "mandelbrot", "matrixmul")
    for mode in MODES
}
CELLS["eigenvalues@smoke/sbi"] = ("eigenvalues", "smoke", "sbi", 1)
CELLS["transpose@tiny/sbi_swi/4sm"] = ("transpose", "tiny", "sbi_swi", 4)


def stepped_cycles(workload, size, mode, sm_count):
    """``(steps, cycles)``: every ``(sm_id, cycle)`` at which
    ``StreamingMultiprocessor.step`` ran, in call order, and the run's
    simulated cycle count."""
    steps = []
    inner = StreamingMultiprocessor.step

    def step(self, now):
        steps.append((self.sm_id, now))
        return inner(self, now)

    inst = get_workload(workload, size)
    with mock.patch.object(StreamingMultiprocessor, "step", step):
        if sm_count == 1:
            stats = simulate(inst.kernel, inst.memory, presets.by_name(mode))
        else:
            stats = simulate_device(
                inst.kernel, inst.memory, presets.device(mode, sm_count=sm_count)
            )
    return steps, stats.cycles


def spans_of(steps):
    """Per SM (keyed by its id as a string, as JSON will have it), the
    stepped cycles as ``[first cycle, run length]`` spans."""
    per_sm = {}
    for sm_id, cycle in steps:
        spans = per_sm.setdefault(str(sm_id), [])
        if spans and spans[-1][0] + spans[-1][1] == cycle:
            spans[-1][1] += 1
        else:
            spans.append([cycle, 1])
    return per_sm


def record(name):
    steps, cycles = stepped_cycles(*CELLS[name])
    text = "".join("%d:%d\n" % step for step in steps)
    return {
        "cycles": cycles,
        "steps": len(steps),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "spans": spans_of(steps),
    }


def first_difference(got, want):
    """Name the first stepped cycle two span tables disagree on."""
    for sm_id in sorted(set(got) | set(want), key=int):
        ours = [c for start, n in got.get(sm_id, ()) for c in range(start, start + n)]
        theirs = [c for start, n in want.get(sm_id, ()) for c in range(start, start + n)]
        for index, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                return "SM %s: step %d ran at cycle %d, golden at cycle %d" % (
                    sm_id, index, a, b
                )
        if len(ours) != len(theirs):
            longer, who = (ours, "this tree") if len(ours) > len(theirs) else (theirs, "golden")
            return "SM %s: after %d equal steps only %s goes on, at cycle %d" % (
                sm_id, min(len(ours), len(theirs)), who, longer[min(len(ours), len(theirs))]
            )
    return None


def _golden():
    with open(GOLDEN_STEPS) as f:
        return json.load(f)


class TestSteppedCycles:
    def test_golden_covers_the_cells(self):
        assert sorted(_golden()) == sorted(CELLS)

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_steps_the_cycles_the_parent_stepped(self, name):
        """The idle skip is architectural through ``FetchEngine._rr``:
        answering ``next_event_cycle`` from the timer heap alone moved
        eigenvalues / sbi @``smoke`` from 33 574 to 33 533 cycles (see
        the module docstring), so an engine change must step exactly
        the cycles its parent stepped — on every SM, dead ones too."""
        want = _golden()[name]
        got = record(name)
        difference = first_difference(got["spans"], want["spans"])
        assert difference is None, "%s: %s" % (name, difference)
        # Same per-SM cycles: what is left is the interleaving of SMs
        # within a device cycle, and the run's length.
        assert (got["steps"], got["sha256"], got["cycles"]) == (
            want["steps"], want["sha256"], want["cycles"]
        )

    def test_a_skipped_dead_cycle_is_named(self):
        """What makes the test above a test: drop one dead step from a
        recorded run and the first difference names its cycle."""
        want = _golden()["eigenvalues@smoke/sbi"]["spans"]
        got = json.loads(json.dumps(want))
        spans = got["0"]
        victim = next(i for i, (_, n) in enumerate(spans) if n == 1 and i > 10)
        cycle = spans.pop(victim)[0]
        message = first_difference(got, want)
        assert message is not None and "golden at cycle %d" % cycle in message
        assert first_difference(want, want) is None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_stepped_cycles.py --write  (on the parent tree)")
    cells = {name: record(name) for name in sorted(CELLS)}
    with open(GOLDEN_STEPS, "w") as f:
        f.write(json.dumps(cells, sort_keys=True, separators=(",", ":")) + "\n")
    for name, cell in cells.items():
        print("%-32s %6d steps of %6d cycles" % (name, cell["steps"], cell["cycles"]))
