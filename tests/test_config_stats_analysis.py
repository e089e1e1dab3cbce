"""Presets (Table 2), Stats accounting, and the analysis helpers."""

from unittest import mock

import pytest

from repro.analysis import report as rpt
from repro.analysis.pipeline_trace import figure2_example, render_trace
from repro.core import presets
from repro.core.simulator import simulate
from repro.core.sm import StreamingMultiprocessor
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.timing.config import SMConfig
from repro.timing.stats import Stats


def _one_warp(threads, diverge=False):
    """(kernel, memory) of a one-CTA store kernel: ``mov, mul, st,
    exit``, behind an odd/even if/else when ``diverge``."""
    kb = KernelBuilder("onewarp")
    t, a, p = kb.regs("t", "a", "p")
    kb.mov(t, kb.tid)
    if diverge:
        kb.and_(p, t, 1)
        kb.bra("odd", cond=p)
        kb.add(t, t, 10)
        kb.bra("join")
        kb.label("odd")
        kb.add(t, t, 20)
        kb.label("join")
    kb.mul(a, kb.tid, 4)
    kb.st(kb.param(0), t, index=a)
    kb.exit_()
    memory = MemoryImage()
    out = memory.alloc(threads * 4)
    return kb.build(cta_size=threads, grid_size=1, params=(out,)), memory


class TestPresets:
    """Table 2 and the peak IPC are held by ``tests/test_figures.py``;
    these are the presets' fields beside them."""

    def test_scoreboard_kinds(self):
        assert presets.baseline().scoreboard_kind == "warp"
        assert presets.sbi().scoreboard_kind == "matrix"

    def test_swi_lane_shuffle_and_lookup(self):
        c = presets.swi()
        assert c.lane_shuffle == "xor_rev"
        assert c.swi_ways is None

    def test_sbi_swi_combination(self):
        c = presets.sbi_swi()
        assert c.uses_sbi
        assert c.mad_group_count == 1

    def test_baseline_two_mad_groups(self):
        assert presets.baseline().mad_group_count == 2

    def test_by_name_and_overrides(self):
        c = presets.by_name("swi", swi_ways=3)
        assert c.swi_ways == 3
        with pytest.raises(ValueError):
            presets.by_name("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            SMConfig(mode="bogus")
        with pytest.raises(ValueError):
            SMConfig(warp_width=48)
        with pytest.raises(ValueError):
            SMConfig(lane_shuffle="bogus")
        with pytest.raises(ValueError):
            SMConfig(swi_ways=0)

    def test_replace_revalidates(self):
        c = presets.baseline()
        with pytest.raises(ValueError):
            c.replace(warp_width=13)

    def test_describe(self):
        assert "baseline" in presets.baseline().describe()


class TestStats:
    def test_ipc(self):
        s = Stats()
        s.cycles = 10
        s.thread_instructions = 320
        assert s.ipc == 32.0

    def test_zero_cycles(self):
        assert Stats().ipc == 0.0
        assert Stats().l1_hit_rate == 0.0
        assert Stats().avg_active_threads == 0.0

    def test_issue_origins(self):
        """Issue accounting on the path production runs (``SM.issue``):
        one partial warp, so every count is known in closed form."""
        stats = simulate(*_one_warp(threads=24), presets.baseline())
        assert stats.instructions_issued == 4
        assert stats.thread_instructions == 4 * 24
        assert (
            stats.issued_primary,
            stats.issued_sbi_secondary,
            stats.issued_swi_secondary,
        ) == (4, 0, 0)
        assert stats.per_op_class == {"mad": 48, "lsu": 24, "ctrl": 24}
        # One diverged 64-wide warp on SBI: its CPC2 co-issues, and
        # every issue is booked under exactly one origin.
        stats = simulate(*_one_warp(threads=64, diverge=True), presets.sbi())
        assert stats.issued_sbi_secondary > 0 and stats.issued_swi_secondary == 0
        assert (
            stats.issued_primary + stats.issued_sbi_secondary
            == stats.instructions_issued
        )
        assert sum(stats.per_op_class.values()) == stats.thread_instructions

    def test_bad_origin(self):
        inner = StreamingMultiprocessor.issue

        def mislabelled(self, warp, slot, split, entry, now, origin, group):
            return inner(self, warp, slot, split, entry, now, "bogus", group)

        with mock.patch.object(StreamingMultiprocessor, "issue", mislabelled):
            with pytest.raises(ValueError, match="bogus"):
                simulate(*_one_warp(threads=24), presets.baseline())

    def test_summary_renders(self):
        s = Stats()
        s.cycles = 100
        s.instructions_issued = 1
        s.thread_instructions = 32
        text = s.summary()
        assert "IPC" in text and "cycles" in text


class TestReportHelpers:
    def test_gmean(self):
        assert rpt.gmean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            rpt.gmean([1.0, -1.0])

    def test_empty_means_raise(self):
        # A workload set filtered to nothing must not come back as a
        # silent 0.0 that poisons speedup tables.
        with pytest.raises(ValueError, match="empty"):
            rpt.gmean([])
        with pytest.raises(ValueError, match="empty"):
            rpt.gmean(iter(()))

    def test_format_table(self):
        text = rpt.format_table(["a", "b"], [[1, 2.5], ["x", None]], title="T")
        assert "T" in text and "2.50" in text and "-" in text


class TestPipelineTrace:
    def test_render_empty(self):
        assert render_trace([], 4) == "(no issues)"

    @pytest.mark.parametrize("mode", ["baseline", "sbi", "swi", "sbi_swi", "sbi_nc"])
    def test_figure2_modes_run(self, mode):
        stats, art = figure2_example(mode)
        assert stats.thread_instructions > 0
        assert "cycle" in art

    def test_figure2_sbi_co_issues(self):
        stats, _ = figure2_example("sbi")
        assert stats.issued_sbi_secondary > 0

    def test_figure2_results_equal_across_modes(self):
        counts = set()
        for mode in ("baseline", "sbi", "swi", "sbi_swi"):
            stats, _ = figure2_example(mode)
            counts.add(stats.thread_instructions)
        assert len(counts) == 1
