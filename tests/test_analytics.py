"""Streaming analytics: aggregators, bounded memory, engine wiring."""

import os
import subprocess
import sys

import pytest

from repro.analytics import (
    DEFAULT_BINS,
    BinnedSeries,
    HeatmapAggregator,
    OriginAggregator,
    TimelineAggregator,
    make_aggregators,
)
from repro.api import Engine, SweepSpec
from repro.core import presets
from repro.core.gpu import simulate_device
from repro.core.policy import OBSERVERS
from repro.core.policy.events import LEVEL_L1, ORIGIN_PRIMARY, ORIGIN_SBI
from repro.core.policy.observers import IssueEvent, MemEvent, RetireEvent
from repro.core.simulator import simulate
from repro.timing.stats import Stats
from repro.workloads import get_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _issue(cycle, sm_id=0, wid=0, origin=ORIGIN_PRIMARY, active=32):
    return IssueEvent(
        cycle=cycle, sm_id=sm_id, wid=wid, pc=0, origin=origin,
        mask=(1 << active) - 1, group="mad", active=active,
    )


def _run(agg, workload="bfs", size="tiny", mode="sbi_swi"):
    inst = get_workload(workload, size)
    stats = simulate(inst.kernel, inst.memory, presets.by_name(mode), observers=[agg])
    return agg, stats


class TestBinnedSeries:
    def test_rejects_odd_capacity(self):
        with pytest.raises(ValueError):
            BinnedSeries(7, ("a",))

    def test_rebinning_conserves_totals(self):
        series = BinnedSeries(4, ("hits",))
        for cycle in range(100):
            series.add(cycle, "hits")
        assert sum(series.series["hits"]) == 100
        assert series.width == 32  # doubled 1->2->4->8->16->32
        assert len(series.series["hits"]) == 4

    def test_add_span_crosses_bins(self):
        series = BinnedSeries(4, ("live",))
        series.add_span(1, 7, "live", 2)  # cycles 1..6 at weight 2
        # width stays 1 until a cycle >= 4 is touched; span end 7
        # forces one doubling to width 2: bins cover [0,2) [2,4) ...
        assert series.width == 2
        assert sum(series.series["live"]) == 12
        assert series.series["live"] == [2, 4, 4, 2]

    def test_late_series_joins_aligned(self):
        series = BinnedSeries(4, ("a",))
        series.add(40, "a")  # grows width to 16
        arr = series.ensure_series("b")
        series.add(40, "b")
        assert arr[40 // series.width] == 1


class TestTimeline:
    def test_registered(self):
        assert "timeline" in OBSERVERS
        assert "heatmap" in OBSERVERS
        assert "origins" in OBSERVERS

    def test_matches_stats_accounting(self):
        agg, stats = _run(TimelineAggregator(bins=16))
        snap = agg.snapshot()
        assert snap["kind"] == "timeline"
        assert snap["total_cycles"] == stats.cycles
        assert sum(snap["series"]["issues"]) == stats.instructions_issued
        assert sum(snap["series"]["retires"]) > 0
        # Active warp-cycles can't exceed live warp-cycles anywhere.
        for active, stalled in zip(
            snap["series"]["active_warp_cycles"],
            snap["series"]["stalled_warp_cycles"],
        ):
            assert active >= 0 and stalled >= 0

    def test_render_mentions_bins(self):
        agg, _ = _run(TimelineAggregator(bins=8))
        text = agg.render()
        assert "timeline" in text and "stalled" in text

    def test_state_size_independent_of_cycle_count(self):
        """The acceptance bound: O(bins + warps), never O(cycles)."""

        def state_size(agg):
            cells = sum(len(arr) for arr in agg.series.series.values())
            return cells + len(agg._live) + len(agg._issuers)

        sizes = []
        for scale in (1_000, 100_000):
            agg = TimelineAggregator(bins=16)
            for wid in range(4):
                agg.on_issue(_issue(0, wid=wid))
            step = scale // 100
            for cycle in range(step, scale, step):
                agg.on_issue(_issue(cycle, wid=cycle % 4))
                agg.on_l1_miss(MemEvent(cycle, 0, LEVEL_L1, 1))
            for wid in range(4):
                agg.on_retire(RetireEvent(scale, 0, wid, 0))
            agg.finalize(Stats(cycles=scale + 1))
            sizes.append(state_size(agg))
        assert sizes[0] == sizes[1]

    def test_gap_integrates_stalled_cycles(self):
        agg = TimelineAggregator(bins=4)
        agg.on_issue(_issue(0))          # warp goes live at cycle 0
        agg.on_issue(_issue(100))        # 99 event-free cycles between
        agg.on_retire(RetireEvent(101, 0, 0, 0))
        agg.finalize(Stats(cycles=102))
        snap = agg.snapshot()
        live = sum(snap["series"]["active_warp_cycles"]) + sum(
            snap["series"]["stalled_warp_cycles"]
        )
        assert live == 102  # cycles 0..101 inclusive, one live warp
        assert sum(snap["series"]["active_warp_cycles"]) == 2

    def test_finalize_idempotent(self):
        agg = TimelineAggregator(bins=4)
        agg.on_issue(_issue(0))
        agg.finalize(Stats(cycles=10))
        first = agg.snapshot()
        agg.finalize(Stats(cycles=10))
        assert agg.snapshot() == first


class TestHeatmap:
    def test_multi_sm_grid(self):
        agg = HeatmapAggregator(bins=8)
        inst = get_workload("transpose", "tiny")
        config = presets.device("sbi_swi", sm_count=4)
        stats = simulate_device(inst.kernel, inst.memory, config, observers=[agg])
        agg.finalize(stats)
        snap = agg.snapshot()
        assert snap["sms"] == [0, 1, 2, 3]
        assert len(snap["ipc"]) == 4 and len(snap["occupancy"]) == 4
        total = sum(sum(row) for row in snap["issues"])
        assert total == sum(s.instructions_issued for s in stats.sm_stats)
        for row in snap["occupancy"]:
            assert all(0.0 <= v <= 1.0 for v in row)
        assert "sm3" in agg.render()

    def test_single_sm_run_renders(self):
        agg, _ = _run(HeatmapAggregator(bins=8))
        assert "sm0" in agg.render()


class TestOrigins:
    def test_matches_stats_origin_counters(self):
        agg, stats = _run(OriginAggregator())
        assert agg.issues[ORIGIN_PRIMARY] == stats.issued_primary
        issued = dict(agg.issues)
        assert sum(issued.values()) == stats.instructions_issued
        snap = agg.snapshot()
        assert snap["kind"] == "origins"
        assert snap["per_sm"]["0"] == issued

    def test_peak_bounded_by_issue_width(self):
        agg, _ = _run(OriginAggregator(), mode="sbi_swi")
        config = presets.by_name("sbi_swi")
        peaks = agg.peak_per_cycle
        assert peaks and max(peaks.values()) <= config.issue_width

    def test_rejects_unknown_origin(self):
        agg = OriginAggregator()
        with pytest.raises(ValueError, match="vocabulary"):
            agg.on_issue(_issue(0, origin="bogus"))

    def test_per_cycle_peak_tracks_co_issue(self):
        agg = OriginAggregator()
        agg.on_issue(_issue(5, wid=0))
        agg.on_issue(_issue(5, wid=1, origin=ORIGIN_SBI))
        agg.on_issue(_issue(6, wid=0))
        agg.finalize(Stats(cycles=7))
        assert agg.peak_per_cycle == {0: 2}


class TestMakeAggregators:
    def test_every_observer_builds_at_its_defaults(self):
        aggs = make_aggregators(["timeline", "heatmap", "origins", "counter"])
        assert aggs["timeline"].series.bin_count == DEFAULT_BINS
        assert aggs["heatmap"].series.bin_count == DEFAULT_BINS
        assert isinstance(aggs["origins"], OriginAggregator)
        assert type(aggs["counter"]).__name__ == "EventCounter"

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="registered names"):
            make_aggregators(["nope"])

    def test_every_listed_observer_builds_with_only_analytics_imported(self):
        """A fresh interpreter that imports ``repro.analytics`` alone
        builds every observer ``repro policies`` lists: none of them
        is registered by importing ``repro.analysis``."""
        script = (
            "import sys\n"
            "from repro.analytics import make_aggregators\n"
            "names = ['counter', 'heatmap', 'issue_trace', 'origins', 'timeline']\n"
            "built = make_aggregators(names)\n"
            "assert 'repro.analysis' not in sys.modules\n"
            "print(' '.join(sorted(built)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["counter", "heatmap", "issue_trace", "origins", "timeline"]


class TestARunFinalizesItsObservers:
    """``simulate`` / ``simulate_device`` close their observers: what
    they hand back is what a bare run loop plus a finalize by hand
    gives, and what ``Engine(observers=...)`` records."""

    NAMES = ("timeline", "heatmap", "origins")

    @staticmethod
    def _snapshots(aggs):
        return {name: agg.snapshot() for name, agg in aggs.items()}

    @pytest.mark.parametrize("sm_count", [1, 2])
    def test_entry_points_agree_with_a_bare_run_finalized_by_hand(self, sm_count):
        from repro.core.gpu import GPUDevice
        from repro.timing.config import GPUConfig

        if sm_count == 1:
            config, run = presets.sbi_swi(), simulate
            device_config = GPUConfig(sm=config)
        else:
            config = device_config = presets.device("sbi_swi", sm_count=sm_count)
            run = simulate_device

        by_hand = make_aggregators(self.NAMES)
        inst = get_workload("histogram", "tiny")
        device = GPUDevice(inst.kernel, inst.memory, device_config, observers=by_hand.values())
        stats = device.run()
        if sm_count == 1:  # what ``simulate`` returns: the SM's stats
            (stats,) = stats.sm_stats
        unfinalized = self._snapshots(by_hand)
        for agg in by_hand.values():
            agg.finalize(stats)
        expected = self._snapshots(by_hand)
        assert expected != unfinalized  # the last bins were still open

        aggs = make_aggregators(self.NAMES)
        inst = get_workload("histogram", "tiny")
        stats = run(inst.kernel, inst.memory, config, observers=aggs.values())
        assert self._snapshots(aggs) == expected
        for agg in aggs.values():
            agg.finalize(stats)  # a caller that still does: nothing moves
        assert self._snapshots(aggs) == expected

        engine = Engine(memo={}, observers=list(self.NAMES))
        engine.run(SweepSpec(["histogram"], {"c": config}, size="tiny"))
        (recorded,) = engine.observations.values()
        assert self._snapshots(recorded) == expected


class TestEngineWiring:
    SPEC = SweepSpec(workloads=["bfs"], configs=["baseline", "sbi_swi"], sizes=["tiny"])

    def test_observations_recorded_per_cell(self, tmp_path):
        engine = Engine(
            cache_dir=str(tmp_path / "cache"), memo={}, observers=["origins"]
        )
        engine.run(self.SPEC)
        assert set(engine.observations) == {
            ("bfs", "tiny", "baseline"),
            ("bfs", "tiny", "sbi_swi"),
        }
        agg = engine.observations[("bfs", "tiny", "sbi_swi")]["origins"]
        assert isinstance(agg, OriginAggregator)
        assert sum(agg.issues.values()) > 0
        assert agg.total_cycles > 0  # finalize ran

    def test_observed_cells_bypass_the_cache(self, tmp_path):
        # Warm the cache, then re-run with observers: every cell must
        # simulate again (a cached Stats has no event stream).
        cache = str(tmp_path / "cache")
        Engine(cache_dir=cache, memo={}).run(self.SPEC)
        events = []
        engine = Engine(
            cache_dir=cache, memo={}, observers=["origins"], progress=events.append
        )
        engine.run(self.SPEC)
        assert events and all(not e.cached for e in events)
        assert len(engine.observations) == 2

    def test_observations_hold_the_last_run_alone(self):
        engine = Engine(memo={}, observers=["origins"])
        engine.run(self.SPEC)
        engine.run(SweepSpec(["histogram"], ["baseline"], sizes=["tiny"]))
        assert list(engine.observations) == [("histogram", "tiny", "baseline")]

    def test_aliased_names_share_one_simulation_and_its_observers(self):
        events = []
        engine = Engine(memo={}, observers=["origins"], progress=events.append)
        rs = engine.run(
            SweepSpec(["bfs"], {"a": presets.sbi(), "b": presets.sbi()}, sizes=["tiny"])
        )
        assert len(rs) == 2 and len(events) == 1  # one simulation
        assert list(engine.observations) == [("bfs", "tiny", "a"), ("bfs", "tiny", "b")]
        a, b = engine.observations.values()
        assert a is b

    def test_unknown_observer_rejected_eagerly(self):
        with pytest.raises(ValueError, match="observer"):
            Engine(observers=["nope"])

    def test_the_remote_backend_refuses_observers_by_name(self):
        with pytest.raises(ValueError, match="remote backend"):
            Engine(server="http://127.0.0.1:8421", observers=["origins"])


class TestObservedProcessBackend:
    """Observed cells run in the one cell function on pool workers too,
    and come back with snapshots equal to the inline run's."""

    NAMES = ["timeline", "heatmap", "origins"]
    SPEC = SweepSpec(
        workloads=["bfs", "histogram"],
        configs={
            "sbi_swi": presets.sbi_swi(),
            "dev2": presets.device("sbi_swi", sm_count=2),
        },
        sizes=["tiny"],
    )

    @staticmethod
    def _snapshots(engine):
        return {
            cell: {name: ob.snapshot() for name, ob in obs.items()}
            for cell, obs in engine.observations.items()
        }

    def test_jobs_pick_the_process_backend_with_observers(self):
        assert Engine(jobs=4, observers=["origins"]).backend == "process"

    def test_process_snapshots_equal_inline_and_bypass_cache_reads(self, tmp_path):
        cache = str(tmp_path / "cache")
        Engine(cache_dir=cache, memo={}).run(self.SPEC)  # warm both levels
        inline = Engine(cache_dir=cache, memo={}, observers=self.NAMES)
        inline_rs = inline.run(self.SPEC)
        events = []
        fanned = Engine(
            jobs=2, cache_dir=cache, memo={}, observers=self.NAMES,
            progress=events.append,
        )
        assert fanned.backend == "process"
        assert fanned.run(self.SPEC) == inline_rs
        assert len(events) == 4 and not any(e.cached for e in events)
        assert len(fanned.observations) == 4
        assert self._snapshots(fanned) == self._snapshots(inline)


#: A plugin policy whose scheduler issues past the front-end width it
#: declares: the baseline's two pools each issue every cycle, behind a
#: one-slot front end.
OVER_ISSUE_PLUGIN = """
from repro.core.policy import POLICIES, SCHEDULERS, PolicySpec, register_policy
from repro.core.schedulers import BaselineScheduler


@SCHEDULERS.register("over_issue")
class OverIssue(BaselineScheduler):
    issue_width = 1


register_policy(PolicySpec(
    name="over_issue", scheduler="over_issue", divergence="stack",
    preset=POLICIES.get("baseline").preset,
))
"""


class TestPeakIssueCheckOnEveryObservedCell:
    """An attached ``origins`` holds each cell to its policy's modeled
    front-end width in the one cell function, inline and in pool
    workers; a violation fails the cell like any other error."""

    @pytest.fixture
    def over_issue(self, tmp_path, monkeypatch):
        import importlib

        from repro.core.policy import POLICIES, SCHEDULERS

        (tmp_path / "over_issue_plugin.py").write_text(OVER_ISSUE_PLUGIN)
        monkeypatch.syspath_prepend(str(tmp_path))
        importlib.import_module("over_issue_plugin")
        try:
            yield SweepSpec(["histogram", "bfs"], ["over_issue"], sizes=["tiny"])
        finally:
            POLICIES.unregister("over_issue")
            SCHEDULERS.unregister("over_issue")
            sys.modules.pop("over_issue_plugin", None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_over_issuing_policy_fails_an_observed_sweep(self, over_issue, jobs):
        from repro.hwcost import PeakIssueViolation

        engine = Engine(
            jobs=jobs, memo={}, plugins=["over_issue_plugin"], observers=["origins"]
        )
        with pytest.raises(PeakIssueViolation, match="front-end width of 1"):
            engine.run(over_issue)
        collected = Engine(
            jobs=jobs, memo={}, plugins=["over_issue_plugin"],
            observers=["timeline", "origins"], errors="collect",
        ).run(over_issue)
        assert len(collected) == 0 and len(collected.errors) == 2
        assert all("issued 2 instructions in one cycle" in e.error for e in collected.errors)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_same_sweep_without_origins_succeeds(self, over_issue, jobs):
        engine = Engine(
            jobs=jobs, memo={}, plugins=["over_issue_plugin"], observers=["timeline"]
        )
        rs = engine.run(over_issue)
        assert len(rs) == 2 and not rs.errors
        assert len(engine.observations) == 2
