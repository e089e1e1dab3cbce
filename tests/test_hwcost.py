"""Hardware cost models vs the paper's Tables 3 and 4."""

import pytest

from repro.hwcost.area import (
    AREA_PAPER,
    OVERHEAD_PAPER,
    SM_AREA_UM2,
    area_table,
    overhead_percent,
)
from repro.hwcost.storage import (
    CONFIGS,
    STORAGE_PAPER,
    ComponentStorage,
    components,
    storage_table,
)


class TestStorageGeometry:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_every_component_present(self, config):
        names = {c.component for c in components(config)}
        assert names == {"Scoreboard", "Warp pool/HCT", "Stack/CCT", "Insn. buffer"}

    @pytest.mark.parametrize("component", sorted(STORAGE_PAPER))
    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_paper_table3(self, component, config):
        table = storage_table()
        derived = table[component][config].geometry().split(",")[0].replace(" ", "")
        paper = STORAGE_PAPER[component][config].split(",")[0].replace(" ", "")
        assert derived == paper

    def test_geometry_string(self):
        c = ComponentStorage("X", 2, 24, 48)
        assert c.geometry() == "2x 24x 48-bit"
        assert c.total_bits == 2 * 24 * 48

    def test_sbi_scoreboard_tracks_divergence_state(self):
        table = storage_table()
        assert (
            table["Scoreboard"]["sbi"].total_bits
            > table["Scoreboard"]["baseline"].total_bits // 2 * 1
        )

    def test_cct_replaces_larger_stack(self):
        table = storage_table()
        stack_bits = table["Stack/CCT"]["baseline"].total_bits
        cct_bits = table["Stack/CCT"]["sbi"].total_bits
        assert cct_bits < stack_bits  # the heap is cheaper than the stacks

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            components("bogus")


class TestAreaModel:
    def test_components_close_to_paper(self):
        table = area_table()
        for component, row in AREA_PAPER.items():
            for config, paper in row.items():
                model = table[component][config]
                if paper is None:
                    assert model is None
                else:
                    assert model == pytest.approx(paper, rel=0.05), (component, config)

    def test_overheads_match_paper(self):
        for config, paper in OVERHEAD_PAPER.items():
            assert overhead_percent(config) == pytest.approx(paper, abs=0.25)

    def test_baseline_has_no_overhead(self):
        assert overhead_percent("baseline") == 0.0
        assert area_table()["Overhead"]["baseline"] is None

    def test_totals_are_sums(self):
        table = area_table()
        for config in CONFIGS:
            total = sum(
                v
                for name, row in table.items()
                if name not in ("Total", "Overhead")
                and (v := row.get(config)) is not None
            )
            assert table["Total"][config] == pytest.approx(total)

    def test_overhead_under_four_percent(self):
        # The paper's headline: all variants cost under 4% of SM area.
        for config in ("sbi", "swi", "sbi_swi"):
            assert overhead_percent(config) < 4.0

    def test_sm_area_reference(self):
        assert SM_AREA_UM2 == pytest.approx(15.6e6)


class TestPeakIssueValidation:
    """Observed peak issue rate vs the modeled front-end width."""

    def _snapshot(self, peaks):
        return {"kind": "origins", "peak_issues_per_cycle": peaks}

    def test_within_width_passes(self):
        from repro.core import presets
        from repro.hwcost import validate_peak_issue

        config = presets.by_name("sbi_swi")  # dual-issue front end
        peaks = validate_peak_issue(config, self._snapshot({"0": 2, "1": 1}))
        assert peaks == {"0": 2, "1": 1}

    def test_seeded_over_issue_fails_loudly(self):
        from repro.core import presets
        from repro.hwcost import PeakIssueViolation, validate_peak_issue

        config = presets.by_name("warp64")  # single-issue front end
        with pytest.raises(PeakIssueViolation, match="front-end width of 1"):
            validate_peak_issue(config, self._snapshot({"0": 1, "1": 2}))

    def test_names_the_worst_offender_not_the_first_in_string_order(self):
        from repro.core import presets
        from repro.hwcost import PeakIssueViolation, validate_peak_issue

        config = presets.by_name("warp64")  # single-issue front end
        with pytest.raises(PeakIssueViolation, match="SM 2 issued 3 instructions"):
            validate_peak_issue(config, self._snapshot({"2": 3, "10": 2}))

    def test_a_tie_names_one_sm_whatever_the_snapshot_order(self):
        from repro.core import presets
        from repro.hwcost import PeakIssueViolation, validate_peak_issue

        config = presets.by_name("warp64")  # single-issue front end
        messages = set()
        for peaks in ({"3": 2, "10": 2}, {"10": 2, "3": 2}):
            with pytest.raises(PeakIssueViolation) as excinfo:
                validate_peak_issue(config, self._snapshot(peaks))
            messages.add(str(excinfo.value))
        (message,) = messages
        assert message.startswith("SM 10 issued 2 instructions")  # first sorted id

    def test_device_config_checks_its_sm_policy(self):
        from repro.core import presets
        from repro.hwcost import PeakIssueViolation, front_end_width, validate_peak_issue

        device = presets.device("warp64", sm_count=2)
        assert front_end_width(device) == 1
        with pytest.raises(PeakIssueViolation):
            validate_peak_issue(device, self._snapshot({"1": 3}))

    def test_real_run_is_clean(self):
        from repro.analytics import OriginAggregator
        from repro.core import presets
        from repro.core.simulator import simulate
        from repro.hwcost import validate_peak_issue
        from repro.workloads import get_workload

        agg = OriginAggregator()
        inst = get_workload("bfs", "tiny")
        config = presets.by_name("sbi_swi")
        stats = simulate(inst.kernel, inst.memory, config, observers=[agg])
        agg.finalize(stats)
        assert validate_peak_issue(config, agg.snapshot())

    def test_malformed_snapshot_rejected(self):
        from repro.core import presets
        from repro.hwcost import validate_peak_issue

        with pytest.raises(ValueError, match="peak_issues_per_cycle"):
            validate_peak_issue(presets.baseline(), {"kind": "origins"})
