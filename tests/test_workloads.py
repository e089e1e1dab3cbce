"""Workload correctness: reference interpreter + timing + numpy models.

Every workload must (a) satisfy its independent numpy check under the
reference interpreter, and (b) produce identical outputs under the
baseline and SBI+SWI timing models.  A representative subset is also
run under the remaining configurations.
"""

import numpy as np
import pytest

from repro.core import presets
from repro.core.simulator import simulate
from repro.functional.interp import run_kernel
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.suite import IRREGULAR, MEAN_EXCLUDED, REGULAR, category_of


class TestRegistry:
    def test_suite_composition(self):
        assert len(REGULAR) == 10
        assert len(IRREGULAR) == 11
        assert set(MEAN_EXCLUDED) == {"tmd1", "tmd2"}

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_category(self):
        assert category_of("bfs") == "irregular"
        assert category_of("matrixmul") == "regular"
        with pytest.raises(KeyError):
            category_of("nope")

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_instances_are_rebuildable(self, name):
        inst = get_workload(name, "tiny")
        again = inst.fresh()
        assert again.kernel.name == inst.kernel.name
        assert again.memory is not inst.memory

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            get_workload("bfs", "enormous")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="bfs"):
            get_workload("nope")

    def test_unknown_size_lists_choices(self):
        with pytest.raises(ValueError, match="smoke"):
            get_workload("bfs", "enormous")

    def test_smoke_alias(self):
        from repro.workloads import normalize_size

        assert normalize_size("smoke") == "tiny"
        inst = get_workload("histogram", "smoke")
        assert inst.name == get_workload("histogram", "tiny").name

    def test_list_workloads_registry(self):
        from repro.workloads import list_workloads

        infos = list_workloads()
        assert [i.name for i in infos] == list(ALL_WORKLOADS)
        byname = {i.name: i for i in infos}
        assert byname["tmd1"].mean_excluded and byname["tmd1"].module.endswith(".tmd")
        assert byname["3dfd"].module.endswith(".threedfd")
        assert not byname["bfs"].mean_excluded
        assert byname["bfs"].sizes == ("tiny", "bench", "full")
        regular = list_workloads(category="regular")
        assert len(regular) == 10
        assert all(i.category == "regular" for i in regular)
        with pytest.raises(ValueError):
            list_workloads(category="medium")


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_reference_interpreter_matches_numpy(name):
    inst = get_workload(name, "tiny")
    run_kernel(inst.kernel, inst.memory)
    inst.numpy_check(inst.memory)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_baseline_timing_matches_numpy(name):
    inst = get_workload(name, "tiny")
    config = presets.baseline()
    stats = simulate(inst.kernel, inst.memory, config)
    inst.numpy_check(inst.memory)
    assert 0 < stats.ipc <= config.peak_ipc


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_sbi_swi_timing_matches_numpy(name):
    inst = get_workload(name, "tiny")
    config = presets.sbi_swi()
    stats = simulate(inst.kernel, inst.memory, config)
    inst.numpy_check(inst.memory)
    assert 0 < stats.ipc <= config.peak_ipc


@pytest.mark.parametrize("name", ["mandelbrot", "bfs", "tmd2", "matrixmul"])
@pytest.mark.parametrize("config", ["warp64", "sbi", "swi"])
def test_remaining_modes_subset(name, config):
    inst = get_workload(name, "tiny")
    stats = simulate(inst.kernel, inst.memory, presets.by_name(config))
    inst.numpy_check(inst.memory)
    assert stats.cycles > 0


class TestWorkloadProperties:
    def test_mandelbrot_diverges(self):
        inst = get_workload("mandelbrot", "tiny")
        stats = simulate(inst.kernel, inst.memory, presets.baseline())
        assert stats.divergent_branches > 0

    def test_tmd_variants_same_function(self):
        t1 = get_workload("tmd1", "tiny")
        t2 = get_workload("tmd2", "tiny")
        run_kernel(t1.kernel, t1.memory)
        run_kernel(t2.kernel, t2.memory)
        for (l1, a1, n1), (l2, a2, n2) in zip(t1.outputs, t2.outputs):
            np.testing.assert_array_equal(
                t1.memory.read_array(a1, n1), t2.memory.read_array(a2, n2)
            )

    def test_histogram_uses_atomics(self):
        inst = get_workload("histogram", "tiny")
        stats = simulate(inst.kernel, inst.memory, presets.baseline())
        assert stats.memory_replays > 0

    def test_matrixmul_uses_shared(self):
        inst = get_workload("matrixmul", "tiny")
        stats = simulate(inst.kernel, inst.memory, presets.baseline())
        assert stats.shared_transactions > 0

    def test_outputs_declared(self):
        for name in ALL_WORKLOADS:
            inst = get_workload(name, "tiny")
            assert inst.outputs, name
            for label, addr, count in inst.outputs:
                assert count > 0 and addr >= 0

    def test_reference_outputs_deterministic(self):
        inst = get_workload("blackscholes", "tiny")
        a = inst.reference_outputs()
        b = inst.fresh().reference_outputs()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
