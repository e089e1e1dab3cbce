"""The pluggable policy API: registries, aliasing, observers, goldens.

The heavyweight acceptance test here is :class:`TestGoldenEquivalence`:
every built-in mode, resolved through the registry, must reproduce the
pre-refactor simulator bit-for-bit (stats SHA) and key the disk cache
identically, over all 21 workloads at smoke size
(``tests/data/golden_smoke.json`` was captured from the simulator
before the policy registry existed).
"""

import functools
import hashlib
import json
import os

import pytest

import repro.core.schedulers  # noqa: F401  (registers the built-in schedulers)
from repro.api import SweepSpec
from repro.api.cache import cell_hash, config_from_payload, config_key
from repro.core import presets
from repro.core.policy import (
    DIVERGENCE,
    OBSERVERS,
    POLICIES,
    SCHEDULERS,
    DuplicateNameError,
    EventCounter,
    PolicyLookupError,
    PolicySpec,
    Registry,
    coerce_policy,
    register_policy,
)
from repro.core.simulator import simulate
from repro.timing.config import GPUConfig, SMConfig
from repro.workloads import ALL_WORKLOADS, get_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_smoke.json")


#: Everything that builds a config from a policy: ``SMConfig`` itself
#: (handed the spec), and by the spec's registered name the SM and
#: device presets, a sweep and the daemon's decoder.
CONFIG_BUILDERS = {
    "SMConfig": lambda spec: SMConfig(mode=spec),
    "presets": lambda spec: presets.by_name(spec.name),
    "device_preset": lambda spec: presets.device(spec.name),
    "SweepSpec": lambda spec: SweepSpec(workloads=["bfs"], configs=[spec.name], sizes="tiny"),
    "daemon_decoder": lambda spec: config_from_payload(
        {"type": "SMConfig", "fields": {"mode": spec.name}}
    ),
}


@pytest.fixture
def scratch_names():
    """Unregister any names a test registered, even on failure."""
    names = []
    yield names
    for registry, name in names:
        registry.unregister(name)


class TestRegistry:
    def test_duplicate_registration_rejected(self, scratch_names):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(DuplicateNameError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1
        reg.register("a", 2, replace=True)
        assert reg.get("a") == 2

    @pytest.mark.parametrize("form", ["call", "decorator"])
    @pytest.mark.parametrize(
        "registry", [POLICIES, SCHEDULERS, DIVERGENCE, OBSERVERS], ids=lambda r: r.kind
    )
    def test_a_taken_name_refuses_a_different_object(self, registry, form):
        """Each registry is write-once: a second object under a taken
        name, registered either way, raises and leaves the first in
        place."""
        name, taken = next(registry.items())
        register = (
            functools.partial(registry.register, name) if form == "call"
            else registry.register(name)
        )
        with pytest.raises(DuplicateNameError, match="already registered"):
            register(object())
        assert registry.get(name) is taken

    def test_register_policy_refuses_a_taken_name(self):
        taken = POLICIES.get("baseline")
        other = PolicySpec(name="baseline", scheduler="single_issue", divergence="frontier")
        try:
            with pytest.raises(DuplicateNameError, match="already registered"):
                register_policy(other)
        finally:
            if POLICIES.get("baseline") is not taken:  # leave no poisoned registry
                POLICIES.register("baseline", taken, replace=True)

    def test_same_object_reregistration_is_noop(self):
        reg = Registry("thing")
        obj = object()
        reg.register("a", obj)
        reg.register("a", obj)  # module reload pattern: no error
        assert reg.get("a") is obj

    def test_unknown_name_lists_registered(self):
        with pytest.raises(PolicyLookupError, match="baseline.*sbi_swi"):
            POLICIES.get("nope")
        with pytest.raises(PolicyLookupError, match="unknown scheduler"):
            SCHEDULERS.get("nope")

    def test_decorator_registration(self, scratch_names):
        @OBSERVERS.register("scratch_observer")
        class Scratch(EventCounter):
            pass

        scratch_names.append((OBSERVERS, "scratch_observer"))
        assert OBSERVERS.get("scratch_observer") is Scratch

    def test_builtin_catalogue(self):
        assert set(presets.FIGURE7_CONFIGS) <= set(POLICIES.names())
        for name in ("swi_greedy", "swi_rr", "dwr"):
            assert name in POLICIES
        for name in ("stack", "frontier", "sbi_heap", "dwr"):
            assert name in DIVERGENCE


class TestModeResolution:
    def test_modes_resolve_to_original_classes(self):
        from repro.core import schedulers as sched
        from repro.core.gpu import GPUDevice

        expected = {
            "baseline": sched.BaselineScheduler,
            "warp64": sched.Warp64Scheduler,
            "sbi": sched.SBIScheduler,
            "swi": sched.CascadedScheduler,
            "sbi_swi": sched.CascadedScheduler,
            "swi_greedy": sched.GreedyCascadedScheduler,
            "swi_rr": sched.LooseRoundRobinScheduler,
            "dwr": sched.CascadedScheduler,
        }
        for mode, klass in expected.items():
            inst = get_workload("histogram", "tiny")
            device = GPUDevice(
                inst.kernel, inst.memory, GPUConfig(sm=presets.by_name(mode))
            )
            assert type(device.sms[0].scheduler) is klass

    def test_divergence_models_resolve(self):
        from repro.core.warp import make_divergence_model
        from repro.timing.dwr import DWRModel
        from repro.timing.frontier import FrontierModel
        from repro.timing.hct import SBIModel
        from repro.timing.stack import StackModel

        perm = list(range(64))
        expected = {
            "baseline": StackModel,
            "warp64": FrontierModel,
            "sbi": SBIModel,
            "swi": FrontierModel,
            "sbi_swi": SBIModel,
            "dwr": DWRModel,
        }
        for mode, klass in expected.items():
            cfg = presets.by_name(mode)
            perm = list(range(cfg.warp_width))
            model = make_divergence_model(cfg, (1 << cfg.warp_width) - 1, perm)
            assert type(model) is klass

    def test_spec_alias_produces_identical_config_and_cache_keys(self):
        for mode in presets.FIGURE7_CONFIGS:
            spec = POLICIES.get(mode)
            by_string = presets.by_name(mode)
            by_spec = presets.by_name(mode).replace(mode=spec)
            assert by_spec.mode == mode  # normalised back to the string
            assert by_spec == by_string
            assert config_key(by_spec) == config_key(by_string)
            assert cell_hash("bfs", "tiny", by_spec) == cell_hash(
                "bfs", "tiny", by_string
            )

    def test_unregistered_spec_autoregisters(self, scratch_names):
        spec = PolicySpec(
            name="scratch_mode",
            scheduler="single_issue",
            divergence="frontier",
        )
        scratch_names.append((POLICIES, "scratch_mode"))
        cfg = SMConfig(mode=spec, warp_count=16, warp_width=64)
        assert cfg.mode == "scratch_mode"
        assert POLICIES.get("scratch_mode") == spec
        assert cfg.policy is POLICIES.get("scratch_mode")

    def test_conflicting_spec_name_rejected(self):
        clash = PolicySpec(name="baseline", scheduler="single_issue",
                           divergence="frontier")
        with pytest.raises(DuplicateNameError, match="different spec"):
            coerce_policy(clash)

    @pytest.mark.parametrize("field", ["scheduler", "divergence"])
    @pytest.mark.parametrize("via", sorted(CONFIG_BUILDERS))
    def test_a_config_refuses_an_unregistered_part(self, via, field, scratch_names):
        """Refused where the config is built, not per cell at
        simulation after it got a peak IPC and a cache key.  A spec
        handed to ``SMConfig`` is checked before it is registered; the
        other builders take the name of a registered one."""
        parts = {"scheduler": "cascaded", "divergence": "frontier", field: "nosuch"}
        spec = PolicySpec(name="scratch_nosuch", **parts)
        if via != "SMConfig":
            register_policy(spec)
            scratch_names.append((POLICIES, spec.name))
        with pytest.raises(PolicyLookupError) as refusal:
            CONFIG_BUILDERS[via](spec)
        message = str(refusal.value)
        assert "'scratch_nosuch'" in message and "%s='nosuch'" % field in message
        registry = SCHEDULERS if field == "scheduler" else DIVERGENCE
        assert all(name in message for name in registry.names())
        if via == "SMConfig":
            assert spec.name not in POLICIES

    def test_unknown_mode_string_raises_with_catalogue(self):
        with pytest.raises(PolicyLookupError, match="baseline"):
            SMConfig(mode="not_a_policy")

    def test_typoed_preset_field_rejected_at_registration(self):
        with pytest.raises(ValueError, match="warp_cnt"):
            PolicySpec(
                name="scratch_typo",
                scheduler="single_issue",
                divergence="frontier",
                preset=dict(warp_cnt=16),
            )
        with pytest.raises(ValueError, match="implied by the spec name"):
            PolicySpec(
                name="scratch_mode_key",
                scheduler="single_issue",
                divergence="frontier",
                preset=dict(mode="baseline"),
            )


class TestCapabilitiesComeFromTheClasses:
    """A policy is a scheduler, a divergence model and a preset: what
    the pipeline needs to know about the pair it reads off the two
    registered classes, so no spec can declare it wrong."""

    def test_spec_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(PolicySpec)] == [
            "name", "scheduler", "divergence", "description", "preset",
        ]

    @pytest.mark.parametrize("name", POLICIES.names())
    def test_three_fields_rebuild_the_builtin_machine(self, name, scratch_names):
        """At a46657d only ``baseline`` passed.  ``sbi_swi`` is README's
        ``divergence=... # or "sbi_heap"`` followed to the letter: the
        flagless spec got one fetch way, no CPC2 attempt (mandelbrot
        1 074 cycles for the built-in's 1 072, bfs 9 219 for 9 214) and
        a peak IPC of 128 for 104."""
        from repro.core.gpu import GPUDevice

        builtin = POLICIES.get(name)
        rebuilt = register_policy(
            PolicySpec(
                name="scratch_" + name,
                scheduler=builtin.scheduler,
                divergence=builtin.divergence,
                preset=builtin.preset,
            )
        )
        scratch_names.append((POLICIES, rebuilt.name))
        ours, theirs = presets.by_name(rebuilt.name), presets.by_name(name)
        for read in ("issue_width", "peak_ipc", "uses_sbi"):
            assert getattr(ours, read) == getattr(theirs, read), read
        for workload in ("mandelbrot", "bfs", "tmd2"):
            a, b = get_workload(workload, "tiny"), get_workload(workload, "tiny")
            dev_a = GPUDevice(a.kernel, a.memory, GPUConfig(sm=ours))
            dev_b = GPUDevice(b.kernel, b.memory, GPUConfig(sm=theirs))
            assert dev_a.sms[0].fetch.hot_capacity == dev_b.sms[0].fetch.hot_capacity
            assert dev_a.run().sm_stats[0].to_dict() == dev_b.run().sm_stats[0].to_dict(), workload

    @pytest.mark.parametrize(
        "flag",
        ["issue_width", "hot_capacity", "uses_sbi", "uses_swi", "two_pools",
         "unit_bound_peak"],
    )
    def test_a_declared_capability_is_a_type_error(self, flag):
        with pytest.raises(TypeError, match=flag):
            PolicySpec(name="scratch_flag", scheduler="cascaded",
                       divergence="frontier", **{flag: 1})

    def test_every_divergence_entry_is_a_model_class(self):
        from repro.timing.divergence import DivergenceModel

        for name, model in DIVERGENCE.items():
            assert issubclass(model, DivergenceModel), name


class TestCustomPolicyEndToEnd:
    def test_custom_scheduler_policy_runs(self, scratch_names):
        from repro.core.gpu import GPUDevice
        from repro.core.schedulers import CascadedScheduler
        from repro.functional.memory import MemoryImage
        from repro.isa.builder import KernelBuilder
        from repro.isa.instructions import CmpOp

        @SCHEDULERS.register("scratch_narrowest")
        class NarrowestFirst(CascadedScheduler):
            def _secondary_key(self, warp, split, entry):
                return (-split.active_threads, -entry.fetch_cycle)

        scratch_names.append((SCHEDULERS, "scratch_narrowest"))
        register_policy(
            PolicySpec(
                name="scratch_swi",
                scheduler="scratch_narrowest",
                divergence="frontier",
                preset=dict(
                    warp_count=16, warp_width=64, scheduler_latency=2,
                    delivery_latency=1, lane_shuffle="xor_rev",
                ),
            )
        )
        scratch_names.append((POLICIES, "scratch_swi"))
        config = presets.by_name("scratch_swi")
        # Inherited from CascadedScheduler, not declared on the spec.
        assert (config.issue_width, config.peak_ipc) == (2, presets.swi().peak_ipc)

        # Imbalanced per-thread trip counts: the SWI-favourite shape
        # (same kernel as test_schedulers uses for lane filling).
        kb = KernelBuilder("imb")
        t, p, v, c, a = kb.regs("t", "p", "v", "c", "a")
        kb.mov(t, kb.tid)
        kb.mad(t, kb.ctaid, kb.ntid, t)
        kb.and_(c, t, 7)
        kb.mov(v, 0.0)
        kb.label("loop")
        kb.mad(v, v, 3, 1)
        kb.sub(c, c, 1)
        kb.setp(p, CmpOp.GE, c, 0)
        kb.bra("loop", cond=p)
        kb.mul(a, t, 4)
        kb.st(kb.param(0), v, index=a)
        kb.exit_()
        mem = MemoryImage()
        out = mem.alloc(1024 * 4)
        kernel = kb.build(cta_size=256, grid_size=4, params=(out,))
        device = GPUDevice(kernel, mem, GPUConfig(sm=config))
        assert type(device.sms[0].scheduler) is NarrowestFirst
        stats = device.run().sm_stats[0]
        assert stats.ipc > 0
        assert stats.issued_swi_secondary > 0

    def test_custom_policy_sweepable(self, scratch_names):
        from repro.api import Engine, SweepSpec

        register_policy(
            PolicySpec(
                name="scratch_w64",
                scheduler="single_issue",
                divergence="frontier",
                preset=dict(warp_count=16, warp_width=64),
            )
        )
        scratch_names.append((POLICIES, "scratch_w64"))
        spec = SweepSpec(
            workloads=["histogram"], configs=["baseline"], sizes="tiny"
        ).with_policies(["scratch_w64", "warp64"])
        rs = Engine().run(spec)
        assert len(rs) == 2
        table = rs.ipc_table()["histogram"]
        # scratch_w64 is warp64's machine under a new name: same IPC.
        assert (
            table["baseline/policy=scratch_w64"] == table["baseline/policy=warp64"]
        )


class TestObserverEvents:
    def _run_counted(self, mode="sbi_swi"):
        counter = EventCounter()
        inst = get_workload("mandelbrot", "tiny")
        stats = simulate(
            inst.kernel, inst.memory, presets.by_name(mode), observers=[counter]
        )
        return stats, counter

    def test_event_counts_match_stats(self):
        stats, counter = self._run_counted()
        assert counter.counts["issue"] == stats.instructions_issued
        assert counter.counts["retire"] == stats.warps_retired
        assert counter.counts["split"] == stats.divergent_branches
        assert counter.counts.get("l1_miss", 0) == stats.l1_misses

    def test_event_ordering(self):
        stats, counter = self._run_counted()
        cycles = [cycle for _, cycle in counter.sequence]
        assert cycles == sorted(cycles)  # nondecreasing event time
        first_issue = next(
            i for i, (kind, _) in enumerate(counter.sequence) if kind == "issue"
        )
        first_retire = next(
            i for i, (kind, _) in enumerate(counter.sequence) if kind == "retire"
        )
        assert first_issue < first_retire  # a warp issues before retiring

    def test_observers_do_not_change_timing(self):
        inst = get_workload("mandelbrot", "tiny")
        plain = simulate(inst.kernel, inst.memory, presets.sbi_swi())
        observed, _ = self._run_counted()
        assert observed.to_dict() == plain.to_dict()

    def test_device_l2_miss_events(self):
        from repro.core.gpu import simulate_device

        counter = EventCounter()
        inst = get_workload("histogram", "tiny")
        dstats = simulate_device(
            inst.kernel,
            inst.memory,
            presets.device("baseline", sm_count=2),
            observers=[counter],
        )
        assert counter.counts.get("l2_miss", 0) == dstats.l2_misses

    def test_issue_trace_observer_matches_legacy_trace(self):
        """The registered ``issue_trace`` observer is the one issue
        trace: legacy ``(cycle, wid, pc, origin, mask, group)`` tuples,
        one per issued instruction, in issue order."""
        from repro.analysis.pipeline_trace import IssueTrace, trace_kernel

        assert OBSERVERS.get("issue_trace") is IssueTrace
        inst = get_workload("histogram", "tiny")
        config = presets.baseline()
        stats, events = trace_kernel(inst.kernel, inst.memory, config)
        assert len(events) == stats.instructions_issued
        assert [e[0] for e in events] == sorted(e[0] for e in events)
        for cycle, wid, pc, origin, mask, group in events:
            assert 0 <= wid < config.warp_count
            assert 0 <= pc < len(inst.kernel.program)
            assert origin == "primary"  # baseline never co-issues
            assert 0 < mask < 1 << config.warp_width
            assert isinstance(group, str) and group


class TestGoldenEquivalence:
    """Registry-resolved modes are cycle-exact vs the pre-refactor
    simulator and produce identical disk-cache keys (all 21 workloads,
    smoke size, all five paper modes)."""

    @pytest.mark.parametrize("mode", presets.FIGURE7_CONFIGS)
    def test_mode_matches_golden(self, mode):
        with open(GOLDEN) as f:
            golden = json.load(f)["cells"]
        config = presets.by_name(mode)
        for workload in ALL_WORKLOADS:
            expected = golden["%s/%s" % (workload, mode)]
            assert expected["cell_hash"] == cell_hash(workload, "tiny", config)
            inst = get_workload(workload, "smoke")
            stats = simulate(inst.kernel, inst.memory, config)
            assert stats.cycles == expected["cycles"], workload
            assert stats.thread_instructions == expected["thread_instructions"]
            assert stats.instructions_issued == expected["instructions_issued"]
            sha = hashlib.sha256(
                json.dumps(stats.to_dict(), sort_keys=True).encode()
            ).hexdigest()
            assert sha == expected["stats_sha"], workload
