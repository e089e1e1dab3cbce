"""The ready set against its oracle, and a deterministic work count.

The schedulers arbitrate over an incrementally maintained ready set
(:class:`repro.core.schedulers.SchedulerBase`): a warp's readiness is
re-derived only when a wake site touched it.  The invariant that rests
on is "every event that can change a verdict goes through
``TimingWarp.wake``/``wake_issue``/``wake_at``".  The oracle here is
the scan the ready set replaced — every live warp, every hot slot,
the readiness predicate — run before every pick of whole simulations:
a missed wake or sleep site fails on the warp and slot it concerns,
not as a golden diff three layers up.  A wake that bypasses a warp's
woken flags fails there too: no scheduler or fetch-engine woken list
may hold a warp twice when it is read.
"""

import collections
import contextlib
import copy
import dataclasses
import operator
import os
import sys
from unittest import mock

import pytest

from repro.core import presets
from repro.core.gpu import GPUDevice, simulate_device
from repro.core.schedulers import CascadedScheduler, SBIScheduler
from repro.core.simulator import simulate
from repro.core.sm import StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.timing.config import GPUConfig
from repro.timing.fetch import FetchEngine
from repro.timing.units import UNIT_OF
from repro.workloads import get_workload


def one_sm(inst, config):
    """``(device, sm)``: ``inst`` on a one-SM device, the shape
    :func:`simulate` runs, with its SM in hand to instrument."""
    device = GPUDevice(inst.kernel, inst.memory, GPUConfig(sm=config))
    return device, device.sms[0]


def _describe(cand):
    slot, warp, split, entry = cand[2:6]
    return "warp %d slot %d %r pc=%d fetched@%d" % (
        warp.wid, slot, split, entry.pc, entry.fetch_cycle
    )


def full_scan(sm, now):
    """The brute-force oracle: ``(pickable, suspended)`` candidates of
    every live warp by the readiness predicate, oldest first.

    Side-effect free where it matters: timed wakes the predicate
    would register are dropped, so the oracle cannot paper over a
    missing one.
    """
    sched = sm.scheduler
    slots = 2 if isinstance(sched, SBIScheduler) else 1
    pickable, suspended = [], []
    with mock.patch.object(TimingWarp, "wake_at", lambda self, cycle: None):
        for warp in sm.live_warps():
            hot = warp.model.hot_splits(now)
            for slot, split in enumerate(hot[:slots]):
                entry = sched._ready_entry(warp, slot, split, now)
                if entry is None:
                    continue
                cand = (entry.fetch_cycle, warp.wid, slot, warp, split, entry, None)
                if slot == 1 and sched._sync_blocked(warp, split, entry.instr, now):
                    suspended.append(cand)
                else:
                    pickable.append(cand)
    pickable.sort(key=lambda c: c[:3])
    return pickable, suspended


def _same(cand, oracle):
    return all(cand[i] is oracle[i] for i in (3, 4, 5)) and cand[2] == oracle[2]


def check_ready_set(sm, now, index=0):
    """Pool ``index`` of the ready set, brought up to date the way a
    pick of it does, equals the full scan's share of that pool."""
    sched = sm.scheduler
    sched._refresh(now, index)
    pickable, suspended = full_scan(sm, now)
    expected = [c for c in pickable if c[1] % sched.pools == index]
    pool = sched._pools[index]
    got = [_describe(c) for c in pool]
    want = [_describe(c) for c in expected]
    assert got == want, "cycle %d: ready set != full scan" % now
    assert all(_same(c, o) for c, o in zip(pool, expected))
    if isinstance(sched, SBIScheduler):
        assert sched._suspended == len(suspended), "cycle %d" % now
    return expected


def _oldest_with_free_unit(sm, expected, now, by):
    """The full-scan choice: oldest candidate whose unit is free."""
    for cand in expected:
        split, entry = cand[4], cand[5]
        if by == now:
            free = sm.backend.pick_group(
                UNIT_OF[entry.instr.op_class], now, split.lane_mask, False
            ) is not None
        else:  # the cascaded primary's "plausibly free at the issue stage"
            free = any(
                g.free_at <= by for g in sm.backend.routes[UNIT_OF[entry.instr.op_class]]
            )
        if free:
            return cand
    return None


def _hook_primary(sched, expected, now):
    """What an overridden ``_pick_primary`` picks over ``expected``,
    the full scan's candidates: run on a copy of the scheduler, so the
    state a pick keeps (``swi_rr``'s ``_last_wid``) does not move."""
    clone = copy.copy(sched)
    clone._pools = (
        [cand[:6] + (sched._unit_of[cand[5].pc],) for cand in expected],
    ) + sched._pools[1:]
    return type(sched)._pick_primary(clone, now)


def check_woken_once(woken, now):
    """A woken list holds each warp once: a second entry means a wake
    went round the warp's woken flag, and the warp is probed twice."""
    seen = set()
    for warp in woken:
        assert id(warp) not in seen, "cycle %d: warp %d woken twice" % (now, warp.wid)
        seen.add(id(warp))


@contextlib.contextmanager
def check_woken_lists(sm):
    """Check every woken list of ``sm`` where it is read: the
    scheduler's in ``_refresh``, the fetch engine's in ``tick``."""
    sched = sm.scheduler
    refresh, fetch_tick = sched._refresh, FetchEngine.tick

    def checked_refresh(now, index=0):
        check_woken_once(sched.woken[index], now)
        refresh(now, index)

    def checked_tick(self, now, warps):
        if self is sm.fetch:
            check_woken_once(self.woken, now)
        return fetch_tick(self, now, warps)

    sched._refresh = checked_refresh
    with mock.patch.object(FetchEngine, "tick", checked_tick):
        yield


@contextlib.contextmanager
def instrument(sm, counts):
    """Check the ready set before every pick of ``sm``'s scheduler,
    and every woken list of ``sm`` where it is read
    (:func:`check_woken_lists`), for as long as the context is open.

    The cascaded schedulers pick through ``_pick`` (both picks from
    one snapshot), which is wrapped; the primary it returns is held
    against the full scan's: its oldest candidate with a free unit for
    the stock pick, what the scheduler's own ``_pick_primary`` makes of
    the full scan's candidates for an overridden one.  The others pick
    inside ``tick``, one pool after the other, and issue what they
    picked on the spot — so the oracle
    runs where ``tick`` starts and again where each issue returns
    (which is where the next pool's pick starts), and holds every
    issue against the choice the full scan made: a pick that should
    have issued and did not, or issued something else, fails too.
    """
    sched = sm.scheduler
    if isinstance(sched, CascadedScheduler):
        inner = sched._pick

        def pick(now, *args):
            expected = check_ready_set(sm, now)
            if sched._stock_primary:
                want = _oldest_with_free_unit(sm, expected, now, now + 1)
            else:
                want = _hook_primary(sched, expected, now)
            got, secondary = inner(now, *args)
            assert (got is None) == (want is None), "cycle %d" % now
            assert got is None or _same(got, want), "cycle %d" % now
            counts["picks"] += 1
            counts["chosen"] += got is not None
            return got, secondary

        sched._pick = pick
        with check_woken_lists(sm):
            yield
        return

    dual = isinstance(sched, SBIScheduler)
    inner_tick, inner_issue = sched.tick, StreamingMultiprocessor.issue
    state = {"want": None, "pool": 0}

    def next_pick(now):
        """Run the oracle for the pools from ``state["pool"]`` on, up
        to the first whose pick must issue."""
        while state["want"] is None and state["pool"] < sched.pools:
            expected = check_ready_set(sm, now, state["pool"])
            state["want"] = _oldest_with_free_unit(sm, expected, now, now)
            state["pool"] += 1
            counts["picks"] += 1

    def tick(now):
        state["want"], state["pool"] = None, 0
        next_pick(now)
        issued = inner_tick(now)
        assert state["want"] is None, "cycle %d: %s was not picked" % (
            now, _describe(state["want"])
        )
        return issued

    def issue(self, warp, slot, split, entry, now, origin, group):
        assert self is sm
        want = state["want"]
        if want is not None:
            # The dual front-end picks a *warp* (the owner of the
            # oldest pickable instruction, either slot) and issues its
            # slot 0 first when that can go; the others issue the pick.
            assert warp is want[3], "cycle %d: picked %r, not %s" % (
                now, warp, _describe(want)
            )
            if not dual or want[2] == 0 == slot:
                assert _same((None, None, slot, warp, split, entry), want), (
                    "cycle %d: issued pc=%d, picked %s" % (now, entry.pc, _describe(want))
                )
            state["want"] = None
            counts["chosen"] += 1
        else:
            # Nothing outstanding: only the dual front-end's second
            # issue (same warp, other slot) comes unpicked.
            assert dual and origin == "sbi", "cycle %d: unpicked issue" % now
        diverged = inner_issue(self, warp, slot, split, entry, now, origin, group)
        if not dual:
            next_pick(now)
        return diverged

    sched.tick = tick
    with mock.patch.object(StreamingMultiprocessor, "issue", issue), check_woken_lists(sm):
        yield


class TestReadySetInvariant:
    @pytest.mark.parametrize("workload,mode", [
        ("mandelbrot", "sbi_swi"),
        ("bfs", "sbi"),
        ("transpose", "baseline"),
        # Writebacks here often release a warp already on the woken
        # list: where a wake that skips the flag would queue it twice.
        ("tmd1", "sbi"),
        ("eigenvalues", "sbi"),
        ("tmd1", "sbi_swi"),
        # The other schedulers and divergence models.
        ("bfs", "swi"),
        ("mandelbrot", "warp64"),
        ("bfs", "swi_greedy"),
        ("bfs", "swi_rr"),
        ("bfs", "dwr"),
    ])
    def test_ready_set_equals_full_scan_before_every_pick(self, workload, mode, **overrides):
        config = presets.by_name(mode, **overrides)
        inst = get_workload(workload, "tiny")
        expected = simulate(inst.kernel, inst.memory, config)
        inst = get_workload(workload, "tiny")
        device, sm = one_sm(inst, config)
        counts = {"picks": 0, "chosen": 0}
        with instrument(sm, counts):
            stats = device.run().sm_stats[0]
        # The oracle only looked: the run is the uninstrumented run.
        assert stats == expected
        assert counts["chosen"] > 100 and counts["picks"] > counts["chosen"]

    def test_a_full_scoreboard_refuses_what_a_fill_would_hand_over(self):
        """Two scoreboard entries: fills and releases meet a full
        scoreboard with no register hazard, a *no* they must not record
        as a candidate."""
        self.test_ready_set_equals_full_scan_before_every_pick(
            "bfs", "sbi_swi", scoreboard_entries=2
        )

    def _fails_with(self, workload, mode, door, replacement, match=r"^cycle \d+"):
        inst = get_workload(workload, "tiny")
        device, sm = one_sm(inst, presets.by_name(mode))
        with instrument(sm, {"picks": 0, "chosen": 0}):
            with mock.patch.object(TimingWarp, door, replacement):
                with pytest.raises(AssertionError, match=match):
                    device.run()

    def _fails_without(self, workload, mode, door):
        self._fails_with(workload, mode, door, lambda self, *args: None)

    def test_oracle_catches_a_missed_wake(self):
        """Drop the door a fill's or a release's *yes* comes through
        (``TimingWarp.ready``): the run must fail on the ready set,
        which is what makes the test above a test."""
        self._fails_without("transpose", "baseline", "ready")

    def test_oracle_catches_a_missed_issue_wake(self):
        """Likewise the issue-side wake of a refusal kept as ``True``
        or of a slot-1 fill (``wake_issue``)."""
        self._fails_without("bfs", "sbi", "wake_issue")

    @pytest.mark.parametrize("door,woken", [("wake_issue", "_issue_wakes"), ("wake", "_fetch_wakes")])
    def test_oracle_catches_a_double_wake(self, door, woken):
        """A door that appends the warp again, whatever its woken flag
        says: the run must fail on the woken list it doubled (the
        scheduler's, the fetch engine's), before any probe runs twice."""
        inner = getattr(TimingWarp, door)

        def twice(self):
            inner(self)
            getattr(self, woken).append(self)

        self._fails_with("bfs", "sbi", door, twice, match=r"^cycle \d+: warp \d+ woken twice")


#: Calls per issued instruction on transpose@tiny: ``(readiness probes,
#: unit queries)``, re-pinned when fills and releases began handing
#: their *yes* over without a probe (none is left on transpose) and the
#: cascaded pick took one snapshot; the guard allows +10 %.
#: ``PARENT_WORK`` is what the tree before the ready set measured (a
#: full scan per scheduler per cycle), ``READY_SET_WORK`` what the ready
#: set itself read and ``NO_DOOMED_WORK`` the pins of the tree that
#: stopped doomed probes (1da8746..d38cec1) — a pin may fall, never
#: rise.  "Unit queries" counts ``pick_group`` and ``free_classes``
#: together.
WORK_PINS = {
    "baseline": (0.0, 1.04),
    "sbi": (0.0, 1.04),
    "swi": (0.0, 2.37),
    "sbi_swi": (0.0, 2.37),
}
NO_DOOMED_WORK = {
    "baseline": (1.03, 1.04),
    "sbi": (1.05, 1.04),
    "swi": (1.07, 2.54),
    "sbi_swi": (1.07, 2.54),
}
READY_SET_WORK = {
    "baseline": (2.50, 2.04),
    "sbi": (1.95, 2.04),
    "swi": (2.51, 3.03),
    "sbi_swi": (2.51, 3.03),
}
PARENT_WORK = {
    "baseline": (6.3, 3.4),
    "sbi": (8.3, 7.5),
    "swi": (11.6, 11.2),
    "sbi_swi": (11.6, 11.2),
}


#: Interpreter call events (``sys.setprofile`` ``call`` + ``c_call``)
#: per issued instruction over transpose, mandelbrot and matrixmul
#: @tiny: what one issue costs the host in frames and C calls, the
#: gauge that steered the one-frame issue path.  ``CALL_PINS`` are
#: this tree's counts (the guard allows +5 %), ``NO_DOOMED_CALLS`` the
#: pins they replace and ``FIRST_CALLS`` those of the tree that
#: introduced the gauge — a pin may fall, never rise — and
#: ``PARENT_CALLS`` what :func:`calls_per_issue` read on the tree
#: before that.
CALL_PINS = {
    "baseline": 36.9,
    "sbi": 47.1,
    "swi": 48.6,
    "sbi_swi": 52.3,
}
NO_DOOMED_CALLS = {
    "baseline": 48.8,
    "sbi": 66.0,
    "swi": 65.9,
    "sbi_swi": 71.3,
}
FIRST_CALLS = {
    "baseline": 56.0,
    "sbi": 73.1,
    "swi": 76.3,
    "sbi_swi": 81.2,
}
PARENT_CALLS = {
    "baseline": 85.3,
    "sbi": 124.8,
    "swi": 114.4,
    "sbi_swi": 137.5,
}
GAUGE_WORKLOADS = ("transpose", "mandelbrot", "matrixmul")
#: The gauge's device row (see :func:`bytecodes_per_issue`).
DEVICE = "device"


#: Bytecodes per issued instruction over the same three workloads:
#: ``opcode`` events of ``sys.settrace`` with ``frame.f_trace_opcodes``
#: set on every frame under ``simulate``, on the second of two
#: identical runs.  Where the call gauge counts frames, this one
#: counts what runs inside them — about 11 ns apiece on the reference
#: host — and it repeats exactly, so a flat profile is a budget, not a
#: reason to stop.  Bytecode is specific to the interpreter version:
#: the pins are CPython 3.11's and are asserted there only.
#: ``BYTECODE_PINS`` are this tree's counts (the guard allows +3 %),
#: ``DEVICE`` included; ``PARENT_BYTECODES`` is what this gauge read on
#: the tree before fills and releases handed their verdicts over
#: (d38cec1) — each mode's pin at most 0.94 of it, the four together
#: at most 0.90.
BYTECODE_PINS = {
    "baseline": 1042.6,
    "sbi": 1399.3,
    "swi": 1517.3,
    "sbi_swi": 1661.4,
    DEVICE: 1686.6,
}
PARENT_BYTECODES = {
    "baseline": 1337.8,
    "sbi": 1777.1,
    "swi": 1900.6,
    "sbi_swi": 2025.8,
    DEVICE: 2140.5,
}
BYTECODE_VERSION = (3, 11)

#: A code object's name in the per-function breakdown.
_function_name = operator.attrgetter(
    "co_qualname" if sys.version_info >= (3, 11) else "co_name"
)


def count_calls(kernel, memory, config, by_code=None):
    """``(stats, call events, Python calls by function name)`` of one
    simulation; with ``by_code`` (a Counter) also its bytecodes, added
    there by code object."""
    by_name = collections.Counter()
    c_calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            by_name[frame.f_code.co_name] += 1
        elif event == "c_call":
            c_calls[0] += 1

    # One counting closure per code object, handed out as the frame's
    # local trace function: an opcode event then costs one list
    # increment, not a name lookup and a dict update.
    tracers = {}

    def trace(frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        tracer = tracers.get(code)
        if tracer is None:
            count = [0]

            def tracer(frame, event, arg):
                if event == "opcode":
                    count[0] += 1
                return tracer

            tracer.count = count
            tracers[code] = tracer
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return tracer

    run = simulate_device if isinstance(config, GPUConfig) else simulate
    sys.setprofile(profile)
    if by_code is not None:
        sys.settrace(trace)
    try:
        stats = run(kernel, memory, config)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    for code, tracer in tracers.items():
        by_code[code] += tracer.count[0]
    return stats, sum(by_name.values()) + c_calls[0], by_name


def work_per_issue(mode):
    """(readiness probes, unit queries) per issued instruction."""
    inst = get_workload("transpose", "tiny")
    stats, _, by_name = count_calls(inst.kernel, inst.memory, presets.by_name(mode))
    issues = stats.instructions_issued
    unit = by_name["pick_group"] + by_name["free_classes"]
    return by_name["_ready_entry"] / issues, unit / issues


def calls_per_issue(mode):
    """Call events per issued instruction, summed over the gauge
    workloads; each is counted on the second of two identical runs
    (the first warms the module-level mask memos)."""
    config = presets.by_name(mode)
    calls = issues = 0
    for name in GAUGE_WORKLOADS:
        for _ in range(2):
            inst = get_workload(name, "tiny")
            stats, events, _ = count_calls(inst.kernel, inst.memory, config)
        calls += events
        issues += stats.instructions_issued
    return calls / issues


def traced_run(mode):
    """``(issues, memory issues, bytecodes by code object)`` over the
    gauge workloads (``DEVICE``: transpose on four ``sbi_swi`` SMs
    behind the shared L2, ``GPUDevice.run`` counted); each is traced on
    the second of two identical runs (the first, untraced, warms the
    module-level mask memos).  A memory issue is one call of
    ``LoadStoreUnit.access``."""
    if mode == DEVICE:
        config, workloads = presets.device("sbi_swi", sm_count=4), ("transpose",)
    else:
        config, workloads = presets.by_name(mode), GAUGE_WORKLOADS
    by_code = collections.Counter()
    issues = memory_issues = 0
    for name in workloads:
        inst = get_workload(name, "tiny")
        count_calls(inst.kernel, inst.memory, config)
        inst = get_workload(name, "tiny")
        stats, _, by_name = count_calls(inst.kernel, inst.memory, config, by_code)
        issues += stats.instructions_issued
        memory_issues += by_name["access"]
    return issues, memory_issues, by_code


def bytecodes_per_issue(mode, traced=None):
    """``(bytecodes per issued instruction, the same by function)``
    of ``traced``, else of a fresh :func:`traced_run`."""
    issues, _, by_code = traced or traced_run(mode)
    per_function = collections.Counter()
    for code, n in by_code.items():
        per_function[_function_name(code)] += n / issues
    return sum(by_code.values()) / issues, dict(per_function)


def bytecodes_per_module(traced):
    """Bytecodes per issued instruction by module of a
    :func:`traced_run`: its path under ``repro/``, or ``other`` for
    code outside the package."""
    issues, _, by_code = traced
    per_module = collections.Counter()
    for code, n in by_code.items():
        _, inside, module = code.co_filename.replace(os.sep, "/").rpartition("/repro/")
        per_module[module if inside else "other"] += n / issues
    return per_module


#: The memory side: the LSU, the tag stores, the L2 and DRAM.
MEMORY_FILES = tuple(
    os.path.join("repro", "timing", name) for name in ("lsu.py", "cache.py", "l2.py", "dram.py")
)


def memory_bytecodes_per_issue(traced):
    """Bytecodes run in :data:`MEMORY_FILES` per memory issue, of a
    :func:`traced_run`: the memory layer's work, apart from the
    engine's."""
    _, memory_issues, by_code = traced
    spent = sum(n for code, n in by_code.items() if code.co_filename.endswith(MEMORY_FILES))
    return spent / memory_issues


#: Bytes a resident warp owns alone, on the tree before register files
#: were sized by the program and launch constants shared across the
#: launch (a327fa2): see :func:`owned_bytes_per_warp`.
PARENT_OWNED_BYTES = {
    "baseline": 10200.0,
    "sbi": 17026.7,
    "swi": 17026.7,
    "sbi_swi": 17026.7,
    DEVICE: 15976.0,
}


def _warp_arrays(fwarp):
    """Every array a functional warp refers to: its register file and
    row views, then its launch constants."""
    return [
        fwarp.regs, *fwarp.rows, fwarp.tids_in_cta, fwarp.tids_f64,
        fwarp.lanes_f64, fwarp.ctaid_f64, fwarp.warpid_f64,
    ]


def owned_bytes_per_warp(mode):
    """Mean bytes each resident warp owns alone right after the gauge
    workloads' initial launch (``DEVICE``: transpose on four ``sbi_swi``
    SMs): ``sys.getsizeof`` of its row-view list and of every array it
    refers to that no other resident warp does (a view's size leaves
    out the data it looks at)."""
    if mode == DEVICE:
        config, workloads = presets.device("sbi_swi", sm_count=4), ("transpose",)
    else:
        config, workloads = GPUConfig(sm=presets.by_name(mode)), GAUGE_WORKLOADS
    owned = warps = 0
    for name in workloads:
        inst = get_workload(name, "tiny")
        device = GPUDevice(inst.kernel, inst.memory, config)
        device._initial_launch()
        resident = [w.fwarp for sm in device.sms for w in sm.warp_slots if w is not None]
        holders = collections.Counter(id(a) for fw in resident for a in _warp_arrays(fw))
        for fwarp in resident:
            owned += sys.getsizeof(fwarp.rows) + sum(
                sys.getsizeof(a) for a in _warp_arrays(fwarp) if holders[id(a)] == 1
            )
        warps += len(resident)
        device.release()
    return owned / warps


class TestWorkCount:
    @pytest.mark.parametrize("mode", sorted(WORK_PINS))
    def test_probes_and_unit_queries_per_issue(self, mode):
        """Deterministic: the counts repeat exactly, so the ready set
        cannot rot back into a scan without a timing gate noticing."""
        ready, unit = work_per_issue(mode)
        pin_ready, pin_unit = WORK_PINS[mode]
        for earlier in (NO_DOOMED_WORK, READY_SET_WORK, PARENT_WORK):
            assert pin_ready <= earlier[mode][0] and pin_unit <= earlier[mode][1]
        assert ready <= pin_ready * 1.10, (ready, pin_ready)
        assert unit <= pin_unit * 1.10, (unit, pin_unit)

    @pytest.mark.parametrize("mode", sorted(CALL_PINS))
    def test_calls_per_issue(self, mode):
        """Deterministic too: an issue's cost in interpreter calls
        cannot creep back up without a timing run to say so."""
        pin = CALL_PINS[mode]
        assert pin <= NO_DOOMED_CALLS[mode] <= FIRST_CALLS[mode] <= 0.85 * PARENT_CALLS[mode]
        calls = calls_per_issue(mode)
        assert calls <= pin * 1.05, (calls, pin)

    @pytest.mark.skipif(
        sys.version_info[:2] != BYTECODE_VERSION,
        reason="bytecode is interpreter-specific: the pins are CPython %d.%d's"
        % BYTECODE_VERSION,
    )
    @pytest.mark.parametrize("mode", sorted(BYTECODE_PINS))
    def test_bytecodes_per_issue(self, mode):
        """And what runs inside the frames: the flat profile as a
        budget, one mode (or the device row) at a time."""
        pin = BYTECODE_PINS[mode]
        assert pin <= 0.94 * PARENT_BYTECODES[mode]
        bytecodes, _ = bytecodes_per_issue(mode)
        assert bytecodes <= pin * 1.03, (bytecodes, pin)

    def test_bytecode_pins_meet_the_issue(self):
        """The gauge criterion: the four modes together at most 0.90 of
        the parent's 7 041."""
        modes = [mode for mode in BYTECODE_PINS if mode != DEVICE]
        assert sum(BYTECODE_PINS[m] for m in modes) <= 0.90 * sum(
            PARENT_BYTECODES[m] for m in modes
        )

    def test_work_per_issue_is_flat_in_live_warps(self):
        """transpose@bench under sbi_swi with 4 to 24 warps on the SM:
        "linear in live warps per cycle" was the defect the ready set
        removed, and per-issue work that grows with occupancy is how
        it would come back.  Bytecodes are counted at the two ends
        (tracing every opcode of a bench cell takes seconds)."""
        ready, calls, bytecodes = {}, {}, {}
        for warps in (4, 8, 16, 24):
            config = dataclasses.replace(presets.sbi_swi(), warp_count=warps)
            inst = get_workload("transpose", "bench")
            by_code = collections.Counter() if warps in (4, 24) else None
            stats, events, by_name = count_calls(
                inst.kernel, inst.memory, config, by_code
            )
            ready[warps] = by_name["_ready_entry"] / stats.instructions_issued
            calls[warps] = events / stats.instructions_issued
            if by_code is not None:
                bytecodes[warps] = sum(by_code.values()) / stats.instructions_issued
        assert ready[24] <= 1.3 * ready[4], ready
        assert calls[24] <= 1.3 * calls[4], calls
        assert bytecodes[24] <= 1.3 * bytecodes[4], bytecodes


class TestSlotView:
    """The two things ``SM.issue`` no longer asks the divergence model
    per instruction: the context slot (the scheduler hands it over) and
    the slot masks (cached on the warp against ``slot_version``)."""

    @pytest.mark.parametrize("workload,mode", [
        ("tmd2", "sbi_swi"),
        ("mandelbrot", "sbi"),
    ])
    def test_issue_sees_what_the_model_would_say(self, workload, mode):
        config = presets.by_name(mode)
        inst = get_workload(workload, "tiny")
        expected = simulate(inst.kernel, inst.memory, config)
        inst = get_workload(workload, "tiny")
        device, _ = one_sm(inst, config)
        inner = StreamingMultiprocessor.issue
        checked = {"slots": set(), "cached": 0}

        def issue(self, warp, slot, split, entry, now, origin, group):
            model = warp.model
            hot = model.hot_splits(now)
            expected = next((i for i, s in enumerate(hot[:2]) if s is split), 2)
            assert slot == expected, "cycle %d" % now
            checked["slots"].add(slot)
            if warp.slots_seen == model.slot_version:
                assert warp.slot_masks == model.slot_masks(now), "cycle %d" % now
                checked["cached"] += 1
            return inner(self, warp, slot, split, entry, now, origin, group)

        with mock.patch.object(StreamingMultiprocessor, "issue", issue):
            stats = device.run().sm_stats[0]
        # The checks only looked: the run is the unchecked run.
        assert stats == expected
        assert checked["slots"] >= {0, 1} and checked["cached"] > 100


if __name__ == "__main__":
    print("| mode | probes/issue | unit queries/issue | calls/issue | first calls/issue"
          " | bytecodes/issue | parent bytecodes/issue | bytes owned/warp, parent → now |")
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
    maps, memory, modules = {}, {}, {}
    for mode in sorted(WORK_PINS):
        traced = traced_run(mode)
        memory[mode] = memory_bytecodes_per_issue(traced)
        modules[mode] = bytecodes_per_module(traced)
        bytecodes, maps[mode] = bytecodes_per_issue(mode, traced)
        print("| %s | %.2f | %.2f | %.1f | %.1f | %.1f | %.1f | %.0f → %.0f |" % (
            (mode,) + work_per_issue(mode) + (
                calls_per_issue(mode), FIRST_CALLS[mode],
                bytecodes, PARENT_BYTECODES[mode],
                PARENT_OWNED_BYTES[mode], owned_bytes_per_warp(mode),
            )
        ))
    traced = traced_run(DEVICE)
    bytecodes, _ = bytecodes_per_issue(DEVICE, traced)
    memory[DEVICE] = memory_bytecodes_per_issue(traced)
    modules[DEVICE] = bytecodes_per_module(traced)
    print("| %s: transpose, 4 x sbi_swi SMs | | | | | %.1f | %.1f | %.0f → %.0f |" % (
        DEVICE, bytecodes, PARENT_BYTECODES[DEVICE],
        PARENT_OWNED_BYTES[DEVICE], owned_bytes_per_warp(DEVICE),
    ))
    print("\n| memory side | " + " | ".join(memory) + " |")
    print("| --- |" + " ---: |" * len(memory))
    print("| bytecodes in `repro/timing/{lsu,cache,l2,dram}.py` per memory issue | "
          + " | ".join("%.1f" % memory[mode] for mode in memory) + " |")
    print("\nbytecodes per issue by engine module, CPython %d.%d:\n" % sys.version_info[:2])
    print("| module | " + " | ".join(modules) + " |")
    print("| --- |" + " ---: |" * len(modules))
    for name in sorted(modules["sbi_swi"], key=modules["sbi_swi"].get, reverse=True):
        print("| `%s` | %s |" % (
            name, " | ".join("%.1f" % modules[mode].get(name, 0.0) for mode in modules)
        ))
    print("| total | %s |" % " | ".join("%.1f" % sum(modules[mode].values()) for mode in modules))
    modes = sorted(maps)
    print("\nbytecodes per issue by function, CPython %d.%d (the 25 largest of %s):\n"
          % (sys.version_info[:2] + (modes[-1],)))
    print("| function | " + " | ".join(modes) + " |")
    print("| --- |" + " ---: |" * len(modes))
    largest = sorted(maps[modes[-1]], key=maps[modes[-1]].get, reverse=True)[:25]
    for name in largest:
        print("| `%s` | %s |" % (
            name, " | ".join("%.1f" % maps[mode].get(name, 0.0) for mode in modes)
        ))
