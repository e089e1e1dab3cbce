"""Closed-form microkernels: counts that follow by arithmetic from the
machine's parameters, not from an earlier run of the model.

Every other timing test pins the model against itself (goldens,
cross-backend sameness, stepped cycles).  Here seven ``KernelBuilder``
kernels run on every registered policy, and each expectation is derived
from ``SMConfig`` fields (the paper's Table 2) or the execution model
of the paper's Figure 2:

* (a) word loads — coalesced, stride-2 and scattered: a warp-load costs
  one global transaction per distinct ``l1_block`` (128 B) block its
  lanes touch.  Exact.
* (b) a dependent ``add`` chain: each add waits for the previous one's
  writeback, ``issue_to_writeback`` (= ``delivery_latency`` +
  ``exec_latency``) cycles.  Exact, with a stated fixed term.
* (c) a two-sided odd/even branch with a dependent chain on each side:
  SIMT serialises the sides (Figure 2 (a), the *sum*), SBI runs them
  side by side on disjoint lanes (Figure 2 (b)/(c), the *max*), and
  SBI+SWI (Figure 2 (e)) must be no slower than SBI.  Bounded, with a
  stated slack.
* (d) an independent ``add`` stream over W warps: issued threads per
  cycle approach the MAD lanes (Table 2) and never pass ``peak_ipc``.
  Bounded.
* (e) the two-sided branch split by halves, lanes < 32 against >= 32:
  the same sum and max within a 64-wide warp; on 32-wide warps the
  halves are different warps and nothing diverges.  Bounded.
* (f) a 33-thread CTA: ``ceil(33 / warp_width)`` warps, the last one
  partial, and 33 thread-instructions per dynamic instruction.  Exact.
* (g) a barrier reached from both sides of a divergent branch: every
  thread retires once and memory is what the functional interpreter
  writes.  Exact.

A disagreement is a strict xfail that names its ROADMAP item 3 defect.
"""

import math

import pytest

from repro.core import presets
from repro.core.policy import POLICIES
from repro.core.sm import SimulationError
from repro.core.simulator import simulate
from repro.functional.interp import run_kernel
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace

POLICY_NAMES = POLICIES.names()


def run(kernel, policy, memory=None):
    return simulate(kernel, memory or MemoryImage(), presets.by_name(policy))


# ----------------------------------------------------------------------
# (a) Loads: transactions per warp-load = distinct l1_block blocks.
# ----------------------------------------------------------------------

LOAD_CTA = 64

#: Byte offset of thread ``t``'s word, per pattern.  "scattered" sends
#: the lanes to 16 blocks in a stride-7 order, so a 32-wide warp-load
#: touches all 16 and a 64-wide one 16 too (not 32).
PATTERNS = {
    "coalesced": lambda t: 4 * t,
    "stride2": lambda t: 8 * t,
    "scattered": lambda t: 128 * ((7 * t) & 15),
}


def load_kernel(pattern):
    kb = KernelBuilder("loads_" + pattern)
    i, x = kb.regs("i", "x")
    if pattern == "scattered":
        kb.mul(i, kb.tid, 7)
        kb.and_(i, i, 15)
        kb.mul(i, i, 128)
    else:
        kb.mul(i, kb.tid, PATTERNS[pattern](1))
    kb.ld(x, kb.param(0), index=i)
    kb.exit_()
    memory = MemoryImage()
    base = memory.alloc(16 * 128 + LOAD_CTA * 8)
    return kb.build(cta_size=LOAD_CTA, params=(base,)), memory, base


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_warp_load_is_one_transaction_per_block(policy, pattern):
    kernel, memory, base = load_kernel(pattern)
    config = presets.by_name(policy)
    width, block = config.warp_width, config.l1_block
    offset = PATTERNS[pattern]
    expected = sum(
        len({(base + offset(t)) // block for t in range(first, min(first + width, LOAD_CTA))})
        for first in range(0, LOAD_CTA, width)
    )
    stats = run(kernel, policy, memory)
    assert stats.global_transactions == expected
    assert stats.memory_replays == expected - LOAD_CTA // width


# ----------------------------------------------------------------------
# (b) A dependent add chain: n x issue_to_writeback + a fixed term.
# ----------------------------------------------------------------------

#: The chain with n = 0 (``mov`` then ``exit``, nothing waits): the
#: same 3 cycles on every registered policy, whatever its Table 2
#: scheduler and delivery latencies.
CHAIN_FIXED = 3


def chain_kernel(n):
    kb = KernelBuilder("chain%d" % n)
    (x,) = kb.regs("x")
    kb.mov(x, kb.tid)
    for _ in range(n):
        kb.add(x, x, 1)
    kb.exit_()
    return kb.build(cta_size=32)


@pytest.mark.parametrize("n", [0, 1, 4, 16])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_dependent_chain_pays_issue_to_writeback_per_link(policy, n):
    config = presets.by_name(policy)
    assert run(chain_kernel(n), policy).cycles == n * config.issue_to_writeback + CHAIN_FIXED


# ----------------------------------------------------------------------
# (c) A two-sided odd/even branch.
# ----------------------------------------------------------------------

#: Dependent adds on each side of the branch.
SIDE = 32

SBI_SWI_DROPS_COISSUE = (
    "ROADMAP item 3 (a): the cascaded secondary slot never takes the "
    "same warp's other split, so SBI+SWI runs the two sides one after "
    "the other at low occupancy (593 cycles against sbi's 321)"
)
DWR_DROPS_COISSUE = (
    "ROADMAP item 3 (a): DWR's four sub-warp splits (two windows x two "
    "sides) never co-issue on the cascaded scheduler, so the branch "
    "costs about four sides (1 177 cycles), not the SIMT sum"
)
SWI_PAYS_DELIVERY = (
    "ROADMAP item 3 (e): SWI pays Table 2's delivery_latency of 1 on "
    "every dependent link (issue_to_writeback 9 against warp64's 8) "
    "and nothing hides it at one warp: 600 cycles against 533"
)


def branch_kernel():
    kb = KernelBuilder("two_sided")
    p, x = kb.regs("p", "x")
    kb.and_(p, kb.tid, 1)
    kb.setp(p, CmpOp.NE, p, 0)
    kb.bra("odd", cond=p)
    for _ in range(SIDE):
        kb.add(x, x, 1)
    kb.bra("done")
    kb.label("odd")
    for _ in range(SIDE):
        kb.add(x, x, 1)
    kb.label("done")
    kb.exit_()
    # One 64-thread CTA: one 64-wide warp, or two 32-wide ones, each
    # split odd/even.  ``as_is`` keeps the sides where they were written.
    return kb.build(cta_size=64, layout="as_is")


def branch_cycles(policy):
    return run(branch_kernel(), policy).cycles


def _branch_case(policy):
    if policy == "sbi_swi":
        return pytest.param(policy, marks=pytest.mark.xfail(strict=True, reason=SBI_SWI_DROPS_COISSUE))
    if policy == "dwr":
        return pytest.param(policy, marks=pytest.mark.xfail(strict=True, reason=DWR_DROPS_COISSUE))
    return policy


@pytest.mark.parametrize("policy", [_branch_case(p) for p in POLICY_NAMES])
def test_a_two_sided_branch_costs_the_sum_under_simt_and_the_max_under_sbi(policy):
    config = presets.by_name(policy)
    # One side: SIDE dependent links (Table 2: delivery + exec latency).
    side = SIDE * config.issue_to_writeback
    # Figure 2 (a): SIMT runs one side, then the other.  Figure 2 (b)/(c):
    # SBI issues the two sides' lane-disjoint splits in the same cycles.
    sides = 1 if config.uses_sbi else 2
    # Slack: the preamble's two dependent ops, the branch redirect and
    # the reconvergence, each at most one branch_latency.
    slack = 4 * config.branch_latency
    assert sides * side <= branch_cycles(policy) <= sides * side + slack


@pytest.mark.xfail(strict=True, reason=SBI_SWI_DROPS_COISSUE)
def test_sbi_swi_is_no_slower_than_sbi():
    # Figure 2 (e): SBI+SWI keeps SBI's co-issue and adds SWI's.
    assert branch_cycles("sbi_swi") <= branch_cycles("sbi")


@pytest.mark.xfail(strict=True, reason=SWI_PAYS_DELIVERY)
def test_swi_is_no_slower_than_warp64():
    # Figure 2 (d): with one warp there is nothing to interweave, so
    # SWI should cost what the 64-wide SIMT reference does.
    assert branch_cycles("swi") <= branch_cycles("warp64")


# ----------------------------------------------------------------------
# (d) An independent add stream over W warps.
# ----------------------------------------------------------------------

#: Registers the stream rotates through: each add reads the register
#: written STREAM_REGS adds before, so no warp waits on itself once
#: enough warps share the issue slots.
STREAM_REGS = 8
STREAM_ROUNDS = 32
#: Per thread: a ``mov`` per register, the adds, ``exit``.
STREAM_DYNAMIC = STREAM_REGS + STREAM_ROUNDS * STREAM_REGS + 1


def stream_kernel(threads):
    kb = KernelBuilder("stream")
    regs = kb.regs(*("r%d" % i for i in range(STREAM_REGS)))
    for r in regs:
        kb.mov(r, kb.tid)
    for _ in range(STREAM_ROUNDS):
        for r in regs:
            kb.add(r, r, 1)
    kb.exit_()
    return kb.build(cta_size=threads)


@pytest.mark.parametrize("warps", [4, 16])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_an_independent_stream_approaches_the_mad_lanes(policy, warps):
    config = presets.by_name(policy)
    # Table 2: an add issues to the MAD lanes (2 x 32 on the baseline, 64
    # on the wide machines); peak_ipc (64 / 104) also counts the SFU and
    # LSU lanes, which an add stream cannot use.
    lanes = min(config.issue_width * config.warp_width, config.mad_lanes)
    assert lanes <= config.peak_ipc
    # A warp has at most scoreboard_entries writes in flight, each
    # issue_to_writeback cycles long (Table 2), so filling the lanes every
    # cycle takes this many warps; both W values have them.
    assert warps >= math.ceil(
        lanes / config.warp_width * config.issue_to_writeback / config.scoreboard_entries
    )
    threads = warps * config.warp_width
    stats = run(stream_kernel(threads), policy)
    work = threads * STREAM_DYNAMIC
    assert stats.thread_instructions == work
    assert stats.thread_instructions / stats.cycles <= config.peak_ipc
    # The lanes bound the rate from above; the last adds' writeback is
    # the only drain.
    assert work / lanes <= stats.cycles <= work / lanes + config.issue_to_writeback


# ----------------------------------------------------------------------
# (e) The two-sided branch split by halves.
# ----------------------------------------------------------------------


def halves_kernel():
    kb = KernelBuilder("two_halves")
    p, x = kb.regs("p", "x")
    kb.setp(p, CmpOp.GE, kb.tid, 32)
    kb.mov(x, 0)
    kb.bra("upper", cond=p)
    for _ in range(SIDE):
        kb.add(x, x, 1)
    kb.bra("done")
    kb.label("upper")
    for _ in range(SIDE):
        kb.add(x, x, 1)
    kb.label("done")
    kb.exit_()
    return kb.build(cta_size=64, layout="as_is")


def _halves_case(policy):
    if policy == "sbi_swi":
        return pytest.param(policy, marks=pytest.mark.xfail(strict=True, reason=SBI_SWI_DROPS_COISSUE))
    return policy


@pytest.mark.parametrize("policy", [_halves_case(p) for p in POLICY_NAMES])
def test_a_branch_by_halves_costs_the_sum_under_simt_and_the_max_under_sbi(policy):
    config = presets.by_name(policy)
    stats = run(halves_kernel(), policy)
    side = SIDE * config.issue_to_writeback
    # Table 2's warp_width: 32-wide warps hold one half each, so no warp
    # diverges and the two run side by side (the max); a 64-wide warp
    # splits, and Figure 2 (a) against (b)/(c) applies as for odd/even.
    split = config.warp_width > 32
    assert stats.divergent_branches == int(split)
    sides = 2 if split and not config.uses_sbi else 1
    slack = 4 * config.branch_latency
    assert sides * side <= stats.cycles <= sides * side + slack


# ----------------------------------------------------------------------
# (f) A 33-thread CTA: a partial last warp.
# ----------------------------------------------------------------------

ODD_CTA = 33
TRIPS = 4
#: Per thread: two ``mov``, TRIPS x (two ``add``, ``setp``, ``bra``), ``exit``.
ODD_DYNAMIC = 2 + 4 * TRIPS + 1


def odd_cta_kernel():
    kb = KernelBuilder("cta33")
    x, n, p = kb.regs("x", "n", "p")
    kb.mov(x, kb.tid)
    kb.mov(n, 0)
    kb.label("loop")
    kb.add(x, x, 3)
    kb.add(n, n, 1)
    kb.setp(p, CmpOp.LT, n, TRIPS)
    kb.bra("loop", cond=p)
    kb.exit_()
    return kb.build(cta_size=ODD_CTA)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_partial_warp_issues_for_its_live_threads_only(policy):
    config = presets.by_name(policy)
    # Section 2 / Table 2: a CTA is cut into warp_width-thread warps.
    warps = math.ceil(ODD_CTA / config.warp_width)
    stats = run(odd_cta_kernel(), policy)
    assert stats.ctas_launched == 1
    assert stats.warps_retired == warps
    assert stats.instructions_issued == warps * ODD_DYNAMIC
    assert stats.thread_instructions == ODD_CTA * ODD_DYNAMIC
    assert stats.divergent_branches == 0


# ----------------------------------------------------------------------
# (g) A barrier reached from both sides of a divergent branch.
# ----------------------------------------------------------------------

BAR_CTA = 64
BAR_GRID = 2

STACK_BARRIER_DEADLOCK = (
    "ROADMAP item 3 (f): the stack model runs only its top entry, so "
    "the side parked at the barrier blocks the other side, which never "
    "reaches it (deadlock at cycle 53)"
)


def barrier_kernel():
    """Each thread stores a value to shared memory on its side of an
    odd/even branch, waits at that side's barrier, then reads its
    neighbour's value — written on the other side — and stores it."""
    kb = KernelBuilder("barrier_both_sides")
    g, i, j, p, x, y = kb.regs("g", "i", "j", "p", "x", "y")
    kb.mad(g, kb.ctaid, BAR_CTA, kb.tid)
    kb.mul(g, g, 4)
    kb.mul(i, kb.tid, 4)
    kb.add(j, kb.tid, 1)
    kb.and_(j, j, BAR_CTA - 1)
    kb.mul(j, j, 4)
    kb.and_(p, kb.tid, 1)
    kb.setp(p, CmpOp.NE, p, 0)
    kb.bra("odd", cond=p)
    kb.mad(x, kb.tid, 2, 1)
    kb.st(0, x, index=i, space=MemSpace.SHARED)
    kb.bar()
    kb.ld(y, 0, index=j, space=MemSpace.SHARED)
    kb.st(kb.param(0), y, index=g)
    kb.bra("done")
    kb.label("odd")
    kb.mad(x, kb.tid, 3, 7)
    kb.st(0, x, index=i, space=MemSpace.SHARED)
    kb.bar()
    kb.ld(y, 0, index=j, space=MemSpace.SHARED)
    kb.add(y, y, 1000)
    kb.st(kb.param(0), y, index=g)
    kb.label("done")
    kb.atom_add(None, kb.param(1), 1)
    kb.exit_()
    memory = MemoryImage()
    out = memory.alloc(BAR_GRID * BAR_CTA * 4)
    retired = memory.alloc(4)
    kernel = kb.build(
        cta_size=BAR_CTA, grid_size=BAR_GRID, params=(out, retired),
        shared_bytes=BAR_CTA * 4,
    )
    return kernel, memory, out, retired


def _barrier_case(policy):
    if policy == "baseline":
        return pytest.param(policy, marks=pytest.mark.xfail(
            strict=True, raises=SimulationError, reason=STACK_BARRIER_DEADLOCK
        ))
    return policy


@pytest.mark.parametrize("policy", [_barrier_case(p) for p in POLICY_NAMES])
def test_a_barrier_on_both_sides_of_a_branch_holds_every_thread(policy):
    config = presets.by_name(policy)
    kernel, memory, out, retired = barrier_kernel()
    stats = simulate(kernel, memory, config)
    reference, reference_memory, _, _ = barrier_kernel()
    interp = run_kernel(reference, reference_memory, warp_width=config.warp_width)
    # Every thread retires once (the counter), in warp_width-thread
    # warps (Table 2), having issued what the interpreter executed.
    threads = BAR_GRID * BAR_CTA
    assert memory.read_array(retired, 1)[0] == threads
    assert stats.warps_retired == BAR_GRID * math.ceil(BAR_CTA / config.warp_width)
    assert stats.thread_instructions == interp.thread_instructions
    # The barrier held each read until its neighbour, on the other side
    # of the branch, had written: the value is the neighbour's.
    expected = []
    for t in range(threads):
        tid = t % BAR_CTA
        neighbour = (tid + 1) % BAR_CTA
        wrote = 3 * neighbour + 7 if neighbour % 2 else 2 * neighbour + 1
        expected.append(wrote + (1000 if tid % 2 else 0))
    assert memory.read_array(out, threads).tolist() == expected
    assert reference_memory.read_array(out, threads).tolist() == expected
