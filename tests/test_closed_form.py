"""Closed-form microkernels: counts that follow by arithmetic from the
machine's parameters, not from an earlier run of the model.

Every other timing test pins the model against itself (goldens,
cross-backend sameness, stepped cycles).  Here three ``KernelBuilder``
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

A disagreement is a strict xfail that names its ROADMAP item 5 defect.
"""

import pytest

from repro.core import presets
from repro.core.policy import POLICIES
from repro.core.simulator import simulate
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp

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
    "ROADMAP item 5 (a): the cascaded secondary slot never takes the "
    "same warp's other split, so SBI+SWI runs the two sides one after "
    "the other at low occupancy (593 cycles against sbi's 321)"
)
DWR_DROPS_COISSUE = (
    "ROADMAP item 5 (a): DWR's four sub-warp splits (two windows x two "
    "sides) never co-issue on the cascaded scheduler, so the branch "
    "costs about four sides (1 177 cycles), not the SIMT sum"
)
SWI_PAYS_DELIVERY = (
    "ROADMAP item 5 (e): SWI pays Table 2's delivery_latency of 1 on "
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
