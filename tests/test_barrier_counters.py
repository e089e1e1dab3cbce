"""The counters the barrier check reads, held against the splits.

``StreamingMultiprocessor._check_barrier`` runs on every ``bar`` and
``exit`` and compares two sums over the CTA's warps, each read off one
divergence-model counter instead of a walk over every split:

* parked threads: ``model.parked_threads``;
* live threads: ``(model.launch_mask & ~model.exited_mask).bit_count()``.

Both are only right while each model keeps its counter in step with its
splits.  Here every ``park``, ``exit_threads`` and ``unpark_all`` of
every divergence model is followed by a check of both against the
splits themselves, over all registered policies, on the suite's two
barrier kernels (transpose, hotspot), the closed-form kernel with a
barrier on both sides of a branch, and a kernel whose one side exits
while the other waits at a barrier.

The stack model's reconvergence placeholders hold the union of the
entries above them, so its splits nest rather than partition the live
threads: there the live threads are the union of its entries, not the
sum (the sum would count a diverged thread twice).

Summing the splits' popcounts instead would give the same verdict on
every kernel the builder makes: a placeholder
sits at a branch's immediate post-dominator, so no thread can exit
inside its region, and the walk's double count only ever falls on
threads that wait at the reconvergence point, not at the barrier.  A
kernel whose exiting side runs first (no placeholder: its paths never
rejoin) releases under both.
"""

import pytest

from repro.core import presets
from repro.core.policy import DIVERGENCE, POLICIES
from repro.core.sm import SimulationError
from repro.core.simulator import simulate
from repro.functional.interp import run_kernel
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.timing.stack import StackModel
from repro.workloads import get_workload

from test_closed_form import barrier_kernel

KERNELS = ("transpose", "hotspot", "barrier_both_sides", "exit_one_side")
MUTATIONS = ("park", "exit_threads", "unpark_all")


def check_counters(model):
    splits = list(model.all_splits())
    parked = sum(s.mask.bit_count() for s in splits if s.parked)
    assert model.parked_threads == parked, (model, splits)
    live = model.launch_mask & ~model.exited_mask
    union = 0
    for s in splits:
        union |= s.mask
    assert live == union, (model, splits)
    if not isinstance(model, StackModel):
        assert live.bit_count() == sum(s.mask.bit_count() for s in splits)


@pytest.fixture
def checked(monkeypatch):
    """Wrap each model mutation with :func:`check_counters`; returns
    the count of checks by mutation name.  A mutation is wrapped where
    a registered model resolves it, inherited or not — the shared
    bookkeeping lives in the base class, and the stack's ``park`` is
    the base's — so each check runs after the whole mutation, never
    between the base's part and the model's."""
    counts = dict.fromkeys(MUTATIONS, 0)
    for name in DIVERGENCE.names():
        cls = DIVERGENCE.get(name)
        for mutation in MUTATIONS:
            original = getattr(cls, mutation)
            if getattr(original, "checked", False):
                continue  # a registered parent's, wrapped already

            def wrapped(self, *args, _original=original, _name=mutation):
                _original(self, *args)
                counts[_name] += 1
                check_counters(self)

            wrapped.checked = True
            monkeypatch.setattr(cls, mutation, wrapped)
    return counts


EXIT_CTA = 64
EXIT_GRID = 2


def exit_one_side_kernel():
    """Odd threads branch to an ``exit`` of their own; even threads
    store to shared memory, wait at the barrier, then read the next
    even thread's value and store it.  The two paths never rejoin, so
    the stack model pushes no placeholder and runs the exiting (taken)
    side first: the barrier holds only the even threads."""
    kb = KernelBuilder("exit_one_side")
    g, i, j, p, x, y = kb.regs("g", "i", "j", "p", "x", "y")
    kb.mad(g, kb.ctaid, EXIT_CTA, kb.tid)
    kb.mul(g, g, 4)
    kb.mul(i, kb.tid, 4)
    kb.add(j, kb.tid, 2)
    kb.and_(j, j, EXIT_CTA - 1)
    kb.mul(j, j, 4)
    kb.and_(p, kb.tid, 1)
    kb.setp(p, CmpOp.NE, p, 0)
    kb.bra("odd", cond=p)
    kb.mad(x, kb.tid, 2, 1)
    kb.st(0, x, index=i, space=MemSpace.SHARED)
    kb.bar()
    kb.ld(y, 0, index=j, space=MemSpace.SHARED)
    kb.st(kb.param(0), y, index=g)
    kb.exit_()
    kb.label("odd")
    kb.exit_()
    memory = MemoryImage()
    out = memory.alloc(EXIT_GRID * EXIT_CTA * 4)
    kernel = kb.build(
        cta_size=EXIT_CTA, grid_size=EXIT_GRID, params=(out,),
        shared_bytes=EXIT_CTA * 4,
    )
    return kernel, memory, out


def _build(kernel):
    if kernel == "barrier_both_sides":
        built, memory, _, _ = barrier_kernel()
        return built, memory
    if kernel == "exit_one_side":
        built, memory, _ = exit_one_side_kernel()
        return built, memory
    inst = get_workload(kernel, "tiny")
    return inst.kernel, inst.memory


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", POLICIES.names())
def test_barrier_counters_match_the_splits(policy, kernel, checked):
    built, memory = _build(kernel)
    config = presets.by_name(policy)
    if kernel == "barrier_both_sides" and policy == "baseline":
        # The closed-form suite's strict xfail (ROADMAP item 5 (f)):
        # the stack model deadlocks on this barrier; the counters
        # hold up to the deadlock.
        with pytest.raises(SimulationError):
            simulate(built, memory, config)
        assert checked["park"] > 0
        return
    simulate(built, memory, config)
    assert checked["park"] > 0 and checked["unpark_all"] > 0
    assert checked["exit_threads"] > 0


@pytest.mark.parametrize("policy", POLICIES.names())
def test_a_barrier_after_the_other_side_exited_releases(policy):
    """The stack model (``baseline``) included: the even side reaches
    the barrier after the odd side has exited, and is released."""
    kernel, memory, out = exit_one_side_kernel()
    simulate(kernel, memory, presets.by_name(policy))
    reference, reference_memory, _ = exit_one_side_kernel()
    run_kernel(reference, reference_memory)
    threads = EXIT_GRID * EXIT_CTA
    expected = []
    for t in range(threads):
        tid = t % EXIT_CTA
        neighbour = (tid + 2) % EXIT_CTA
        expected.append(0.0 if tid % 2 else 2.0 * neighbour + 1)
    assert memory.read_array(out, threads).tolist() == expected
    assert reference_memory.read_array(out, threads).tolist() == expected

