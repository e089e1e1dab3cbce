"""A deterministic gauge of build work: workload builds, plan compiles
and plan shapes generated per sweep.

The evaluation's grids run every kernel under several machines (Figure
7: five), so what a cell costs before it simulates is how often its
workload is built and its instructions compiled: once per *cell* (the
tree before this gauge, b02a578, did both in every cell, and every
``jobs=N`` worker did them again from nothing) or once per *process*.
:func:`repro.workloads.get_workload` now builds each (workload, size)
once and hands every call the one kernel with a new image filled from
the build's words, a compiled plan depends on its instruction and warp
width alone and is kept by the program
(:meth:`repro.isa.program.Program.plan_table`), and the ``process``
backend builds and compiles its pending cells in the parent before its
pool forks.  A plan is generated from its instruction's shape
(:mod:`repro.functional.compiled`): one factory per distinct shape in
the process, so a sweep's shapes are far fewer than its compiles.  The
counts here repeat exactly, so they are pinned without a timing run,
in the mould of ``tests/test_keying_work.py``.

``python tests/test_build_work.py`` prints the table.
"""

import collections
import contextlib
import importlib
import multiprocessing
import os
from unittest import mock

import pytest

from repro.api import Engine, SweepSpec
from repro.core import presets
from repro.functional import compiled as compiled_plans
from repro.workloads import suite

#: The light kernels of the pool sweep, under every Figure 7 machine.
POOL_KERNELS = ("histogram", "transpose", "bfs", "mandelbrot")

#: What the tree before this gauge (b02a578) counted, per sweep:
#: ``(builds, plan compiles)`` of an inline ``figure7(size="tiny")``
#: sweep (every sweep alike), and of a ``jobs=2`` sweep of
#: :data:`POOL_KERNELS`, all of it in the workers.
PARENT_INLINE = (105, 5435)
PARENT_POOL_WORKERS = (20, 660)

#: Plan shapes an inline ``figure7(size="tiny")`` sweep generates from
#: a cold process, at its two warp widths.
SHAPES_INLINE = 69


class Work:
    """Counts workload builds, plan compiles and plan shapes while
    :meth:`counting` is open, from a cold start (no workload built and
    no shape generated in the process): this process's by (workload,
    size), by (instruction, warp width) and by shape, and the total of
    any worker process it forks."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.builds: collections.Counter = collections.Counter()
        self.compiles: collections.Counter = collections.Counter()
        self.shapes: collections.Counter = collections.Counter()
        self._instrs: list = []  # keeps the ids in ``compiles`` unique
        # Created before any fork, so a forked worker adds to them.
        self.worker_builds = multiprocessing.Value("i", 0)
        self.worker_compiles = multiprocessing.Value("i", 0)
        self.worker_shapes = multiprocessing.Value("i", 0)

    def take(self):
        """``(builds, compiles, shapes)`` here since the last take."""
        counts = (
            sum(self.builds.values()), sum(self.compiles.values()), sum(self.shapes.values())
        )
        self.builds.clear()
        self.compiles.clear()
        self.shapes.clear()
        return counts

    def _count(self, here, key, shared) -> None:
        if os.getpid() == self.pid:
            here[key] += 1
        else:
            with shared.get_lock():
                shared.value += 1

    @contextlib.contextmanager
    def counting(self):
        patches = [
            mock.patch.object(suite, "_BUILT", {}),
            mock.patch.object(compiled_plans, "_FACTORIES", {}),
        ]
        for module_name in {info.module for info in suite.list_workloads()}:
            module = importlib.import_module(module_name)

            def counted_build(size, *args, _build=module.build, _name=module_name, **kwargs):
                self._count(self.builds, (kwargs.get("variant", _name), size), self.worker_builds)
                return _build(size, *args, **kwargs)

            patches.append(mock.patch.object(module, "build", counted_build))
        compile_plan = compiled_plans.compile_plan

        def counted_compile(instr, *args):
            self._instrs.append(instr)
            self._count(self.compiles, (id(instr), args[-1]), self.worker_compiles)
            shapes = len(compiled_plans._FACTORIES)
            plan = compile_plan(instr, *args)
            if len(compiled_plans._FACTORIES) > shapes:
                self._count(self.shapes, shapes, self.worker_shapes)
            return plan

        patches.append(mock.patch.object(compiled_plans, "compile_plan", counted_compile))
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            yield self

    def widths_by_program(self):
        """Warp widths each built program was compiled at, and whether
        any instruction was compiled twice at one width."""
        program_of = {
            id(instr): built.kernel.program
            for built in suite._BUILT.values()
            for instr in built.kernel.program
        }
        widths = collections.defaultdict(set)
        for instr_id, width in self.compiles:
            widths[program_of[instr_id]].add(width)
        return widths, max(self.compiles.values(), default=0) > 1


def inline_sweeps():
    """``(cells, builds by (workload, size), widths by program, any
    recompile, (builds, compiles, shapes) of the first sweep, the same
    of a second)`` of two inline ``figure7(size="tiny")`` sweeps in one
    cold process."""
    spec = SweepSpec.figure7(size="tiny")
    with Work().counting() as work:
        Engine(backend="inline", memo={}).run(spec)
        builds = dict(work.builds)
        widths, recompiled = work.widths_by_program()
        first = work.take()
        Engine(backend="inline", memo={}).run(spec)
        second = work.take()
    return len(spec.cells()), builds, widths, recompiled, first, second


def pool_sweep():
    """``(cells, (builds, compiles, shapes) in the parent, the same in
    its workers)`` of a cold ``jobs=2`` sweep of :data:`POOL_KERNELS`
    under every Figure 7 machine."""
    spec = SweepSpec.from_presets(presets.FIGURE7_CONFIGS, POOL_KERNELS, "tiny")
    with Work().counting() as work:
        results = Engine(backend="process", jobs=2, memo={}).run(spec)
        assert len(results) == len(spec.cells()) and not results.errors
        parent = work.take()
    workers = (work.worker_builds.value, work.worker_compiles.value, work.worker_shapes.value)
    return len(spec.cells()), parent, workers


@pytest.fixture(scope="module")
def inline():
    return inline_sweeps()


class TestBuildWork:
    def test_an_inline_sweep_builds_each_workload_once(self, inline):
        cells, builds, _, _, (total, _, _), _ = inline
        assert set(builds.values()) == {1}
        assert total == len(builds) == cells // len(presets.FIGURE7_CONFIGS) == 21
        assert total < PARENT_INLINE[0] == cells

    def test_it_compiles_each_program_once_per_width_in_use(self, inline):
        _, builds, widths, recompiled, (_, compiles, _), _ = inline
        in_use = {presets.by_name(name).warp_width for name in presets.FIGURE7_CONFIGS}
        assert in_use == {32, 64}
        assert len(widths) == len(builds)
        assert all(used == in_use for used in widths.values())
        assert not recompiled
        assert compiles < 0.5 * PARENT_INLINE[1]

    def test_it_generates_each_shape_once(self, inline):
        _, _, _, _, (_, compiles, shapes), _ = inline
        assert shapes == SHAPES_INLINE < 0.05 * compiles

    def test_a_second_sweep_builds_and_compiles_nothing(self, inline):
        assert inline[-1] == (0, 0, 0)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers start with the parent's builds only when forked",
    )
    def test_pool_workers_build_and_compile_nothing_the_parent_warmed(self):
        cells, (builds, compiles, shapes), workers = pool_sweep()
        assert builds == len(POOL_KERNELS) and compiles > shapes > 0
        assert workers == (0, 0, 0)
        assert PARENT_POOL_WORKERS[0] == cells


def main() -> None:
    cells, _, _, _, first, second = inline_sweeps()
    print("| sweep | cells | builds (b02a578) | builds | plan compiles (b02a578)"
          " | plan compiles | plan shapes |")
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
    for name, (builds, compiles, shapes) in (("first", first), ("second", second)):
        print("| figure7 tiny, inline, %s in the process | %d | %d | %d | %d | %d | %d |" % (
            (name, cells) + PARENT_INLINE + (builds, compiles, shapes)
        ))
    if multiprocessing.get_start_method() == "fork":
        cells, parent, workers = pool_sweep()
        print("| %d kernels x 5 machines, jobs=2: parent | %d | 0 | %d | 0 | %d | %d |" % (
            (len(POOL_KERNELS), cells, parent[0], parent[1], parent[2])
        ))
        print("| %d kernels x 5 machines, jobs=2: workers | %d | %d | %d | %d | %d | %d |" % (
            (len(POOL_KERNELS), cells) + PARENT_POOL_WORKERS + workers
        ))


if __name__ == "__main__":
    main()
