"""The five closed-loop workloads, as an architect would run them.

Every workload is one generator process driving the public API
(``repro.api.Engine``, ``repro.service``).  ``--seed`` shuffles the
order of kernels and configurations in each generated ``SweepSpec``
(and draws the axis values of ``warm_sweep``); the program only ever
sees the spec.  The *lead* cell — first kernel under the first
configuration — stays in front for every seed, because the time to
the first result is the time of whichever cell leads, and that number
has to be comparable between seeds.

A workload is a small object:

``build_specs()``  the generated input (pure function of the seed);
``setup()``        everything a user pays before the first round;
``round(rec)``     one closed-loop round, returning its ``Call`` s;
``teardown()``     release what ``setup`` opened.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.engine import Progress
from repro.api.results import ResultSet
from repro.api.spec import Cell
from repro.core import presets
from repro.core.gpu import simulate_device
from repro.core.simulator import simulate
from repro.workloads import ALL_WORKLOADS, get_workload

from trace import Recorder, span_or_null

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

# ISSUE 11 asked for 4 + 4 kernels; blackscholes and lud are trimmed so
# that a 15 s run holds three rounds to take a median over.  mandelbrot
# stays: it is the only kernel here on which SBI co-issues a secondary
# instruction at bench size.
REGULAR3 = ("matrixmul", "transpose", "hotspot")
IRREGULAR3 = ("bfs", "histogram", "mandelbrot")
POLICIES4 = ("baseline", "sbi", "swi", "sbi_swi")
#: The suite minus its five heavy kernels: small uniform cells, so
#: per-cell overheads (spawn, pickling, store, journal) are visible.
LIGHT16 = tuple(
    w
    for w in ALL_WORKLOADS
    if w not in ("eigenvalues", "tmd1", "tmd2", "needleman_wunsch", "sortingnetworks")
)
#: served_sweep fills its daemon cold three times per run (set-up is
#: repeated), so it sweeps every other light kernel.
LIGHT8 = LIGHT16[::2]


def cell_id(workload: str, size: str, config_name: str) -> str:
    return "%s@%s/%s" % (workload, size, config_name)


def lead_shuffled(rng: random.Random, items: Sequence) -> List:
    """``items`` shuffled by ``rng`` with ``items[0]`` kept in front."""
    tail = list(items[1:])
    rng.shuffle(tail)
    return [items[0]] + tail


def shuffled_spec(rng: random.Random, spec: SweepSpec) -> SweepSpec:
    names = lead_shuffled(rng, list(spec.configs))
    return SweepSpec(
        workloads=lead_shuffled(rng, spec.workloads),
        configs={name: spec.configs[name] for name in names},
        sizes=spec.sizes,
    )


# ----------------------------------------------------------------------
# One Engine.run, as the user saw it
# ----------------------------------------------------------------------


@dataclass
class Call:
    entry: float = 0.0
    #: ``perf_counter`` at every Progress callback.
    stamps: List[float] = field(default_factory=list)
    events: List[Progress] = field(default_factory=list)
    results: Optional[ResultSet] = None
    attempted: int = 0
    crashed: Optional[str] = None


def run_call(engine: Engine, spec: SweepSpec, recorder: Optional[Recorder] = None) -> Call:
    """Run ``spec`` and stamp every Progress callback as it arrives."""
    call = Call(attempted=len(spec.cells()))

    def on_progress(event: Progress) -> None:
        call.stamps.append(time.perf_counter())
        call.events.append(event)

    call.entry = time.perf_counter()
    try:
        with span_or_null(recorder, "api.engine.run"):
            call.results = engine.run(spec, progress=on_progress, errors="collect")
    except Exception as exc:  # noqa: BLE001 — a crashed sweep is a failed sweep, not a dead benchmark
        call.crashed = "%s: %s" % (type(exc).__name__, exc)
    return call


def inline_engine(recorder: Optional[Recorder], **kwargs) -> Engine:
    """A cold inline engine; traced runs inject span-wrapped layer
    entry points through the constructor's own hooks."""
    hooks = {}
    if recorder is not None:
        hooks = dict(
            workload_factory=recorder.wrap("workloads.build", get_workload),
            simulate_fn=recorder.wrap("core.simulate", simulate),
            simulate_device_fn=recorder.wrap("core.simulate", simulate_device),
        )
    hooks.update(kwargs)
    return Engine(backend="inline", memo={}, **hooks)


# ----------------------------------------------------------------------
# Daemons
# ----------------------------------------------------------------------


class SubprocessDaemon:
    """A real ``python -m repro.cli serve`` child on a free port."""

    def __init__(self, store_dir: str, workers: int = 2) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", str(workers), "--store", store_dir,
            ],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=store_dir,
        )
        self.pid: Optional[int] = self.proc.pid
        self.url = ""
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if "listening on " in line:
                self.url = line.split("listening on ", 1)[1].split()[0]
                break
        if not self.url:
            self.stop()
            raise RuntimeError("repro serve exited before listening")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class InProcessDaemon:
    """``make_server`` on a thread of this process (``--quick`` and the
    service-layer probes)."""

    pid: Optional[int] = None

    def __init__(self, store_dir: str, workers: int = 2) -> None:
        from repro.service.daemon import make_server

        self.server = make_server(port=0, store_dir=store_dir, workers=workers)
        host, port = self.server.server_address[:2]
        self.url = "http://%s:%d" % (host, port)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.service.shutdown_gracefully()
        self.server.server_close()
        self.thread.join(timeout=30)
        journal = self.server.service.journal
        if journal is not None:
            journal.close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    name = ""
    #: False where the outputs are checked against what setup stored
    #: rather than against ``golden.json``.
    golden = True
    #: Which process simulates (and so whose peak RSS counts):
    #: "generator", reaped pool "children", or the "daemon".
    worker = "generator"
    daemon = None

    def __init__(self, seed: int, workdir: str, quick: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.specs: List[SweepSpec] = []

    def rng(self) -> random.Random:
        return random.Random("%s:%d" % (self.name, self.seed))

    def build_specs(self) -> List[SweepSpec]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate inputs that are not the system's own set-up work."""

    def setup(self) -> None:
        self.specs = self.build_specs()

    def lead_calls(self, calls: Sequence[Call]) -> Sequence[Call]:
        """The calls whose first Progress is a user's first result:
        the round's first sweep (every client's, when there are several)."""
        return calls[:1]

    def round(self, recorder: Optional[Recorder]) -> List[Call]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    #: Kernels and configuration the simulation-level layer probes
    #: re-run inline (None = every kernel): one policy, a few seconds.
    probe_kernels: Optional[Sequence[str]] = None
    probe_config = "sbi_swi"

    def probe_spec(self) -> SweepSpec:
        spec = self.specs[0]
        name = next(
            (n for n in spec.configs if n.startswith(self.probe_config)),
            next(iter(spec.configs)),
        )
        kernels = [
            k for k in spec.workloads
            if self.probe_kernels is None or k in self.probe_kernels
        ] or list(spec.workloads[:1])
        return SweepSpec(
            workloads=kernels, configs={name: spec.configs[name]}, sizes=spec.sizes
        )

    @property
    def daemon_pid(self) -> Optional[int]:
        """The daemon child's pid (None without one, or in-process)."""
        return self.daemon.pid if self.daemon is not None else None

    def scratch(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def cells(self) -> List[Cell]:
        return [cell for spec in self.specs for cell in spec.cells()]


class SmCold(Workload):
    name = "sm_cold"
    probe_kernels = ("matrixmul", "transpose", "bfs", "histogram")

    def build_specs(self) -> List[SweepSpec]:
        if self.quick:
            spec = SweepSpec.from_presets(("baseline", "sbi_swi"), ["histogram"], "tiny")
        else:
            spec = SweepSpec.from_presets(POLICIES4, REGULAR3 + IRREGULAR3, "bench")
        return [shuffled_spec(self.rng(), spec)]

    def round(self, recorder: Optional[Recorder]) -> List[Call]:
        engine = inline_engine(recorder, cache_dir=None)
        return [run_call(engine, spec, recorder) for spec in self.specs]


class DeviceCold(SmCold):
    name = "device_cold"
    # ISSUE 11 asked for 3 kernels x {4, 16} SMs + 1 private-channel
    # cell (7 cells, 8 s a round, two rounds a run); the 4-SM column is
    # trimmed to transpose so that a run holds three rounds.
    # The probes run at 16 SMs: where the event heap's claimed win over
    # the scan loop (ROADMAP "one loop" item a) has to show if it exists.
    probe_kernels = ("matrixmul",)

    def build_specs(self) -> List[SweepSpec]:
        size = "tiny" if self.quick else "full"
        narrow = SweepSpec(
            workloads=["transpose"],
            configs={
                "sbi_swi/sm_count=4": presets.device("sbi_swi", sm_count=4),
                "sbi_swi/l2_size=0": presets.device("sbi_swi", l2_size=0),
            },
            sizes=size,
        )
        if self.quick:
            return [narrow]
        wide = SweepSpec(
            workloads=["transpose", "matrixmul", "blackscholes"],
            configs={"sbi_swi/sm_count=16": presets.device("sbi_swi", sm_count=16)},
            sizes=size,
        )
        return [shuffled_spec(self.rng(), wide), narrow]


def _must_not_simulate(*args, **kwargs):
    raise AssertionError("warm_sweep performed a simulation: a cache level missed")


class WarmSweep(Workload):
    name = "warm_sweep"
    golden = False
    probe_kernels = ("matrixmul", "transpose", "bfs", "histogram")

    def build_specs(self) -> List[SweepSpec]:
        rng = self.rng()
        if self.quick:
            base = SweepSpec.from_presets(["baseline"], ["histogram", "bfs"], "tiny")
            axes = dict(dram_latency=[rng.randrange(200, 500)])
        else:
            base = SweepSpec.figure7(size="tiny")
            axes = dict(
                dram_latency=sorted(rng.sample(range(200, 500), 6)),
                cta_launch_latency=sorted(rng.sample(range(4, 40), 4)),
            )
        return [shuffled_spec(rng, base.with_axes(**axes))]

    def prepare(self) -> None:
        """A warm disk cache: every cell of the sweep stored under its
        own key, holding its kernel's tiny baseline ``Stats``.

        This is the benchmark fabricating its input, not something a
        user waits for (their cache is warm because an earlier sweep
        simulated), so it is not part of ``setup_s``; the per-layer row
        ``api.cache.disk_store_us`` has what a store costs.  It could
        not be gated anyway: creating these 2 520 files takes the
        reference host's kernel 0.15 s or 1.3 s, depending on how many
        files its filesystem has lately seen deleted.
        """
        config = presets.by_name("baseline")
        (spec,) = self.build_specs()
        self.kernel_stats: Dict[str, result_cache.AnyStats] = {}
        for kernel in spec.workloads:
            inst = get_workload(kernel, "tiny")
            self.kernel_stats[kernel] = simulate(inst.kernel, inst.memory, config)
        self.cache_dir = self.scratch("warm-cache-")
        for cell in spec.cells():
            result_cache.disk_store(
                self.cache_dir, cell.workload, cell.size, cell.config,
                self.kernel_stats[cell.workload],
            )

    def round(self, recorder: Optional[Recorder]) -> List[Call]:
        (spec,) = self.specs
        engine = Engine(
            backend="inline",
            cache_dir=self.cache_dir,
            memo={},
            workload_factory=_must_not_simulate,
            simulate_fn=_must_not_simulate,
            simulate_device_fn=_must_not_simulate,
        )
        disk = run_call(engine, spec, recorder)
        memo = run_call(engine, spec, recorder)
        if memo.results is not None:
            with span_or_null(recorder, "api.results.to_json"):
                memo.results.to_json()
            with span_or_null(recorder, "api.results.geo_mean"):
                memo.results.geo_mean()
        return [disk, memo]


class PoolSweep(Workload):
    name = "pool_sweep"
    kernels = LIGHT16
    worker = "children"

    def build_specs(self) -> List[SweepSpec]:
        if self.quick:
            spec = SweepSpec.from_presets(["baseline"], ["histogram", "transpose"], "tiny")
        else:
            spec = SweepSpec.from_presets(presets.FIGURE7_CONFIGS, self.kernels, "tiny")
        return [shuffled_spec(self.rng(), spec)]

    def round(self, recorder: Optional[Recorder]) -> List[Call]:
        cache_dir = self.scratch("pool-cache-")
        try:
            engine = Engine(backend="process", jobs=2, cache_dir=cache_dir, memo={})
            return [run_call(engine, spec, recorder) for spec in self.specs]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class ServedSweep(PoolSweep):
    name = "served_sweep"
    kernels = LIGHT8
    worker = "daemon"
    clients = 2
    #: Sweeps each client runs back to back in a round.  One sweep is
    #: ~40 ms of daemon CPU, which /proc/<pid>/stat counts in 10 ms
    #: ticks; ten make the round's CPU figure mean something.
    sweeps = 10

    def setup(self) -> None:
        Workload.setup(self)
        self.store_dir = self.scratch("served-store-")
        factory = InProcessDaemon if self.quick else SubprocessDaemon
        self.daemon = factory(self.store_dir, workers=2)
        # Cold fill: the daemon simulates every cell once.
        fill = run_call(self.client(), self.specs[0])
        if fill.crashed or fill.results is None or fill.results.errors:
            self.teardown()
            raise RuntimeError("cold fill through the daemon failed: %s" % (fill.crashed,))
        from repro.service.remote import RemoteClient

        self.counters_before = RemoteClient(self.daemon.url).health()["counters"]

    def client(self) -> Engine:
        return Engine(server=self.daemon.url, cache_dir=None, memo={})

    def round(self, recorder: Optional[Recorder]) -> List[Call]:
        calls: List[List[Call]] = [[] for _ in range(self.clients)]

        def one_client(index: int) -> None:
            for _ in range(1 if self.quick else self.sweeps):
                calls[index].append(run_call(self.client(), self.specs[0], recorder))

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [call for per_client in calls for call in per_client]

    def lead_calls(self, calls: Sequence[Call]) -> Sequence[Call]:
        return calls

    def teardown(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (SmCold, DeviceCold, WarmSweep, PoolSweep, ServedSweep)
}
