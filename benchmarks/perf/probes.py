"""Per-layer metrics: the trace plus direct probes of each layer.

Called once at the end of a traced run.  Spans give what the rounds
themselves did in this process; worker and daemon processes are not
instrumented, so their layers (and every layer's unit costs) are
probed here by calling the layer's public functions on the workload's
own cells.  Probes that simulate use ``workload.probe_spec()`` — one
policy over a few of the workload's kernels — to stay within seconds.

Every metric named in ``manifest.PER_LAYER`` is produced on every
workload.  ``service.daemon.*`` counts are the growth of the
workload's *own* daemon's counters over the measured rounds and read
0 where the workload has none.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.results import Result, ResultSet
from repro.api.spec import Cell
from repro.analysis.report import gmean
from repro.analytics import make_aggregators
from repro.core.gpu import simulate_device
from repro.core.simulator import simulate
from repro.functional.interp import run_kernel
from repro.service import protocol
from repro.service.journal import JobJournal
from repro.service.remote import RemoteClient
from repro.service.store import ResultStore
from repro.timing.config import GPUConfig
from repro.timing.stats import DeviceStats
from repro.workloads import category_of, get_workload

import manifest
from trace import Recorder, totals_by_name
from workloads import SRC_DIR, InProcessDaemon, cell_id

#: Cells the micro-probes (hashing, store, journal, protocol) loop over.
MICRO_CELLS = 64

#: cProfile ``tottime`` is attributed to the first matching bucket.
PROF_BUCKETS: Sequence[Tuple[str, Tuple[str, ...]]] = (
    ("core_sm_share", ("repro/core/sm.py", "repro/core/warp.py")),
    ("core_schedulers_share", ("repro/core/schedulers.py", "repro/core/policy/")),
    ("core_gpu_share", ("repro/core/gpu.py",)),
    ("timing_fetch_share", ("repro/timing/fetch.py",)),
    ("timing_scoreboard_share", ("repro/timing/scoreboard.py",)),
    (
        "timing_memory_share",
        ("repro/timing/lsu.py", "repro/timing/cache.py", "repro/timing/l2.py",
         "repro/timing/dram.py"),
    ),
    (
        "timing_divergence_share",
        ("repro/timing/stack.py", "repro/timing/hct.py", "repro/timing/frontier.py",
         "repro/timing/masks.py", "repro/timing/divergence.py"),
    ),
    ("functional_share", ("repro/functional/",)),
)


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _us_per_call(fn: Callable[[object], object], items: Sequence, floor: int = 256) -> float:
    """Microseconds per ``fn(item)``, looping until ``floor`` calls."""
    calls = 0
    start = time.perf_counter()
    while calls < floor:
        for item in items:
            fn(item)
        calls += len(items)
    return 1e6 * (time.perf_counter() - start) / calls


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def _simulate_cell(cell: Cell, single_sm: bool = False, **kwargs):
    """Build and simulate one cell; returns (build_s, simulate_s, stats)."""
    start = time.perf_counter()
    inst = get_workload(cell.workload, cell.size)
    built = time.perf_counter()
    if isinstance(cell.config, GPUConfig) and not single_sm:
        stats = simulate_device(inst.kernel, inst.memory, cell.config, **kwargs)
    else:
        config = cell.config.sm if isinstance(cell.config, GPUConfig) else cell.config
        stats = simulate(inst.kernel, inst.memory, config, **kwargs)
    return built - start, time.perf_counter() - built, stats


def _floor_simulate(cells: Iterable[Cell], repeats: int, **kwargs) -> float:
    """Seconds inside simulate for ``cells``, each cell's fastest of
    ``repeats`` (the host's noise only ever adds time)."""
    return sum(
        min(_simulate_cell(cell, **kwargs)[1] for _ in range(repeats)) for cell in cells
    )


def _as_tuples(cells: Sequence[Cell]):
    return [(c.workload, c.size, c.config_name, c.config) for c in cells]


# ----------------------------------------------------------------------
# Layer by layer
# ----------------------------------------------------------------------


def _api_spec(workload, out: Dict[str, float]) -> None:
    cells = 0

    def expand() -> None:
        nonlocal cells
        cells = sum(len(spec.cells()) for spec in workload.build_specs())

    out["api.spec.expand_us_per_cell"] = 1e6 * min(_timed(expand) for _ in range(3)) / cells
    out["api.spec.cells"] = cells


def _api_cache(recorder, traced, pairs, workdir, out) -> None:
    cells = [c for c, _ in pairs]
    out["api.cache.cell_key_us"] = _us_per_call(
        lambda c: result_cache.cell_key(c.workload, c.size, c.config), cells
    )
    out["api.cache.cell_hash_us"] = _us_per_call(
        lambda c: result_cache.cell_hash(c.workload, c.size, c.config), cells
    )
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out["api.cache.disk_store_us"] = _us_per_call(
            lambda p: result_cache.disk_store(tmp, p[0].workload, p[0].size, p[0].config, p[1]),
            pairs, floor=len(pairs),
        )
        out["api.cache.disk_load_us"] = _us_per_call(
            lambda c: result_cache.disk_load(tmp, c.workload, c.size, c.config), cells
        )
    rounds = len(traced)
    resolved = sum(s.cells for s in traced) / rounds
    local_hits = sum(s.local_hits for s in traced) / rounds
    disk_hits = (
        sum(1 for s in recorder.spans if s["name"] == "api.cache.disk_load" and s.get("note"))
        / rounds
    )
    out["api.cache.memo_hits"] = local_hits - disk_hits
    out["api.cache.disk_hits"] = disk_hits
    out["api.cache.misses"] = resolved - local_hits
    out["api.cache.hit_ratio"] = local_hits / resolved if resolved else 0.0


def _api_engine(by_name, untraced, traced, probe, inline_cpu_s, out) -> None:
    out["api.engine.first_result_ms"] = 1e3 * min(
        x for s in untraced for x in s.first_result_s
    )
    out["api.engine.cell_ms_p50"] = 1e3 * min(
        (statistics.median(s.intervals_s) for s in untraced if s.intervals_s), default=0.0
    )
    rounds = len(traced)
    resolved = sum(s.cells for s in traced) / rounds
    run_self = by_name.get("api.engine.run", {"self_s": 0.0})["self_s"] / rounds
    out["api.engine.run_self_s"] = run_self
    out["api.engine.self_us_per_cell"] = 1e6 * run_self / resolved if resolved else 0.0
    jobs = 2
    trivial = SweepSpec.from_presets(["baseline", "sbi_swi"], ["histogram"], "tiny")
    out["api.engine.pool_fixed_ms"] = 1e3 * _timed(
        lambda: Engine(backend="process", jobs=jobs, cache_dir=None, memo={}).run(trivial)
    )
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = time.process_time()
    wall = _timed(
        lambda: Engine(backend="process", jobs=jobs, cache_dir=None, memo={}).run(probe)
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    pool_cpu = (
        time.process_time() - own
        + after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    )
    cells = len(probe.cells())
    out["api.engine.pool_overhead_ms_per_cell"] = 1e3 * (pool_cpu - inline_cpu_s) / cells
    out["api.engine.pool_efficiency"] = inline_cpu_s / (jobs * wall)


def _api_results(pairs, out) -> None:
    results = ResultSet(Result(c.workload, c.size, c.config_name, s) for c, s in pairs)
    text = ""

    def to_json() -> None:
        nonlocal text
        text = results.to_json()

    out["api.results.to_json_us_per_cell"] = 1e6 * _timed(to_json) / len(results)
    out["api.results.from_json_us_per_cell"] = (
        1e6 * _timed(lambda: ResultSet.from_json(text)) / len(results)
    )
    out["api.results.geo_mean_ms"] = 1e3 * _timed(results.geo_mean)


def _simulation(workload, by_name, traced, probe_cells, out) -> Tuple[float, float]:
    """``workloads``, ``core``, ``functional``, ``analytics`` and
    ``prof`` rows; returns the probe's (wall, cpu) seconds inline."""
    builds = [
        _timed(lambda k=kernel, z=size: get_workload(k, z))
        for kernel, size in dict.fromkeys((c.workload, c.size) for c in workload.cells())
    ]
    out["workloads.build_ms_p50"] = 1e3 * statistics.median(builds)
    out["workloads.build_ms_max"] = 1e3 * max(builds)

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    plain = [_simulate_cell(cell) for cell in probe_cells]
    inline_wall = time.perf_counter() - wall0
    inline_cpu = time.process_time() - cpu0
    # Small probes are repeated and floored; a probe of seconds runs once.
    repeats = max(1, min(3, int(2.0 / sum(sim for _, sim, _ in plain))))

    def floor(**kwargs) -> float:
        return _floor_simulate(probe_cells, repeats, **kwargs)

    simulate_s = min(sum(sim for _, sim, _ in plain), floor()) if repeats > 1 else sum(
        sim for _, sim, _ in plain
    )
    issues = sum(stats.instructions_issued for _, _, stats in plain)
    cycles = sum(stats.cycles for _, _, stats in plain)
    out["core.simulate_s"] = simulate_s
    out["core.host_us_per_issue"] = 1e6 * simulate_s / issues
    out["core.host_us_per_sim_cycle"] = 1e6 * simulate_s / cycles
    out["core.scan_over_event_ratio"] = floor(engine="reference") / simulate_s

    # What the traced rounds spent building and simulating, as a share
    # of their own cost: spans over wall time when the generator
    # simulates; per-cell probe costs scaled to the round over its CPU
    # when pool workers do; nothing when the round only reads.
    spans_build = by_name.get("workloads.build", {"total_s": 0.0})["total_s"]
    spans_sim = by_name.get("core.simulate", {"total_s": 0.0})["total_s"]
    round_cost = sum(s.wall_s for s in traced)
    if workload.worker == "children":
        simulated = sum(s.cells - s.local_hits for s in traced)
        spans_build = simulated * sum(b for b, _, _ in plain) / len(plain)
        spans_sim = simulated * sum(sim for _, sim, _ in plain) / len(plain)
        round_cost = sum(s.cpu_s for s in traced)
    out["workloads.build_share"] = spans_build / round_cost
    out["core.simulate_share"] = spans_sim / round_cost

    run_kernel_s = sum(
        min(
            _timed(lambda inst=get_workload(c.workload, c.size): run_kernel(inst.kernel, inst.memory))
            for _ in range(repeats)
        )
        for c in probe_cells
    )
    out["functional.run_kernel_s"] = run_kernel_s
    out["functional.share_of_simulate"] = run_kernel_s / simulate_s
    single = (
        floor(single_sm=True)
        if any(isinstance(c.config, GPUConfig) for c in probe_cells)
        else simulate_s
    )
    out["functional.interp_over_compiled_ratio"] = (
        floor(single_sm=True, compiled=False) / single
    )
    out["analytics.observed_over_plain_ratio"] = (
        sum(
            min(
                _simulate_cell(
                    cell,
                    observers=list(
                        make_aggregators(["timeline", "heatmap", "origins"]).values()
                    ),
                )[1]
                for _ in range(repeats)
            )
            for cell in probe_cells
        )
        / simulate_s
    )

    profile = cProfile.Profile()
    instances = [(get_workload(c.workload, c.size), c.config) for c in probe_cells]
    profile.enable()
    for inst, config in instances:
        if isinstance(config, GPUConfig):
            simulate_device(inst.kernel, inst.memory, config)
        else:
            simulate(inst.kernel, inst.memory, config)
    profile.disable()
    shares = {name: 0.0 for name, _ in PROF_BUCKETS}
    shares["other_share"] = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        filename = filename.replace(os.sep, "/")
        bucket = next(
            (name for name, needles in PROF_BUCKETS if any(n in filename for n in needles)),
            "other_share",
        )
        shares[bucket] += tottime
    total = sum(shares.values())
    for name, seconds in shares.items():
        out["prof.%s" % name] = seconds / total
    return inline_wall, inline_cpu


def _timing(workload, stats_by_id, out) -> None:
    """Modelled counters summed over one round's cells: simulated
    quantities, exact, identical across a simulator-speed change."""
    cells = {cell_id(c.workload, c.size, c.config_name): c for c in workload.cells()}
    sm_fields = (
        "instructions_issued", "thread_instructions", "issued_sbi_secondary",
        "issued_swi_secondary", "l1_accesses", "l1_hits", "memory_replays",
        "branches", "divergent_branches", "swi_lookups", "swi_hits", "scheduler_conflicts",
    )
    sums = {name: 0 for name in sm_fields}
    cycles = l2_accesses = l2_hits = 0
    dram_bytes = 0.0
    ipc: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for key, cell in cells.items():
        stats = stats_by_id[key]
        cycles += stats.cycles
        dram_bytes += stats.dram_bytes
        per_sm = stats
        if isinstance(stats, DeviceStats):
            l2_accesses += stats.l2_accesses
            l2_hits += stats.l2_hits
            per_sm = stats.total
        for name in sm_fields:
            sums[name] += getattr(per_sm, name)
        policy, _, variant = cell.config_name.partition("/")
        ipc.setdefault((cell.workload, cell.size, variant), {})[policy] = stats.ipc

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["timing.sim_cycles"] = cycles
    out["timing.issues"] = sums["instructions_issued"]
    for name in (
        "thread_instructions", "issued_sbi_secondary", "issued_swi_secondary",
        "l1_accesses", "memory_replays", "scheduler_conflicts",
    ):
        out["timing.%s" % name] = sums[name]
    out["timing.dram_bytes"] = dram_bytes
    out["timing.l1_hit_ratio"] = ratio(sums["l1_hits"], sums["l1_accesses"])
    out["timing.l2_hit_ratio"] = ratio(l2_hits, l2_accesses)
    out["timing.divergent_branch_ratio"] = ratio(sums["divergent_branches"], sums["branches"])
    out["timing.swi_hit_ratio"] = ratio(sums["swi_hits"], sums["swi_lookups"])
    for category in ("regular", "irregular"):
        gains = [
            row["sbi_swi"] / row["baseline"]
            for (kernel, _, _), row in ipc.items()
            if category_of(kernel) == category and "sbi_swi" in row and "baseline" in row
        ]
        out["timing.ipc_gain_%s_pct" % category] = (
            100.0 * (gmean(gains) - 1.0) if gains else 0.0
        )


def _service_local(pairs, workdir, out) -> None:
    """protocol, store and journal, called directly on the cells."""
    cells = [c for c, _ in pairs]
    message = protocol.submit_message(_as_tuples(cells))
    line = protocol.encode(message)
    out["service.protocol.encode_us_per_cell"] = (
        _us_per_call(protocol.encode, [message], floor=20) / len(cells)
    )
    out["service.protocol.decode_us_per_cell"] = (
        _us_per_call(lambda raw: protocol.decode_submit(protocol.decode(raw)), [line], floor=20)
        / len(cells)
    )
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        store = ResultStore(os.path.join(tmp, "store"))
        out["service.store.store_us"] = _us_per_call(
            lambda p: store.store(p[0].workload, p[0].size, p[0].config, p[1]),
            pairs, floor=len(pairs),
        )
        digests = list(store.digests())
        out["service.store.load_us"] = _us_per_call(store.load_stats, digests)
        out["service.store.get_entry_us"] = _us_per_call(store.get_entry, digests)
        out["service.store.verify_entries_per_s"] = len(digests) / _timed(store.verify)
        out["service.store.gc_scan_entries_per_s"] = len(digests) / _timed(
            lambda: store.gc(max_entries=len(digests), dry_run=True)
        )
        path = os.path.join(tmp, "journal.ndjson")
        with JobJournal(path) as journal:
            journal.record_job("j000001", False, protocol.decode_submit(message)[0])
            out["service.journal.append_us"] = _us_per_call(
                lambda i: journal.record_cell("j000001", i, digests[i], protocol.STATUS_OK),
                range(len(digests)), floor=len(digests),
            )
        records = 1 + len(digests)
        out["service.journal.replay_records_per_s"] = records / _timed(
            lambda: JobJournal.replay_path(path)
        )


def _drain(client: RemoteClient, job_id: str) -> float:
    """Follow a job's event stream to its end; seconds to the first event."""
    start = time.perf_counter()
    first = None
    for _ in client.events(job_id):
        if first is None:
            first = time.perf_counter() - start
    return first or 0.0


def _service_remote(probe_cells, inline_wall_s, untraced, workdir, out) -> None:
    """A fresh in-process daemon on an empty store: the probe cells
    cold (simulated by its workers), then again as store hits."""
    retries = 0

    def counting_sleep(seconds: float) -> None:
        nonlocal retries
        retries += 1
        time.sleep(seconds)

    tuples = _as_tuples(probe_cells)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        daemon = InProcessDaemon(tmp, workers=2)
        try:
            client = RemoteClient(daemon.url, sleep=counting_sleep)
            start = time.perf_counter()
            _drain(client, str(client.submit(tuples)["job"]))
            cold = time.perf_counter() - start
            out["service.daemon.cold_overhead_ms_per_cell"] = (
                1e3 * (cold - inline_wall_s) / len(tuples)
            )
            submits: List[float] = []
            firsts: List[float] = []
            for _ in range(10):
                start = time.perf_counter()
                job_id = str(client.submit(tuples)["job"])
                submits.append(time.perf_counter() - start)
                firsts.append(submits[-1] + _drain(client, job_id))
            digests = [
                result_cache.cell_hash(w, z, config) for w, z, _, config in tuples
            ]
            lookups: List[float] = []
            while len(lookups) < 200:
                for digest in digests:
                    lookups.append(_timed(lambda: client.cell(digest)))
        finally:
            daemon.stop()
    out["service.remote.submit_ms_p50"] = 1e3 * statistics.median(submits)
    out["service.remote.first_event_ms_p50"] = 1e3 * statistics.median(firsts)
    out["service.remote.lookup_ms_p50"] = 1e3 * statistics.median(lookups)
    out["service.remote.lookup_ms_p99"] = 1e3 * _percentile(lookups, 0.99)
    intervals = [x for s in untraced for x in s.intervals_s]
    out["service.remote.cell_ms_p99"] = 1e3 * _percentile(intervals, 0.99)
    out["service.remote.retries"] = retries


def _service_daemon(workload, samples, out) -> None:
    growth = {name: 0.0 for name in ("store", "coalesced", "simulated", "failed")}
    if workload.daemon is not None:
        now = RemoteClient(workload.daemon.url).health()["counters"]
        for name in growth:
            key = "cells_%s" % name
            growth[name] = (now[key] - workload.counters_before[key]) / len(samples)
    for name, value in growth.items():
        out["service.daemon.cells_%s" % name] = value


def _cli(out) -> None:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out["cli.startup_ms"] = 1e3 * statistics.median(
        _timed(
            lambda: subprocess.run(
                [sys.executable, "-m", "repro.cli", "workloads"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
            )
        )
        for _ in range(3)
    )


def per_layer_metrics(
    workload, recorder: Recorder, samples: Sequence, workdir: str
) -> Dict[str, Dict[str, object]]:
    untraced, traced = samples[0::2], samples[1::2]
    by_name = totals_by_name(recorder.spans)
    stats_by_id = traced[-1].stats_by_id
    pairs = [
        (cell, stats_by_id[cell_id(cell.workload, cell.size, cell.config_name)])
        for cell in workload.cells()[:MICRO_CELLS]
    ]
    probe = workload.probe_spec()
    probe_cells = probe.cells()

    out: Dict[str, float] = {}
    _api_spec(workload, out)
    _api_cache(recorder, traced, pairs, workdir, out)
    inline_wall, inline_cpu = _simulation(workload, by_name, traced, probe_cells, out)
    _api_engine(by_name, untraced, traced, probe, inline_cpu, out)
    _api_results(pairs, out)
    _timing(workload, stats_by_id, out)
    _service_local(pairs, workdir, out)
    _service_remote(probe_cells, inline_wall, untraced, workdir, out)
    _service_daemon(workload, samples, out)
    _cli(out)
    out["trace.overhead_ratio"] = min(s.wall_s for s in traced) / min(
        s.wall_s for s in untraced
    )

    units = {row["name"]: row["unit"] for row in manifest.PER_LAYER}
    missing = set(units) - set(out)
    if missing or set(out) - set(units):
        raise RuntimeError(
            "per-layer rows out of step with manifest.PER_LAYER: missing %s, extra %s"
            % (sorted(missing), sorted(set(out) - set(units)))
        )
    return {
        name: {"value": float(out[name]), "unit": units[name]}
        for name in units
    }
