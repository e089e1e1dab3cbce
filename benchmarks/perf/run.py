#!/usr/bin/env python3
"""The repo benchmark: five sweep workloads measured from outside.

    python3 benchmarks/perf/run.py --workload sm_cold --seed 1 --seconds 15 --trace 0
    python3 benchmarks/perf/run.py --seed 1 --trace 1 --out results.json   # all five
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py --refresh-golden

With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics under ``--trace 0`` (no recorder exists in that
process), the per-layer metrics under ``--trace 1`` (or ``--trace
PATH``, which also writes the spans).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Scratch space (caches, stores, journals) — inside the checkout,
#: git-ignored, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".bench_tmp")

#: Set-up (and the API import) is repeated and its median reported, so
#: one slow fill or daemon start does not decide ``setup_s``.
SETUP_REPEATS = 3


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``WORK_ROOT``, removed on exit (and
    ``WORK_ROOT`` with it once no other run is using it)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it


def bootstrap() -> None:
    """Make ``repro`` importable.

    Byte-compiling first is this benchmark's build step: it keeps the
    first run in a fresh checkout from timing the compiler.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perf benchmark: no src/repro beside %s\n" % HERE)
        raise SystemExit(2)
    # A user-level cache or store would turn cold workloads warm.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_STORE_DIR", None)
    compileall.compile_dir(SRC, quiet=2, workers=1)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Host accounting
# ----------------------------------------------------------------------


def _proc_status_kib(pid: object, key: str) -> float:
    with open("/proc/%s/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    return 0.0


def _proc_cpu_s(pid: int) -> float:
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(daemon_pid: Optional[int]) -> float:
    """User+sys CPU of the generator, its reaped children (pool
    workers) and the daemon, so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + children.ru_utime + children.ru_stime
    if daemon_pid is not None:
        total += _proc_cpu_s(daemon_pid)
    return total


def peak_rss_mib(workload) -> float:
    """Peak RSS of the process that does the work."""
    if workload.worker == "children":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    pid = workload.daemon_pid if workload.worker == "daemon" else None
    return _proc_status_kib("self" if pid is None else pid, "VmHWM") / 1024.0


def host_stamp(seed: int, seconds: float) -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            # An exported checkout is no repository: do not look above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load > nproc:
        sys.stderr.write(
            "perf benchmark: load average %.2f exceeds nproc=%d — timings "
            "from this run are not trustworthy\n" % (load, nproc)
        )
    return {
        "nproc": nproc,
        "loadavg_start": load,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["cells"]


def stats_digest(stats) -> str:
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def expected_digests(workload) -> Dict[str, str]:
    """Cell id -> the digest a correct run must reproduce."""
    from workloads import cell_id

    if workload.golden:
        return load_golden()
    per_kernel = {k: stats_digest(s) for k, s in workload.kernel_stats.items()}
    return {
        cell_id(c.workload, c.size, c.config_name): per_kernel[c.workload]
        for c in workload.cells()
    }


def count_failed(calls: Sequence, expected: Dict[str, str]) -> int:
    """Cells that raised, never resolved, or resolved to other numbers."""
    from workloads import cell_id

    digests: Dict[int, str] = {}  # a memo hit hands back the same object

    def digest(stats) -> str:
        if id(stats) not in digests:
            digests[id(stats)] = stats_digest(stats)
        return digests[id(stats)]

    failed = 0
    for call in calls:
        if call.crashed is not None or call.results is None:
            failed += call.attempted
            continue
        good = sum(
            1
            for r in call.results
            if expected.get(cell_id(r.workload, r.size, r.config)) == digest(r.stats)
        )
        failed += call.attempted - good
    return failed


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def traced_cache(recorder):
    """Spans around ``repro.api.cache``'s public functions for the
    duration of a traced round (this process only); no-op otherwise."""
    if recorder is None:
        return contextlib.nullcontext()
    from repro.api import cache
    from trace import patched

    def span(name, note=None):
        return lambda fn: recorder.wrap("api.cache.%s" % name, fn, note)

    return patched(
        cache,
        {
            "cell_key": span("cell_key"),
            "cell_hash": span("cell_hash"),
            "disk_load": span("disk_load", note=lambda stats: stats is not None),
            "disk_store": span("disk_store"),
        },
    )


class RoundSample:
    """What one closed-loop round cost and produced."""

    def __init__(self, workload, recorder, expected, yardstick) -> None:
        cpu0 = cpu_seconds(workload.daemon_pid)
        start = time.perf_counter()
        with traced_cache(recorder):
            calls = workload.round(recorder)
        end = time.perf_counter()
        cpu = cpu_seconds(workload.daemon_pid) - cpu0
        # Everything below is bookkeeping outside the timed region.
        self.raw_wall_s = end - start
        self.peak_rss_mb = peak_rss_mib(workload)
        self.wall_s, self.cpu_s, self.host_speed = reference_seconds(yardstick, start, end, cpu)
        self.traced = recorder is not None
        self.cells = sum(len(call.events) for call in calls)
        self.attempted = sum(call.attempted for call in calls)
        self.failed = count_failed(calls, expected)
        self.first_result_s = [
            call.stamps[0] - call.entry for call in workload.lead_calls(calls) if call.stamps
        ]
        self.intervals_s = [
            b - a for call in calls for a, b in zip(call.stamps, call.stamps[1:])
        ]
        self.local_hits = sum(
            1 for call in calls for e in call.events if e.cached and e.source is None
        )
        self.stats_by_id = {}
        if recorder is not None:
            from workloads import cell_id

            for call in calls:
                for r in call.results or ():
                    self.stats_by_id[cell_id(r.workload, r.size, r.config)] = r.stats

    def summary(self) -> Dict[str, object]:
        return {
            "traced": self.traced,
            "raw_wall_s": self.raw_wall_s,
            "host_speed": self.host_speed,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "cells": self.cells,
            "failed": self.failed,
            "first_result_ms": [1e3 * s for s in self.first_result_s],
        }


def reference_seconds(yardstick, start: float, end: float, cpu: float = 0.0):
    """(wall, cpu, host speed) of ``[start, end]`` in reference-host
    seconds: less the yardstick's own time, times the mean host speed
    it sampled inside.  Raw seconds (speed 1.0) without a yardstick."""
    if yardstick is None:
        return end - start, cpu, 1.0
    own, speed = yardstick.between(start, end)
    return max(end - start - own, 0.0) * speed, max(cpu - own, 0.0) * speed, speed


def timed(yardstick, fn) -> float:
    """Wall time of ``fn()``, less the yardstick's own time inside it."""
    start = time.perf_counter()
    fn()
    end = time.perf_counter()
    return end - start - (yardstick.between(start, end)[0] if yardstick else 0.0)


def run_rounds(workload, seconds: float, expected, recorders, yardstick, min_laps: int):
    """Laps (one round per entry of ``recorders``: ``[None]`` end to
    end, ``[None, rec]`` traced) until ``seconds`` have passed.  A lap
    that would end well past ``seconds`` is not started, so a slow host
    stretches a run by a fraction of a lap, never a whole one.
    """
    samples: List[RoundSample] = []
    start = time.perf_counter()
    laps = 0
    while True:
        lap_start = time.perf_counter()
        for recorder in recorders:
            samples.append(RoundSample(workload, recorder, expected, yardstick))
        laps += 1
        now = time.perf_counter()
        elapsed, lap = now - start, now - lap_start
        if laps >= min_laps and (elapsed >= seconds or elapsed + lap > 1.3 * seconds):
            return samples


def end_to_end_metrics(samples, setup_s: float) -> Dict[str, Dict[str, object]]:
    """Host times are medians over the run's rounds, in reference-host
    seconds (``hostspeed``).  Peak RSS is read after the first round:
    the work behind that number is then the same on every host (and the
    daemon's grows with every sweep it has ever served)."""
    cells = samples[0].cells
    wall = statistics.median(s.wall_s for s in samples)
    cpu = statistics.median(s.cpu_s for s in samples)

    def metric(value: float, unit: str) -> Dict[str, object]:
        return {"value": value, "unit": unit}

    return {
        "cells_per_s": metric(cells / wall, "1/s"),
        "cpu_ms_per_cell": metric(1e3 * cpu / max(cells, 1), "ms"),
        "peak_rss_mb": metric(samples[0].peak_rss_mb, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


def import_api() -> None:
    """A fresh interpreter importing the API: the part of set-up every
    user pays before anything else."""
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.service, repro.workloads"],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------


def run_workload(args) -> int:
    from workloads import WORKLOADS

    traced = args.trace != "0"
    detail: Dict[str, object] = {
        "workload": args.workload,
        "trace": traced,
        "host": host_stamp(args.seed, args.seconds),
    }
    # End-to-end times are in reference-host seconds; the traced run
    # reports raw host time and keeps the yardstick out of its spans.
    yardstick = None if traced else hostspeed.Yardstick()
    repeats = 1 if traced or args.quick else SETUP_REPEATS
    with scratch_dir("%s-" % args.workload) as workdir, yardstick or contextlib.nullcontext():
        workload = WORKLOADS[args.workload](args.seed, workdir, quick=args.quick)
        workload.prepare()
        setups: List[float] = []
        for attempt in range(repeats):
            if attempt:
                workload.teardown()
            setups.append(timed(yardstick, workload.setup))
        try:
            expected = expected_digests(workload)
            if traced:
                import probes
                from trace import Recorder

                recorder = Recorder()
                samples = run_rounds(
                    workload, args.seconds / 2.0, expected, [None, recorder], yardstick, min_laps=1
                )
                metrics = probes.per_layer_metrics(workload, recorder, samples, workdir)
                if args.trace != "1":
                    with open(args.trace, "w") as f:
                        json.dump({"workload": args.workload, "spans": recorder.spans}, f)
            else:
                samples = run_rounds(
                    workload, args.seconds, expected, [None], yardstick,
                    min_laps=2 if args.seconds > 0 else 1,
                )
                imports = [timed(yardstick, import_api) for _ in range(repeats)]
                # A set-up step holds too few yardstick samples of its
                # own (an import: four, taken beside the child, not in
                # it), so set-up is scaled by the mean speed of the run.
                speed = yardstick.between(0.0, float("inf"))[1]
                detail.update(import_raw_s=imports, host_speed=speed)
                metrics = end_to_end_metrics(
                    samples, speed * (statistics.median(imports) + statistics.median(setups))
                )
        finally:
            workload.teardown()

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    detail.update(
        setup_raw_s=setups,
        rounds=[s.summary() for s in samples],
        interval_samples=sum(len(s.intervals_s) for s in samples),
        rounds_run=len(samples),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
    )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(detail, f, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %14.6g %s" % ("failed_share", failed / max(attempted, 1), "ratio"))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one process each
# ----------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS and CPU are its
    own), end to end and — with ``--trace`` — traced; one result file."""
    from workloads import WORKLOADS

    result: Dict[str, object] = {"runs": []}
    status = 0
    with scratch_dir("all-") as scratch:
        for repeat in range(args.repeat):
            for name in WORKLOADS:
                for trace in ("0", "1") if args.trace != "0" else ("0",):
                    out = os.path.join(scratch, "%s-%s-%d.json" % (name, trace, repeat))
                    cmd = [
                        sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", trace, "--out", out,
                    ] + (["--quick"] if args.quick else [])
                    sys.stderr.write("== %s (trace %s, repeat %d)\n" % (name, trace, repeat))
                    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                    sys.stdout.write(
                        "".join("%s  %s\n" % (name, l) for l in proc.stdout.splitlines()[:-1])
                    )
                    status = status or proc.returncode
                    if os.path.exists(out):
                        with open(out) as f:
                            result["runs"].append(json.load(f))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    return status


# ----------------------------------------------------------------------
# Golden
# ----------------------------------------------------------------------


def refresh_golden(args) -> int:
    """Re-simulate every golden cell inline with ``verify=True`` (so
    the numpy references are checked as the golden is made)."""
    from repro.api import Engine
    from workloads import WORKLOADS, cell_id

    cells: Dict[str, str] = {}
    for cls in WORKLOADS.values():
        if not cls.golden:
            continue
        for quick in (False, True):
            workload = cls(0, WORK_ROOT, quick=quick)
            for spec in workload.build_specs():
                if all(cell_id(c.workload, c.size, c.config_name) in cells for c in spec.cells()):
                    continue  # served_sweep's cells are a subset of pool_sweep's
                results = Engine(backend="inline", cache_dir=None, memo={}).run(
                    spec, verify=True
                )
                for r in results:
                    cells[cell_id(r.workload, r.size, r.config)] = stats_digest(r.stats)
            sys.stderr.write("golden: %s%s done\n" % (cls.name, " (quick)" if quick else ""))
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"version": 1, "cells": cells}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d cell digests to %s" % (len(cells), GOLDEN_PATH))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    import manifest

    if argv[:1] == ["manifest"]:
        return manifest.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument(
        "--trace", default="0", metavar="0|1|PATH",
        help="1 = traced run reporting per-layer metrics; PATH also writes the spans",
    )
    parser.add_argument("--out", help="write the full result (host stamp, raw rounds) here")
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs (all-workload mode)")
    parser.add_argument("--quick", action="store_true", help="two-cell lists, in-process daemon")
    parser.add_argument("--refresh-golden", action="store_true")
    args = parser.parse_args(argv)
    bootstrap()
    if args.refresh_golden:
        return refresh_golden(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
