"""The benchmark's declared shape: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is generated from these tables
(``python3 benchmarks/perf/run.py manifest --write``) and a tier-1 test
fails when the two drift.  Each per-layer row also names the
end-to-end metric and workload it is expected to move — written down
before anything was measured — which ``BENCHMARK.json`` has no field
for, so it lives here and in README.md.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: How long one run measures.  The traced run measures for half of it
#: and spends the rest on the layer probes.
RUN_SECONDS = 15

WORKLOADS: List[Dict[str, str]] = []
END_TO_END: List[Dict[str, object]] = []
PER_LAYER: List[Dict[str, str]] = []
#: per-layer metric -> "metric@workload, ..." it should move.
MOVES: Dict[str, str] = {}


def _workload(name: str, why: str) -> None:
    WORKLOADS.append({"name": name, "why": why})


def _e2e(name: str, unit: str, better: str, bound: float) -> None:
    END_TO_END.append({"name": name, "unit": unit, "better": better, "bound": bound})


def _layer(name: str, unit: str, better: str, moves: str) -> None:
    PER_LAYER.append({"name": name, "unit": unit, "better": better})
    MOVES[name] = moves


_workload(
    "sm_cold",
    "6 kernels (3 regular, 3 irregular) x 4 policies at bench size, cold inline: the "
    "simulator core does >95% of the work, so engine optimisations show here and only here",
)
_workload(
    "device_cold",
    "3 full-size kernels on 16 SMs behind the shared L2, one on 4 SMs, one on 4 private "
    "channels: multi-SM stepping, L2, partitioned DRAM, where a single-SM fast path could cost",
)
_workload(
    "warm_sweep",
    "2520 cells answered from disk cache, then memo, then serialised and aggregated: zero "
    "simulation, so spec, cache, engine bookkeeping and results do all the work",
)
_workload(
    "pool_sweep",
    "80 tiny cells through jobs=2 with a fresh disk cache per round: pool spawn, pickling, "
    "per-worker workload build and cache writes are a visible share",
)
_workload(
    "served_sweep",
    "two concurrent clients re-running a 40-cell sweep against a real repro serve daemon with "
    "a full store: protocol, triage, store reads, journal fsyncs, event stream",
)

# Bounds are what this host can resolve, not what one would like: the
# same commit, ten seeds, spreads up to 8% on the host-time rows in
# reference-host seconds and up to 11% on peak RSS (README "Host times
# are in reference-host seconds"), and a spread should stay within a
# third of its bound.
_e2e("cells_per_s", "1/s", "higher", 0.25)
_e2e("cpu_ms_per_cell", "ms", "lower", 0.25)
_e2e("peak_rss_mb", "MiB", "lower", 0.25)
_e2e("setup_s", "s", "lower", 0.25)

# Per-layer rows: <module>.<metric>, and what each should move.  Times
# are host time unless the row is under ``timing.`` (modelled counters,
# exact, identical across any simulator-speed change).
_WARM = "cells_per_s@warm_sweep"
_COLD = "cells_per_s, cpu_ms_per_cell @ sm_cold, device_cold, pool_sweep"
_SERVED = "cells_per_s, cpu_ms_per_cell @ served_sweep; no move elsewhere"
_EXACT = "none: must be identical across a simulator-speed change"
_AMDAHL = "cells_per_s@sm_cold by at most 1/(1 - f(1 - 1/k)) for share f sped up k x"

_layer("api.spec.expand_us_per_cell", "us", "lower", "cells_per_s@warm_sweep")
_layer("api.spec.cells", "count", "lower", "cells_per_s@warm_sweep")
_layer("api.cache.cell_key_us", "us", "lower", _WARM + "; no move on sm_cold")
_layer("api.cache.cell_hash_us", "us", "lower", _WARM + "; no move on sm_cold")
_layer("api.cache.disk_load_us", "us", "lower", _WARM + "; no move on sm_cold")
_layer("api.cache.disk_store_us", "us", "lower", "cells_per_s@pool_sweep")
_layer("api.cache.memo_hits", "count", "higher", _WARM)
_layer("api.cache.disk_hits", "count", "higher", _WARM)
_layer("api.cache.misses", "count", "lower", _WARM)
_layer("api.cache.hit_ratio", "ratio", "higher", _WARM)
_layer("api.engine.run_self_s", "s", "lower", "cells_per_s@warm_sweep")
_layer("api.engine.self_us_per_cell", "us", "lower", "cells_per_s@warm_sweep")
_layer(
    "api.engine.first_result_ms", "ms", "lower",
    "none: itself what a user waits for on pool_sweep and served_sweep; not gated because "
    "on the cold workloads it is one cell's time and does not repeat within a quarter",
)
_layer(
    "api.engine.cell_ms_p50", "ms", "lower",
    "none: itself what a user of warm_sweep and served_sweep watches tick by; not gated "
    "because between pool completions it spread 21% over ten seeds of one commit",
)
_layer(
    "api.engine.pool_fixed_ms", "ms", "lower",
    "cells_per_s@pool_sweep, and api.engine.first_result_ms there",
)
_layer(
    "api.engine.pool_overhead_ms_per_cell", "ms", "lower",
    "cells_per_s@pool_sweep, cpu_ms_per_cell@pool_sweep",
)
_layer("api.engine.pool_efficiency", "ratio", "higher", "cells_per_s@pool_sweep")
_layer("api.results.to_json_us_per_cell", "us", "lower", "cells_per_s@warm_sweep")
_layer("api.results.from_json_us_per_cell", "us", "lower", "none yet: no workload reloads")
_layer("api.results.geo_mean_ms", "ms", "lower", "cells_per_s@warm_sweep")
_layer("workloads.build_ms_p50", "ms", "lower", "cells_per_s@pool_sweep")
_layer("workloads.build_ms_max", "ms", "lower", "cells_per_s@pool_sweep")
_layer("workloads.build_share", "ratio", "lower", "cells_per_s@pool_sweep; <3% on sm_cold")
_layer("core.simulate_s", "s", "lower", _COLD)
_layer("core.simulate_share", "ratio", "higher", _COLD + "; 0 on warm_sweep, served_sweep")
_layer("core.host_us_per_issue", "us", "lower", _COLD)
_layer("core.host_us_per_sim_cycle", "us", "lower", _COLD)
_layer(
    "core.scan_over_event_ratio", "ratio", "higher",
    "none: decides ROADMAP one-loop item (a), at 16 SMs on device_cold",
)
_layer("functional.run_kernel_s", "s", "lower", _AMDAHL)
_layer("functional.share_of_simulate", "ratio", "lower", _AMDAHL)
_layer(
    "functional.interp_over_compiled_ratio", "ratio", "higher",
    "none: what compiled plans buy over the interpreter",
)
for _bucket in (
    "core_sm", "core_schedulers", "core_gpu", "timing_fetch", "timing_scoreboard",
    "timing_memory", "timing_divergence", "functional", "other",
):
    _layer("prof.%s_share" % _bucket, "ratio", "lower", _AMDAHL)
for _counter, _unit in (
    ("sim_cycles", "count"), ("issues", "count"), ("thread_instructions", "count"),
    ("issued_sbi_secondary", "count"), ("issued_swi_secondary", "count"),
    ("l1_accesses", "count"), ("l1_hit_ratio", "ratio"), ("l2_hit_ratio", "ratio"),
    ("dram_bytes", "bytes"), ("memory_replays", "count"),
    ("divergent_branch_ratio", "ratio"), ("swi_hit_ratio", "ratio"),
    ("scheduler_conflicts", "count"), ("ipc_gain_regular_pct", "%"),
    ("ipc_gain_irregular_pct", "%"),
):
    _layer("timing.%s" % _counter, _unit, "higher", _EXACT)
_layer(
    "analytics.observed_over_plain_ratio", "ratio", "lower",
    "none yet: observers are off end to end; baseline for the observability item",
)
_layer("service.protocol.encode_us_per_cell", "us", "lower", _SERVED)
_layer("service.protocol.decode_us_per_cell", "us", "lower", _SERVED)
_layer("service.store.store_us", "us", "lower", "setup_s@served_sweep")
_layer("service.store.load_us", "us", "lower", _SERVED)
_layer("service.store.get_entry_us", "us", "lower", _SERVED)
_layer("service.store.verify_entries_per_s", "1/s", "higher", "none: maintenance path")
_layer("service.store.gc_scan_entries_per_s", "1/s", "higher", "none: maintenance path")
_layer("service.journal.append_us", "us", "lower", _SERVED)
_layer("service.journal.replay_records_per_s", "1/s", "higher", "none: recovery path")
_layer("service.remote.submit_ms_p50", "ms", "lower", _SERVED)
_layer(
    "service.remote.first_event_ms_p50", "ms", "lower",
    "api.engine.first_result_ms, cells_per_s @ served_sweep",
)
_layer("service.remote.lookup_ms_p50", "ms", "lower", _SERVED)
_layer("service.remote.lookup_ms_p99", "ms", "lower", _SERVED)
_layer(
    "service.remote.cell_ms_p99", "ms", "lower",
    "none: the tail of api.engine.cell_ms_p50, on served_sweep above all",
)
_layer("service.remote.retries", "count", "lower", _SERVED)
_layer("service.daemon.cells_store", "count", "higher", _SERVED)
_layer("service.daemon.cells_coalesced", "count", "higher", _SERVED)
_layer("service.daemon.cells_simulated", "count", "lower", _SERVED + "; 0 during rounds")
_layer("service.daemon.cells_failed", "count", "lower", _SERVED)
_layer("service.daemon.cold_overhead_ms_per_cell", "ms", "lower", "setup_s@served_sweep")
_layer("cli.startup_ms", "ms", "lower", "setup_s on every workload")
_layer("trace.overhead_ratio", "ratio", "lower", "none: cost of the traced run itself")

#: The paper's suite-mean IPC gains of SBI+SWI over the baseline, kept
#: beside ``timing.ipc_gain_*_pct``.  They are full-suite means and the
#: benchmark's are an 8-kernel subset at bench size: the model is
#: unvalidated here and no error figure is given.
PAPER_REFERENCE = {"timing.ipc_gain_regular_pct": 23.0, "timing.ipc_gain_irregular_pct": 40.0}


def document() -> Dict[str, object]:
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    text = json.dumps(document(), indent=2) + "\n"
    if list(argv or ()) == ["--write"]:
        with open(BENCHMARK_JSON, "w") as f:
            f.write(text)
        return 0
    sys.stdout.write(text)
    return 0
