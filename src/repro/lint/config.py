"""Path-level suppression table and scope constants for the rules.

Globs are matched against ``/``-normalised paths *and their suffixes*
(``repro/timing/masks.py`` matches whether the runner saw ``src/...``
or a site-packages path).  Keep entries few and justified — inline
``# repro-lint: disable=<rule>`` comments are preferred because they
sit next to the code they excuse.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: rule id -> glob patterns whose findings are dropped.
PATH_SUPPRESSIONS: Dict[str, Tuple[str, ...]] = {
    # Benchmarks and examples time things and print progress; only the
    # simulation core must be wall-clock-free.
    "wall-clock": (
        "benchmarks/*.py",
        "examples/*.py",
        "repro/api/engine.py",
        "repro/cli.py",
    ),
    # Workload generators draw inputs from seeded, name-keyed
    # generators (repro.workloads.common.rng) — the rule still flags
    # module-level numpy RandomState use there.
    "unseeded-random": (),
}

#: Files whose classes the hot-path slots rule covers (engine core).
HOT_PATH_FILES: Tuple[str, ...] = (
    "repro/core/sm.py",
    "repro/core/warp.py",
    "repro/timing/*.py",
)

#: Files holding cache-key derivation code (float-key / repr rules).
CACHE_KEY_FILES: Tuple[str, ...] = (
    "repro/api/cache.py",
    "repro/api/spec.py",
)

#: Simulation-core files: wall-clock reads and unseeded randomness
#: here can silently break byte-identical reproduction.
SIMULATION_FILES: Tuple[str, ...] = (
    "repro/core/**",
    "repro/core/*.py",
    "repro/timing/*.py",
    "repro/functional/*.py",
    "repro/isa/*.py",
    "repro/workloads/*.py",
)
