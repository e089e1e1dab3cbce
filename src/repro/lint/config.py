"""Scope constants for the rules: which files each family covers.

Globs are matched against ``/``-normalised paths *and their suffixes*
(``repro/timing/masks.py`` matches whether the runner saw ``src/...``
or a site-packages path).
"""

from __future__ import annotations

from typing import Tuple

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
