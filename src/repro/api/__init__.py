"""repro.api — the first-class experiment surface.

Three value types cover the whole lifecycle of a paper-style study:

* :class:`SweepSpec` declares the grid (workloads x sizes x named
  configs, with axis overrides like ``sm_count=[1, 2, 4, 8]``);
* :class:`Engine` executes it through the two-level result cache and
  a pluggable backend (``inline`` or ``process``);
* :class:`ResultSet` holds the outcome — queryable, serializable and
  mergeable across runs.

Quick start::

    from repro.api import Engine, SweepSpec

    spec = SweepSpec.from_presets(
        ["baseline", "sbi_swi"], workloads=["bfs", "matrixmul"], size="bench"
    ).with_axes(sm_count=[1, 2, 4])
    rs = Engine(jobs=4).run(spec)
    print(rs.to_markdown())
    rs.to_json("scaling.json")

The command line (``python -m repro`` / the ``repro`` console script)
is a thin veneer over these same objects.
"""

from repro.api.cache import (
    CACHE_DIR_ENV,
    CACHE_VERSION,
    CacheSerializationError,
    config_hash,
    config_key,
)
from repro.api.engine import Engine, Progress, run
from repro.api.results import CellError, Result, ResultSet
from repro.api.spec import Cell, SweepSpec, apply_override
from repro.api import cache

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_VERSION",
    "Cell",
    "CellError",
    "CacheSerializationError",
    "Engine",
    "Progress",
    "Result",
    "ResultSet",
    "SweepSpec",
    "apply_override",
    "cache",
    "config_hash",
    "config_key",
    "run",
]
