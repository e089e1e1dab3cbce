"""The fidelity scorecard: every figure's ``summary`` against the paper.

    PYTHONPATH=src python benchmarks/fidelity.py --size bench [--jobs N]

runs each sweep-shaped ``benchmarks/bench_*.py`` module's ``spec(size)``
through ``Engine(jobs=N)`` and merges column ``size`` into
``FIDELITY.json`` (``--out`` writes elsewhere): one row per ``summary``
name, plus the closed-form rows of :func:`static_rows`: one
``area_overhead_pct_<config>`` row per interweaving configuration
(Table 4's SM overhead, within the 0.25 points
``bench_table4_area.py`` allows) and one ``storage_bits_<config>`` row
per Table 3 column (every component's banks x rows x bits, summed,
against the paper's geometries multiplied out).  A row's kind is read
off its ``figure``: ``simulated`` for a sweep module's ``summary``,
``analytic`` for an ``hwcost`` closed form (:func:`kind`).  Table 2 and
the peak IPC have no rows: ``bench_table2_parameters.py``'s ``PAPER``
holds every preset to them exactly, and ``tests/test_figures.py`` does
so at tier 1.

A sweep module's ``PAPER`` table gives, per summary name, the paper's
value (None where the paper gives none), a tolerance band and a
``because``.  A row's status, per size:

``match``       the measurement is inside the band;
``shape-only``  outside, but on the paper's side of 0 for a gain
                (``*_pct``) or of 1 for a ratio (``*_ratio``);
``deviates``    otherwise;
``unscored``    the paper gives no value.

A row that is ``shape-only``, ``deviates`` or ``unscored`` at any size
must carry a ``because`` (why it misses, or what its number shows); the
script names every one that does not and writes nothing.  It prints
the counts per kind, simulated first (:func:`headline`).  It lives
beside the modules, not in ``repro``, because ``summary()`` is not in
the installed package.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import re
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import Engine
from repro.hwcost.area import OVERHEAD_PAPER, overhead_percent
from repro.hwcost.storage import CONFIGS, STORAGE_PAPER, components
from repro.workloads import normalize_size

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "FIDELITY.json")

#: Table 4's SM overheads are given to one decimal; the area model is
#: held to them within this many percentage points.
AREA_TOLERANCE = 0.25

STATUSES = ("match", "shape-only", "deviates", "unscored")
KINDS = ("simulated", "analytic")


def load(path: str):
    """A ``bench_*.py`` module, loaded by path (``benchmarks/`` is no
    package)."""
    name = os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_modules() -> Iterator:
    """Every sweep-shaped figure module (one with a ``spec``), by name."""
    for path in sorted(glob.glob(os.path.join(HERE, "bench_*.py"))):
        module = load(path)
        if hasattr(module, "spec"):
            yield module


def status(
    name: str, measured: float, paper: Optional[float], band: Optional[Sequence[float]]
) -> str:
    """The scorecard rule (the module docstring's table)."""
    if paper is None:
        return "unscored"
    low, high = band
    if low <= measured <= high:
        return "match"
    pivot = 0.0 if name.endswith("_pct") else 1.0 if name.endswith("_ratio") else None
    if pivot is not None and (measured - pivot) * (paper - pivot) > 0:
        return "shape-only"
    return "deviates"


def paper_bits(geometry: str) -> int:
    """A Table 3 geometry (``"2x 24x 48-bit, banked"``) multiplied out."""
    shape = geometry.split(",")[0]
    bits = int(re.search(r"(\d+)-bit", shape).group(1))
    for factor in re.findall(r"(\d+)x", shape):
        bits *= int(factor)
    return bits


def static_rows() -> Iterator[Tuple[str, str, float, Dict]]:
    """``(name, figure, value, paper entry)`` for the ``hwcost`` closed
    forms: the same at every size."""
    for config, paper in OVERHEAD_PAPER.items():
        band = (paper - AREA_TOLERANCE, paper + AREA_TOLERANCE)
        yield (
            "area_overhead_pct_%s" % config, "hwcost.area.overhead_percent",
            overhead_percent(config), dict(paper=paper, band=band),
        )
    for config in CONFIGS:
        paper = sum(paper_bits(row[config]) for row in STORAGE_PAPER.values())
        yield (
            "storage_bits_%s" % config, "hwcost.storage.total_bits",
            sum(comp.total_bits for comp in components(config)),
            dict(paper=paper, band=(paper, paper)),
        )


def measure(size: str, jobs: Optional[int]) -> Iterator[Tuple[str, str, float, Dict]]:
    """``(name, figure, value, paper entry)`` for every row at ``size``."""
    engine = Engine(jobs=jobs)
    for module in sweep_modules():
        # tests/test_figures.py holds PAPER's keys to the summary's.
        for name, value in module.summary(engine.run(module.spec(size))).items():
            yield name, module.__name__, value, module.PAPER[name]
    yield from static_rows()


def merge(rows: Dict[str, Dict], size: str, measured) -> Dict[str, Dict]:
    """``rows`` with column ``size`` replaced by ``measured``; rows no
    summary names any more are dropped, other sizes' columns kept."""
    merged = {}
    for name, figure, value, entry in measured:
        old = rows.get(name, {})
        paper, band = entry.get("paper"), entry.get("band")
        row = dict(
            figure=figure,
            paper=paper,
            band=None if band is None else list(band),
            measured=dict(old.get("measured", {}), **{size: round(value, 4)}),
        )
        row["status"] = {
            at: status(name, got, paper, band) for at, got in row["measured"].items()
        }
        if entry.get("because"):
            row["because"] = entry["because"]
        merged[name] = row
    return merged


def kind(row: Dict) -> str:
    """``analytic`` for an ``hwcost`` closed form, else ``simulated``
    (a sweep module's ``summary``), read off the row's ``figure``."""
    return "analytic" if row["figure"].startswith("hwcost.") else "simulated"


def unexplained(rows: Dict[str, Dict]) -> List[str]:
    """Rows not a ``match`` at some size with no ``because``."""
    return sorted(
        name for name, row in rows.items()
        if "because" not in row and set(row["status"].values()) - {"match"}
    )


def headline(rows: Dict[str, Dict], size: str) -> str:
    """The statuses at ``size`` counted per kind, simulated first:
    ``simulated: 1 of 33 match, 9 shape-only, ...; analytic: ...``."""
    parts = []
    for which in KINDS:
        statuses = [r["status"][size] for r in rows.values() if kind(r) == which]
        counts = ["%d %s" % (statuses.count(s), s) for s in STATUSES[1:] if s in statuses]
        parts.append(", ".join(
            ["%s: %d of %d match" % (which, statuses.count("match"), len(statuses))] + counts
        ))
    return "; ".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", required=True, help="workload size to measure")
    parser.add_argument("--jobs", type=int, default=None, help="worker processes")
    parser.add_argument("--out", default=DEFAULT_OUT, help="scorecard to merge into")
    args = parser.parse_args(argv)
    size = normalize_size(args.size)
    rows: Dict[str, Dict] = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            rows = json.load(handle)["rows"]
    merged = merge(rows, size, measure(size, args.jobs))
    missing = unexplained(merged)
    if missing:
        print(
            "error: not a match and no because: %s" % ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    with open(args.out, "w") as handle:
        json.dump({"rows": merged}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d rows @%s -> %s" % (len(merged), size, args.out), file=sys.stderr)
    print(headline(merged, size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
