"""Shared fixtures for the paper's tables and figures.

A sweep-shaped figure module is a spec, one run and a few queries:
``spec(size)`` names its :class:`repro.api.SweepSpec`, the ``rs``
fixture runs it once through :class:`repro.api.Engine` (so it shares
the memo and ``REPRO_CACHE_DIR`` with every other sweep),
``summary(rs)`` names the numbers its docstring quotes from the paper,
and its one test renders and checks them.  Sections collect in the
session ``report``, written to ``benchmarks/results/report.txt``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import pytest

from repro.api import Engine, ResultSet

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class Report:
    def __init__(self) -> None:
        self.sections: List[str] = []

    def add(
        self, title: str, body: str, summary: Optional[Dict[str, float]] = None
    ) -> None:
        """One section; a figure's ``summary`` follows the body as
        ``name = value`` lines (what the fidelity scorecard reads)."""
        for name, value in (summary or {}).items():
            body += "\n%s = %.4f" % (name, value)
        text = "\n== %s ==\n%s\n" % (title, body)
        self.sections.append(text)
        print(text)

    def flush(self) -> None:
        if not self.sections:
            return
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, "report.txt")
        with open(path, "w") as f:
            f.write("\n".join(self.sections))
        print("\n[benchmark report written to %s]" % path)


@pytest.fixture(scope="session")
def report():
    collected = Report()
    yield collected
    collected.flush()


@pytest.fixture(scope="session")
def bench_size() -> str:
    """Workload size for figure sweeps (override with REPRO_BENCH_SIZE)."""
    return os.environ.get("REPRO_BENCH_SIZE", "bench")


@pytest.fixture(scope="module")
def rs(request, bench_size) -> ResultSet:
    """The requesting module's ``spec(bench_size)``, run once.  Failed
    cells are collected, so one report names them all; each figure's
    test refuses to render a table with holes."""
    return Engine(errors="collect").run(request.module.spec(bench_size))
