"""``run.py compare A.json B.json``: judge B against A, row by row.

Both files come from ``run.py --out`` (one workload, or all of them
with ``--repeat N``).  Every (end-to-end metric, workload) pairing is
its own row and is judged by that metric's own bound:

regressed   B's median is worse than A's by more than the bound
improved    B's median is better than A's by more than the bound
unchanged   the medians are within the bound of each other
unresolved  either side's own runs spread wider than the bound, so the
            medians cannot be told apart (unless every run of one side
            beats every run of the other)

A run with failed cells regresses its workload outright, and every
``timing.*`` count — a modelled quantity — must be identical.  Exit
status is 1 when any row regressed or mismatched.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import manifest

Rows = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> List[Dict[str, object]]:
    with open(path) as f:
        data = json.load(f)
    return data["runs"] if "runs" in data else [data]


def collect(runs: Sequence[Dict[str, object]], traced: bool) -> Rows:
    """(workload, metric) -> one value per run."""
    rows: Rows = {}
    names = {m["name"] for m in (manifest.PER_LAYER if traced else manifest.END_TO_END)}
    for run in runs:
        if bool(run.get("trace")) != traced:
            continue
        for name, metric in run["metrics"].items():
            if name in names:
                rows.setdefault((run["workload"], name), []).append(metric["value"])
    return rows


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, worsening as a share of A's median; negative = better)."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if base == 0:  # nothing to take a share of (a one-cell sweep has no interval)
        return ("unchanged", 0.0) if new == 0 else ("unresolved", sign * float("inf"))
    worse = sign * (new - base) / base
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved", worse
        if all(sign * (y - x) > 0 for x in a for y in b) and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv or ())
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare A.json B.json\n")
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    bad = 0

    print("%-13s %-18s %-10s %12s %12s %8s %7s" % (
        "workload", "metric", "verdict", "A median", "B median", "B/A", "bound"))
    rows_a, rows_b = collect(runs_a, False), collect(runs_b, False)
    for spec in manifest.END_TO_END:
        for workload in (w["name"] for w in manifest.WORKLOADS):
            key = (workload, spec["name"])
            if key not in rows_a or key not in rows_b:
                continue
            verdict, _ = judge(rows_a[key], rows_b[key], spec["better"], spec["bound"])
            base, new = statistics.median(rows_a[key]), statistics.median(rows_b[key])
            print("%-13s %-18s %-10s %12.5g %12.5g %8.3f %6.0f%%" % (
                workload, spec["name"], verdict, base, new,
                new / base if base else float("nan"), 100 * spec["bound"]))
            bad += verdict == "regressed"

    for label, runs in (("A", runs_a), ("B", runs_b)):
        for run in runs:
            if run.get("failed"):
                print("%-13s %-18s %-10s %s: %d of %d cells failed" % (
                    run["workload"], "failed_share", "regressed" if label == "B" else "note",
                    label, run["failed"], run["attempted"]))
                bad += label == "B"

    exact_a, exact_b = collect(runs_a, True), collect(runs_b, True)
    for key in sorted(set(exact_a) & set(exact_b)):
        if not key[1].startswith("timing."):
            continue
        values = set(exact_a[key]) | set(exact_b[key])
        if len(values) > 1:
            print("%-13s %-18s %-10s %s" % (key[0], key[1], "MISMATCH", sorted(values)))
            bad += 1
    checked = sum(1 for key in set(exact_a) & set(exact_b) if key[1].startswith("timing."))
    print("%d timing.* rows compared for exact equality" % checked)
    return 1 if bad else 0
