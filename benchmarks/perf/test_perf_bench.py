"""Tier-1 checks of the benchmark harness itself (seconds, not a benchmark).

Collected by the repo's ``python -m pytest`` run; nothing here asserts
on a timing.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:  # pytest's rootdir import mode already does this
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import hostspeed  # noqa: E402
import manifest  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402

if run.SRC not in sys.path:  # the tier-1 command sets PYTHONPATH=src; be runnable without
    sys.path.insert(0, run.SRC)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


def test_benchmark_json_is_what_the_manifest_generates():
    with open(manifest.BENCHMARK_JSON) as f:
        assert json.load(f) == manifest.document()


def test_benchmark_json_schema():
    doc = manifest.document()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/perf"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_layer_row_names_what_it_should_move():
    end_to_end = {m["name"] for m in manifest.END_TO_END}
    workloads = {w["name"] for w in manifest.WORKLOADS}
    for row in manifest.PER_LAYER:
        moves = manifest.MOVES[row["name"]]
        if moves.startswith("none"):
            assert ":" in moves, "%s: say why nothing should move" % row["name"]
            continue
        assert any(m in moves for m in end_to_end), row["name"]
        assert any(w in moves for w in workloads) or "every workload" in moves, row["name"]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def _span(ident, name, start, end, parent=None):
    return {"id": ident, "name": name, "start": start, "end": end, "parent": parent, "sweep": 1}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(0, "run", 0.0, 10.0),
        _span(1, "lookup", 1.0, 3.0, parent=0),
        _span(2, "simulate", 2.5, 6.0, parent=0),  # overlaps its sibling by 0.5
        _span(3, "hash", 1.0, 1.5, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # child outliving its parent is clipped
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.5)
    totals = trace.totals_by_name(spans)
    assert totals["run"] == {"count": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}


def test_recorder_nests_per_thread_and_numbers_sweeps():
    ticks = iter(range(100))
    recorder = trace.Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("run"):
        with recorder.span("inner"):
            pass
        wrapped = recorder.wrap("load", lambda: None, note=lambda r: r is not None)
        wrapped()
    with recorder.span("run"):
        pass
    parents = [s["parent"] for s in recorder.spans]
    assert parents == [None, 0, 0, None]
    assert [s["sweep"] for s in recorder.spans] == [1, 1, 1, 2]
    assert recorder.spans[2]["note"] is False
    assert all(s["end"] > s["start"] for s in recorder.spans)


# ----------------------------------------------------------------------
# Reference-host seconds
# ----------------------------------------------------------------------


def test_reference_seconds_scale_by_the_speed_sampled_inside():
    yardstick = hostspeed.Yardstick()
    yardstick.samples = [(1.0, 0.01, 0.5), (2.0, 0.01, 1.0), (9.0, 0.01, 0.25)]
    assert yardstick.between(0.5, 3.0) == (0.02, 0.75)
    wall, cpu, speed = run.reference_seconds(yardstick, 0.5, 3.0, cpu=1.02)
    assert (wall, cpu, speed) == (pytest.approx(2.48 * 0.75), pytest.approx(0.75), 0.75)
    # Too short to hold a sample: the mean speed of the run so far.
    assert yardstick.between(3.0, 3.5) == (0.0, pytest.approx(1.75 / 3))
    assert run.reference_seconds(None, 0.5, 3.0, cpu=1.0) == (2.5, 1.0, 1.0)


def test_yardstick_samples_on_a_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Yardstick() as yardstick:
        deadline = time.perf_counter() + 1.0
        while len(yardstick.samples) < 2 and time.perf_counter() < deadline:
            sum(range(1000))
    assert len(yardstick.samples) >= 2
    assert all(cost > 0 and speed > 0 for _, cost, speed in yardstick.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------


def _cells(name, seed, quick=False):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, HERE, quick=quick)
    return [
        (c.workload, c.size, c.config_name, repr(c.config))
        for spec in workload.build_specs()
        for c in spec.cells()
    ]


@pytest.mark.parametrize("name", [w["name"] for w in manifest.WORKLOADS])
def test_same_seed_same_specs(name):
    first = _cells(name, 7)
    assert first == _cells(name, 7)
    others = [_cells(name, seed) for seed in range(8, 16)]
    assert any(other != first for other in others), "the seed must change the generated input"
    for other in others:
        assert first[0][:2] == other[0][:2], "the lead cell is pinned across seeds"
        if name != "warm_sweep":  # its axis values are seed-drawn
            assert sorted(first) == sorted(other), "seeds reorder cells, never change them"


# ----------------------------------------------------------------------
# The harness end to end, on two-cell lists
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _no_user_cache(monkeypatch):
    """``run.bootstrap`` drops these for good; hand them back afterwards."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)


def _run(capsys, *argv):
    status = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in manifest.WORKLOADS])
def test_quick_pass_end_to_end(name, capsys):
    status, result = _run(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--quick", "--trace", "0"
    )
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in manifest.END_TO_END}
    units = {m["name"]: m["unit"] for m in manifest.END_TO_END}
    for metric, value in result["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] > 0
    assert not os.path.exists(run.WORK_ROOT) or not os.listdir(run.WORK_ROOT)


@pytest.mark.parametrize("name", ["device_cold", "served_sweep"])
def test_quick_pass_traced_reports_every_layer_row(name, capsys):
    status, result = _run(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--quick", "--trace", "1"
    )
    assert status == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in manifest.PER_LAYER]
    layers = {metric: m["value"] for metric, m in result["metrics"].items()}
    assert layers["service.daemon.cells_simulated"] == 0
    if name == "served_sweep":  # every round is answered from the daemon's store
        assert layers["service.daemon.cells_store"] > 0
        assert layers["core.simulate_share"] == 0
    else:
        assert layers["core.simulate_share"] > 0 and layers["timing.l2_hit_ratio"] > 0


def test_flipped_golden_digest_fails_the_run(capsys, tmp_path, monkeypatch):
    golden = json.loads(open(run.GOLDEN_PATH).read())
    victim = "histogram@tiny/baseline"
    golden["cells"][victim] = golden["cells"][victim][::-1]
    flipped = tmp_path / "golden.json"
    flipped.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_PATH", str(flipped))
    status, result = _run(
        capsys, "--workload", "sm_cold", "--seed", "3", "--seconds", "0", "--quick", "--trace", "0"
    )
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.judge(steady, [x * 1.3 for x in steady], "lower", 0.15)[0] == "regressed"
    assert compare.judge(steady, [x * 0.7 for x in steady], "lower", 0.15)[0] == "improved"
    assert compare.judge(steady, [x * 1.05 for x in steady], "lower", 0.15)[0] == "unchanged"
    assert compare.judge(steady, [x * 0.7 for x in steady], "higher", 0.15)[0] == "regressed"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert compare.judge(noisy, [x * 1.1 for x in noisy], "lower", 0.15)[0] == "unresolved"
    assert compare.judge(noisy, [10.0, 11.0, 12.0, 13.0], "lower", 0.15)[0] == "improved"
