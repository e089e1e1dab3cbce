"""End-to-end smoke tests of the ``repro`` CLI (via ``python -m repro``)."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*args, env_extra=None, check=True, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + list(args),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            "repro %s failed (%d):\n%s" % (" ".join(args), proc.returncode, proc.stderr)
        )
    return proc


class TestAxisParsing:
    """Unit-level checks of the CLI helpers (no subprocess needed)."""

    def test_axis_value_types(self):
        from repro.cli import _parse_axis_value

        assert _parse_axis_value("4") == 4
        assert _parse_axis_value("2.5") == 2.5
        assert _parse_axis_value("none") is None
        assert _parse_axis_value("true") is True
        assert _parse_axis_value("False") is False
        assert _parse_axis_value("xor_rev") == "xor_rev"

    def test_boolean_axis_actually_flips_the_config(self):
        from repro.api import SweepSpec
        from repro.cli import _parse_axes

        axes = _parse_axes(["sbi_constraints=true,false"])
        spec = SweepSpec(
            workloads=["bfs"], configs=["sbi"], sizes="tiny"
        ).with_axes(**axes)
        assert spec.configs["sbi/sbi_constraints=False"].sbi_constraints is False
        assert spec.configs["sbi/sbi_constraints=True"].sbi_constraints is True

    def test_multi_size_render(self):
        from repro.api import Result, ResultSet
        from repro.cli import _render
        from repro.timing.stats import Stats

        rs = ResultSet(
            [
                Result("bfs", "tiny", "baseline", Stats(cycles=10, thread_instructions=100)),
                Result("bfs", "bench", "baseline", Stats(cycles=10, thread_instructions=200)),
            ]
        )
        text = _render(rs, "table", "ipc")
        assert "== size=tiny ==" in text and "== size=bench ==" in text
        md = _render(rs, "markdown", "ipc")
        assert "### size=tiny" in md and "### size=bench" in md
        payload = json.loads(_render(rs, "json", "ipc"))
        assert payload["tiny"]["bfs"]["baseline"] == 10.0
        assert payload["bench"]["bfs"]["baseline"] == 20.0
        csv_text = _render(rs, "csv", "ipc")
        assert csv_text.count("\n") == 3  # header + 2 rows

    def test_csv_render_honours_metric(self):
        from repro.api import Result, ResultSet
        from repro.cli import _render
        from repro.timing.stats import Stats

        rs = ResultSet(
            [Result("bfs", "tiny", "baseline", Stats(cycles=10, busy_cycles=7))]
        )
        assert "busy_cycles" in _render(rs, "csv", "busy_cycles").splitlines()[0]


class TestWorkloads:
    def test_plain_listing(self):
        out = run_cli("workloads").stdout
        assert "bfs" in out and "matrixmul" in out and "irregular" in out

    def test_json_listing(self):
        infos = json.loads(run_cli("workloads", "--json").stdout)
        assert len(infos) == 21
        byname = {i["name"]: i for i in infos}
        assert byname["tmd1"]["mean_excluded"] is True
        assert byname["bfs"]["category"] == "irregular"

    def test_category_filter(self):
        infos = json.loads(
            run_cli("workloads", "--json", "--category", "regular").stdout
        )
        assert len(infos) == 10


class TestSweep:
    def test_json_output_and_cache_accounting(self, tmp_path):
        cache = {"REPRO_CACHE_DIR": str(tmp_path)}
        args = (
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline,warp64",
            "--size", "smoke",
            "--format", "json",
        )
        cold = run_cli(*args, env_extra=cache)
        table = json.loads(cold.stdout)
        assert set(table["histogram"]) == {"baseline", "warp64"}
        assert "# 2 cells: 2 simulated, 0 cached" in cold.stderr
        warm = run_cli(*args, env_extra=cache)
        assert "# 2 cells: 0 simulated, 2 cached" in warm.stderr
        assert json.loads(warm.stdout) == table

    def test_axis_sweep(self):
        proc = run_cli(
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline",
            "--size", "smoke",
            "--axis", "sm_count=1,2",
            "--format", "json",
        )
        table = json.loads(proc.stdout)
        assert set(table["histogram"]) == {
            "baseline/sm_count=1",
            "baseline/sm_count=2",
        }

    def test_output_file_and_csv(self, tmp_path):
        out = str(tmp_path / "table.csv")
        run_cli(
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline",
            "--size", "smoke",
            "--format", "csv",
            "--output", out,
        )
        with open(out) as f:
            text = f.read()
        assert text.startswith("workload,size,config,")
        assert "histogram,tiny,baseline," in text

    def test_save_writes_reloadable_resultset(self, tmp_path):
        from repro.api import ResultSet

        path = str(tmp_path / "rs.json")
        run_cli(
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline",
            "--size", "smoke",
            "--save", path,
        )
        rs = ResultSet.from_json(path)
        assert len(rs) == 1
        assert rs.get("histogram", "baseline", size="tiny").ipc > 0

    def test_unknown_workload_fails_helpfully(self):
        proc = run_cli("sweep", "--workloads", "nope", check=False)
        assert proc.returncode == 2
        assert "unknown workload" in proc.stderr and "bfs" in proc.stderr

    def test_unknown_size_fails_helpfully(self):
        proc = run_cli(
            "sweep", "--workloads", "bfs", "--size", "huge", check=False
        )
        assert proc.returncode == 2
        assert "smoke" in proc.stderr

    def test_unknown_metric_fails_before_simulating(self):
        # bench size would take minutes if the sweep ran; the early
        # metric validation must reject the typo in well under that.
        proc = run_cli(
            "sweep",
            "--workloads", "all",
            "--configs", "baseline",
            "--size", "bench",
            "--metric", "ipcs",
            check=False,
        )
        assert proc.returncode == 2
        assert "unknown metric" in proc.stderr and "ipc" in proc.stderr


class TestFigure7:
    def test_restricted_grid_markdown(self, tmp_path):
        proc = run_cli(
            "figure7",
            "--size", "smoke",
            "--workloads", "histogram,bfs",
            "--format", "markdown",
            env_extra={"REPRO_CACHE_DIR": str(tmp_path)},
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "| workload | baseline | sbi | swi | sbi_swi | warp64 |"
        assert any(line.startswith("| histogram |") for line in lines)
        assert "# 10 cells: 10 simulated, 0 cached" in proc.stderr


class TestPolicies:
    def test_plain_listing(self):
        proc = run_cli("policies")
        for name in ("baseline", "sbi_swi", "swi_greedy", "swi_rr", "dwr"):
            assert name in proc.stdout
        assert "cascaded" in proc.stderr  # scheduler catalogue footer

    def test_json_listing(self):
        specs = json.loads(run_cli("policies", "--json").stdout)
        byname = {s["name"]: s for s in specs}
        assert byname["dwr"]["divergence"] == "dwr"
        assert byname["swi_rr"]["scheduler"] == "cascaded_rr"
        assert byname["sbi"]["hot_capacity"] == 2

    def test_describe_one(self):
        proc = run_cli("policies", "dwr")
        assert "divergence=dwr" in proc.stdout
        assert "preset" in proc.stdout

    def test_unknown_policy_fails_helpfully(self):
        proc = run_cli("policies", "nope", check=False)
        assert proc.returncode == 2
        assert "unknown policy" in proc.stderr and "baseline" in proc.stderr

    def test_plugin_module_registers_policy(self, tmp_path):
        plugin = tmp_path / "cli_test_plugin.py"
        plugin.write_text(
            "from repro.core.policy import PolicySpec, register_policy\n"
            "register_policy(PolicySpec(\n"
            "    name='plugtest', scheduler='single_issue',\n"
            "    divergence='frontier',\n"
            "    preset=dict(warp_count=16, warp_width=64)))\n"
        )
        env = {"PYTHONPATH": str(tmp_path) + os.pathsep + SRC}
        proc = run_cli("policies", "--plugin", "cli_test_plugin", env_extra=env)
        (line,) = [l for l in proc.stdout.splitlines() if l.startswith("plugtest ")]
        assert " issue=1 " in line  # read off Warp64Scheduler, not declared

    def test_sweep_policy_axis(self):
        proc = run_cli(
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline",
            "--size", "smoke",
            "--policy", "warp64,swi_greedy",
            "--format", "json",
        )
        table = json.loads(proc.stdout)
        assert set(table["histogram"]) == {
            "baseline/policy=warp64",
            "baseline/policy=swi_greedy",
        }

    def test_policy_axis_composes_with_field_axes(self):
        """--axis overrides must apply on top of the policy preset, not
        be wiped by it (the policy axis expands first)."""
        proc = run_cli(
            "sweep",
            "--workloads", "histogram",
            "--configs", "baseline",
            "--size", "smoke",
            "--policy", "warp64",
            "--axis", "warp_count=8,16",
            "--format", "json",
        )
        table = json.loads(proc.stdout)
        assert set(table["histogram"]) == {
            "baseline/policy=warp64/warp_count=8",
            "baseline/policy=warp64/warp_count=16",
        }
        # The configs must actually differ: identical configs would
        # alias to one unique cell in the accounting line.
        assert "# 2 cells: 2 simulated" in proc.stderr


class TestMerge:
    def _save(self, tmp_path, name, workload):
        path = str(tmp_path / name)
        run_cli(
            "sweep",
            "--workloads", workload,
            "--configs", "baseline",
            "--size", "smoke",
            "--save", path,
        )
        return path

    def test_merge_combines_resultsets(self, tmp_path):
        from repro.api import ResultSet

        a = self._save(tmp_path, "a.json", "histogram")
        b = self._save(tmp_path, "b.json", "sortingnetworks")
        out = str(tmp_path / "merged.json")
        proc = run_cli("merge", a, b, "--save", out)
        assert "# merged 2 files -> 2 cells" in proc.stderr
        merged = ResultSet.from_json(out)
        assert set(merged.workloads) == {"histogram", "sortingnetworks"}
        assert proc.stdout == ""  # --save alone stays script-quiet
        proc = run_cli("merge", a, b)  # bare merge renders a table
        assert "histogram" in proc.stdout
        proc = run_cli("merge", a, b, "--save", out, "--format", "markdown")
        assert "| histogram |" in proc.stdout

    def test_merge_reads_the_indented_layout_beside_the_one_line_one(self, tmp_path):
        from repro.api import ResultSet

        new = self._save(tmp_path, "new.json", "histogram")
        old = self._save(tmp_path, "old.json", "sortingnetworks")
        with open(new) as f:
            assert len(f.read().splitlines()) == 1  # --save writes one line
        with open(old) as f:
            payload = json.load(f)
        with open(old, "w") as f:  # what the tree before one-line saves wrote
            f.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        out = str(tmp_path / "merged.json")
        proc = run_cli("merge", old, new, "--save", out)
        assert "# merged 2 files -> 2 cells" in proc.stderr
        merged = ResultSet.from_json(out)
        assert merged.workloads == ["sortingnetworks", "histogram"]
        assert merged == ResultSet.from_json(old).merge(ResultSet.from_json(new))

    def test_merge_idempotent_on_duplicates(self, tmp_path):
        a = self._save(tmp_path, "a.json", "histogram")
        proc = run_cli("merge", a, a)
        assert "# merged 2 files -> 1 cells" in proc.stderr

    def test_merge_conflict_policy(self, tmp_path):
        import json as _json

        a = self._save(tmp_path, "a.json", "histogram")
        with open(a) as f:
            payload = _json.load(f)
        payload["results"][0]["stats"]["data"]["cycles"] += 1
        b = str(tmp_path / "b.json")
        with open(b, "w") as f:
            _json.dump(payload, f)
        proc = run_cli("merge", a, b, check=False)
        assert proc.returncode == 2
        assert "conflicting results" in proc.stderr
        proc = run_cli("merge", a, b, "--on-conflict", "keep")
        assert proc.returncode == 0


class TestOsRefusalsAndIgnoredValues:
    """What the operating system refuses, and values that used to be
    accepted and ignored: exit 2, one ``error:`` line naming the
    culprit, no traceback — and before the work, not after it."""

    ONE_CELL = ("--workloads", "histogram", "--configs", "baseline", "--size", "tiny")
    #: (argv, what the error line must name); ``{tmp}`` is a scratch
    #: directory, ``{port}`` a port another socket is bound to.
    CASES = [
        (("serve", "--store", "{tmp}/s", "--port", "99999"), ":99999"),
        (("serve", "--store", "{tmp}/s", "--port", "{port}"), ":{port}"),
        (("merge", "{tmp}/absent.json"), "{tmp}/absent.json"),
        (("sweep", *ONE_CELL, "--save", "{tmp}/no/o.json"), "--save {tmp}/no/o.json"),
        (("sweep", *ONE_CELL, "--output", "{tmp}/no/o.txt"), "--output {tmp}/no/o.txt"),
        (("merge", "{tmp}/fieldless.json"), "{tmp}/fieldless.json: no field 'size'"),
        (("merge", "{tmp}/prose.json"), "{tmp}/prose.json: Expecting value"),
        (("merge", "{tmp}/list.json"), "{tmp}/list.json: not a ResultSet"),
        (("merge", "{tmp}/int_result.json"), "{tmp}/int_result.json: results[0] is not an object"),
        (("merge", "{tmp}/int_error.json"), "{tmp}/int_error.json: errors[0] is not an object"),
        (("analyze", "--workload", "bfs", "--sm-count", "0"), "--sm-count must be >= 1, got 0"),
        (("analyze", "--workload", "bfs", "--sm-count", "-2"), "--sm-count must be >= 1, got -2"),
        (("analyze", "--workload", "bfs", "--json", "{tmp}/no/a.json"), "--json {tmp}/no/a.json"),
        (("sweep", *ONE_CELL, "--jobs", "0"), "jobs must be None (one worker per core) or an integer >= 1, got 0"),
        (("sweep", *ONE_CELL, "--jobs", "-3"), "jobs must be None (one worker per core) or an integer >= 1, got -3"),
        # The transport meets these at the first request: an OverflowError
        # traceback, messages that name no flag, four doomed attempts.
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:9", "--timeout", "inf"),
         "--timeout must be a finite number of seconds > 0, got inf"),
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:9", "--timeout", "nan"),
         "--timeout must be a finite number of seconds > 0, got nan"),
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:9", "--timeout", "-1"),
         "--timeout must be a finite number of seconds > 0, got -1.0"),
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:9", "--timeout", "0"),
         "--timeout must be a finite number of seconds > 0, got 0.0"),
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:9", "--retries", "-1"),
         "--retries must be an integer >= 0, got -1"),
        # A malformed --server is a typo, not a dead daemon: refused
        # before any request, and never run locally under --fallback.
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:notaport", "--fallback", "inline"),
         "server 'http://127.0.0.1:notaport' has a bad port"),
        (("sweep", *ONE_CELL, "--server", "http://127.0.0.1:8421?x=1", "--fallback", "inline"),
         "server 'http://127.0.0.1:8421?x=1' has a query"),
    ]

    @pytest.mark.parametrize(
        "argv, names", CASES, ids=[" ".join(argv[-3:]) for argv, _ in CASES]
    )
    def test_exit_2_one_error_line_no_traceback(self, tmp_path, argv, names):
        import socket

        (tmp_path / "fieldless.json").write_text(
            '{"version": 1, "results": [{"workload": "w", "config": "c", "stats": {}}]}'
        )
        (tmp_path / "prose.json").write_text("not json\n")
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "int_result.json").write_text('{"version": 1, "results": [1]}')
        (tmp_path / "int_error.json").write_text('{"version": 1, "errors": [1]}')
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            fill = dict(tmp=str(tmp_path), port=taken.getsockname()[1])
            proc = run_cli(*(arg.format(**fill) for arg in argv), check=False)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and names.format(**fill) in errors[0], proc.stderr
        assert "cells:" not in proc.stderr  # nothing was simulated first
        assert proc.stdout == ""


class TestCache:
    """The disk cache is a result store: ``repro store`` maintains it,
    and without ``--dir`` it is ``$REPRO_CACHE_DIR`` the store reads."""

    def test_info_and_clear(self, tmp_path):
        cache = {"REPRO_CACHE_DIR": str(tmp_path)}
        run_cli(
            "sweep", "--workloads", "histogram", "--configs", "baseline",
            "--size", "smoke", env_extra=cache,
        )
        info = run_cli("store", "info", env_extra=cache).stdout
        assert info.startswith("store %s: 1 entries" % tmp_path)
        cleared = run_cli("store", "gc", "--max-entries", "0", env_extra=cache).stdout
        assert "evicted 1 of 1 entries" in cleared
        info = run_cli("store", "info", env_extra=cache).stdout
        assert "0 entries" in info

    def test_info_counts_only_what_is_on_disk(self, tmp_path):
        # The asking process's own memo is always empty; printing it
        # made "0 entries" true of any cache, cleared or not.
        cache = {"REPRO_CACHE_DIR": str(tmp_path)}
        run_cli(
            "sweep", "--workloads", "histogram", "--configs", "baseline",
            "--size", "smoke", env_extra=cache,
        )
        info = run_cli("store", "info", env_extra=cache).stdout
        assert ": 1 entries" in info
        assert "0 entries" not in info

    def test_info_without_dir(self, tmp_path):
        """Nothing set: the default root is reported, not created."""
        out = run_cli("store", "info", cwd=str(tmp_path)).stdout
        assert out == "store .repro_store: 0 entries, 0 bytes\n"
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("named_by", ["cache", "store"])
    def test_info_on_a_missing_dir_creates_nothing(self, tmp_path, named_by):
        """A mistyped directory is reported empty, not created — named
        by the cache's ``$REPRO_CACHE_DIR`` or by the store's ``--dir``."""
        typo = str(tmp_path / "typo")
        if named_by == "cache":
            out = run_cli("store", "info", env_extra={"REPRO_CACHE_DIR": typo}).stdout
        else:
            out = run_cli("store", "info", "--dir", typo).stdout
        assert out.startswith("store %s: 0 entries" % typo)
        assert os.listdir(str(tmp_path)) == []

    def test_cache_subcommand_is_gone(self):
        proc = run_cli("cache", "info", check=False)
        assert proc.returncode == 2
        assert "invalid choice: 'cache'" in proc.stderr

    def test_store_verify_accepts_the_cache_dir(self, tmp_path):
        run_cli(
            "sweep", "--workloads", "histogram", "--configs", "baseline,warp64",
            "--size", "tiny", "--cache-dir", str(tmp_path),
        )
        out = run_cli("store", "verify", "--dir", str(tmp_path)).stdout
        assert "verified 2 entries: 0 bad" in out


class TestAnalyze:
    def test_smoke_renders_all_aggregators(self):
        proc = run_cli(
            "analyze",
            "--workload", "histogram",
            "--size", "smoke",
            "--config", "sbi_swi",
            "--bins", "8",
        )
        for header in ("== timeline ==", "== heatmap ==", "== origins =="):
            assert header in proc.stdout
        assert "peak-issue check: ok" in proc.stderr

    def test_json_artifact_round_trips_schema(self, tmp_path):
        path = str(tmp_path / "analyze.json")
        run_cli(
            "analyze",
            "--workload", "transpose",
            "--size", "tiny",
            "--config", "sbi_swi",
            "--sm-count", "4",
            "--bins", "8",
            "--json", path,
        )
        with open(path) as f:
            artifact = json.load(f)
        assert artifact["version"] == 1
        assert artifact["workload"] == "transpose"
        assert artifact["sm_count"] == 4
        assert set(artifact["observers"]) == {"timeline", "heatmap", "origins"}
        timeline = artifact["observers"]["timeline"]
        assert timeline["kind"] == "timeline"
        assert len(timeline["series"]["issues"]) == timeline["bins"]
        heatmap = artifact["observers"]["heatmap"]
        assert heatmap["sms"] == [0, 1, 2, 3]
        assert len(heatmap["ipc"]) == len(heatmap["sms"])
        # The artifact feeds back into the hwcost validation unchanged.
        sys.path.insert(0, SRC)
        try:
            from repro.core import presets
            from repro.hwcost import validate_peak_issue

            origins = artifact["observers"]["origins"]
            device = presets.device("sbi_swi", sm_count=4)
            assert validate_peak_issue(device, origins)
        finally:
            sys.path.remove(SRC)

    def test_json_artifact_is_what_simulate_hands_back(self, tmp_path):
        """A run finalizes its observers: plain ``simulate`` with the
        three aggregators attached snapshots what ``analyze`` writes."""
        path = str(tmp_path / "analyze.json")
        run_cli("analyze", "--workload", "histogram", "--json", path)
        with open(path) as f:
            artifact = json.load(f)
        sys.path.insert(0, SRC)
        try:
            from repro.analytics import (
                HeatmapAggregator,
                OriginAggregator,
                TimelineAggregator,
            )
            from repro.core import presets
            from repro.core.simulator import simulate
            from repro.workloads import get_workload

            aggs = [TimelineAggregator(), HeatmapAggregator(), OriginAggregator()]
            inst = get_workload("histogram", "tiny")
            simulate(inst.kernel, inst.memory, presets.sbi_swi(), observers=aggs)
        finally:
            sys.path.remove(SRC)
        snapshots = dict(zip(("timeline", "heatmap", "origins"), aggs))
        assert artifact["observers"] == {
            name: json.loads(json.dumps(agg.snapshot()))
            for name, agg in snapshots.items()
        }

    def test_unknown_observer_fails_helpfully(self):
        proc = run_cli(
            "analyze", "--workload", "bfs", "--observers", "nope", check=False
        )
        assert proc.returncode == 2
        assert "registered names" in proc.stderr

    def test_sweep_observer_renders_and_simulates(self, tmp_path):
        cache = {"REPRO_CACHE_DIR": str(tmp_path)}
        args = (
            "sweep",
            "--workloads", "histogram",
            "--configs", "sbi_swi",
            "--size", "smoke",
        )
        run_cli(*args, env_extra=cache)
        observed = run_cli(*args, "--observer", "origins", env_extra=cache)
        # Observed cells bypass the warm cache and simulate again.
        assert "# 1 cells: 1 simulated, 0 cached" in observed.stderr
        assert "== histogram/sbi_swi @tiny : origins ==" in observed.stdout  # smoke->tiny alias
        assert "issue origins" in observed.stdout
