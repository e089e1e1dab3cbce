"""Engine execution: backends, caching, error policies."""

import hashlib
import os

import pytest

from repro.api import (
    CacheSerializationError,
    Engine,
    Progress,
    ResultSet,
    SweepSpec,
)
from repro.api import cache as result_cache
from repro.core import presets
from repro.service.store import ResultStore
from repro.timing.stats import Stats

SMALL = SweepSpec.from_presets(
    ["baseline", "warp64"], workloads=["histogram", "sortingnetworks"], size="tiny"
)


@pytest.fixture(autouse=True)
def fresh_memo():
    """Engine behaviour must not depend on earlier tests' cache state."""
    result_cache.clear()
    yield
    result_cache.clear()


def one_cell(engine, workload, size, config, verify=False):
    """The stats of one (workload, size, config) cell: a one-cell sweep."""
    spec = SweepSpec(workloads=[workload], configs={"cell": config}, size=size)
    (result,) = engine.run(spec, verify=verify)
    return result.stats


class TestRunCell:
    """Running one cell: a one-cell sweep through ``Engine.run``."""

    def test_memoised(self):
        engine = Engine()
        a = one_cell(engine, "histogram", "tiny", presets.baseline())
        b = one_cell(engine, "histogram", "tiny", presets.baseline())
        assert a is b

    def test_smoke_alias_shares_cache_with_tiny(self):
        engine = Engine()
        a = one_cell(engine, "histogram", "tiny", presets.baseline())
        b = one_cell(engine, "histogram", "smoke", presets.baseline())
        assert a is b

    def test_verify_simulates_and_checks(self):
        calls = []

        def factory(name, size):
            from repro.workloads import get_workload

            inst = get_workload(name, size)
            check = inst.numpy_check
            inst.numpy_check = lambda mem: (calls.append(name), check(mem))
            return inst

        engine = Engine(workload_factory=factory)
        one_cell(engine, "histogram", "tiny", presets.baseline())
        one_cell(engine, "histogram", "tiny", presets.baseline(), verify=True)
        assert calls == ["histogram"]


class TestRun:
    def test_result_shape(self):
        rs = Engine().run(SMALL)
        assert len(rs) == 4
        assert rs.workloads == ["histogram", "sortingnetworks"]
        assert rs.configs == ["baseline", "warp64"]
        assert not rs.errors

    def test_aliased_configs_simulate_once(self):
        events = []
        spec = SweepSpec(
            workloads=["histogram"],
            configs={"a": presets.baseline(), "b": presets.baseline()},
            sizes="tiny",
        )
        rs = Engine(progress=events.append).run(spec)
        assert len(events) == 1  # one unique cell
        assert len(rs) == 2      # both names reported
        assert rs.get("histogram", "a") is rs.get("histogram", "b")

    def test_progress_events(self):
        events = []
        Engine(progress=events.append).run(SMALL)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 and not e.cached for e in events)
        assert isinstance(events[0], Progress)
        again = []
        Engine(progress=again.append).run(SMALL)
        assert all(e.cached for e in again)


class TestBackendParity:
    def test_inline_and_process_identical(self, tmp_path):
        inline = Engine(cache_dir=str(tmp_path / "a")).run(SMALL)
        result_cache.clear()
        fanned = Engine(jobs=2, cache_dir=str(tmp_path / "b")).run(SMALL)
        assert inline == fanned
        assert inline.ipc_table() == fanned.ipc_table()

    def test_verify_runs_through_process_backend(self, tmp_path):
        """verify=True must not silently fall back to serial inline."""
        rs = Engine(jobs=2, cache_dir=str(tmp_path)).run(SMALL, verify=True)
        result_cache.clear()
        assert rs == Engine().run(SMALL)

    def test_process_folds_into_memo_and_disk(self, tmp_path):
        cache_dir = str(tmp_path)
        Engine(jobs=2, cache_dir=cache_dir).run(SMALL)
        assert len(ResultStore(cache_dir)) == 4
        key = result_cache.cell_key("histogram", "tiny", presets.baseline())
        assert key in result_cache.MEMO
        # A fresh engine run is now pure cache hits.
        events = []
        Engine(jobs=2, cache_dir=cache_dir, progress=events.append).run(SMALL)
        assert all(e.cached for e in events)


def _file_digests(root):
    """``{relative path: sha256}`` of every file under ``root``."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return found


class TestOneCacheWriter:
    def test_process_sweep_leaves_the_inline_sweeps_files(self, tmp_path):
        """The parent writes the disk level for every backend, so the
        same sweep leaves the same files, byte for byte."""
        Engine(cache_dir=str(tmp_path / "inline"), memo={}).run(SMALL)
        Engine(jobs=2, cache_dir=str(tmp_path / "process"), memo={}).run(SMALL)
        inline = _file_digests(str(tmp_path / "inline"))
        assert len(inline) == 4
        assert _file_digests(str(tmp_path / "process")) == inline


class TestPoolSize:
    """``jobs`` reaches the pool as given: an explicit request for one
    worker used to build ``os.cpu_count()`` of them."""

    @pytest.fixture()
    def asked(self, monkeypatch):
        from repro.api import engine as engine_module

        asked = []

        class _Recorded(engine_module.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _Recorded)
        return asked

    @pytest.mark.parametrize("jobs", [1, None])
    def test_process_backend_builds_the_pool_it_was_asked_for(self, asked, jobs):
        rs = Engine(backend="process", jobs=jobs, memo={}).run(SMALL)
        assert asked == [jobs]
        assert rs == Engine(backend="inline", memo={}).run(SMALL)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_anything_else_is_a_value_error_naming_jobs(self, asked, jobs):
        with pytest.raises(ValueError, match="jobs must be"):
            Engine(backend="process", jobs=jobs, memo={}).run(SMALL)
        assert asked == []


class TestWorkerPlugins:
    def test_worker_init_imports_plugins(self, tmp_path, monkeypatch):
        """Process-pool workers must import plugin modules themselves
        (spawn/forkserver workers do not inherit parent imports)."""
        import sys

        from repro.api.engine import _worker_init

        plugin = tmp_path / "engine_test_plugin.py"
        sentinel = tmp_path / "imported.txt"
        plugin.write_text(
            "open(%r, 'a').write('yes')\n" % str(sentinel)
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        _worker_init(("engine_test_plugin",))
        assert sentinel.read_text() == "yes"
        sys.modules.pop("engine_test_plugin", None)

    def test_engine_threads_plugins_to_pool(self, tmp_path, monkeypatch):
        import sys

        plugin = tmp_path / "engine_pool_plugin.py"
        marker = tmp_path / "pids.txt"
        plugin.write_text(
            "import os\nopen(%r, 'a').write('%%d\\n' %% os.getpid())\n"
            % str(marker)
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        engine = Engine(jobs=2, plugins=["engine_pool_plugin"])
        engine.run(SMALL)
        pids = {int(line) for line in marker.read_text().split()}
        assert pids and os.getpid() not in pids  # imported in workers
        sys.modules.pop("engine_pool_plugin", None)


class TestErrorPolicies:
    def _failing_engine(self, errors):
        def factory(name, size):
            from repro.workloads import get_workload

            if name == "histogram":
                raise RuntimeError("injected failure")
            return get_workload(name, size)

        return Engine(workload_factory=factory, errors=errors)

    def test_fail_fast_raises(self):
        with pytest.raises(RuntimeError, match="injected"):
            self._failing_engine("raise").run(SMALL)

    def test_collect_keeps_going(self):
        rs = self._failing_engine("collect").run(SMALL)
        assert len(rs) == 2  # sortingnetworks cells survive
        assert len(rs.errors) == 2  # histogram x 2 configs
        assert {e.workload for e in rs.errors} == {"histogram"}
        assert "injected failure" in rs.errors[0].error

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Engine(errors="ignore")
        with pytest.raises(ValueError):
            Engine().run(SMALL, errors="ignore")

    def _doomed_spec(self):
        """max_cycles=8 makes the simulator itself fail in workers."""
        return SweepSpec(
            workloads=["histogram", "sortingnetworks"],
            configs={
                "ok": presets.baseline(),
                "doomed": presets.baseline(max_cycles=8),
            },
            sizes="tiny",
        )

    def test_process_backend_fail_fast_raises(self):
        with pytest.raises(Exception, match="cycle|simulation|exceeded|limit"):
            Engine(jobs=2).run(self._doomed_spec())

    def test_process_backend_collects_errors(self):
        rs = Engine(jobs=2).run(self._doomed_spec(), errors="collect")
        assert len(rs) == 2
        assert {e.config for e in rs.errors} == {"doomed"}
        assert len(rs.errors) == 2


class TestStrictDiskSerialization:
    def test_unserializable_stats_raise_clearly(self, tmp_path):
        bad = Stats(cycles=10, thread_instructions=10)
        bad.per_op_class["weird"] = object()  # json cannot encode this
        engine = Engine(
            cache_dir=str(tmp_path),
            simulate_fn=lambda kernel, memory, config: bad,
        )
        with pytest.raises(CacheSerializationError, match="histogram"):
            one_cell(engine, "histogram", "tiny", presets.baseline())
        assert os.listdir(str(tmp_path)) == []  # nothing half-written


class TestCacheMaintenance:
    def test_info_and_clear(self, tmp_path):
        """The disk level is a result store: its info and its clear
        (``gc`` to zero entries) are the store's."""
        cache_dir = str(tmp_path)
        Engine(cache_dir=cache_dir).run(SMALL)
        # A foreign file must survive cache maintenance — here an
        # entry of the old flat layout, which is no longer ours.
        foreign = os.path.join(cache_dir, "histogram-tiny-0123456789abcdef0123.json")
        with open(foreign, "w") as f:
            f.write("keep me")
        store = ResultStore(cache_dir)
        info = store.info()
        assert (info.root, info.entries) == (cache_dir, 4) and info.total_bytes > 0
        assert store.gc(max_entries=0).evicted == 4
        assert store.info().entries == 0
        assert os.path.exists(foreign)

    def test_clear_without_dir_leaves_disk(self, tmp_path):
        cache_dir = str(tmp_path)
        Engine(cache_dir=cache_dir).run(SMALL)
        assert len(result_cache.MEMO) == 4
        result_cache.clear()
        assert result_cache.MEMO == {}
        assert len(ResultStore(cache_dir)) == 4

    def test_corrupt_entry_falls_back_to_simulation(self, tmp_path):
        cache_dir = str(tmp_path)
        one_cell(Engine(cache_dir=cache_dir), "histogram", "tiny", presets.baseline())
        digest = result_cache.cell_hash("histogram", "tiny", presets.baseline())
        with open(result_cache.digest_path(cache_dir, digest), "w") as f:
            f.write("{not json")
        result_cache.clear()
        stats = one_cell(Engine(cache_dir=cache_dir), "histogram", "tiny", presets.baseline())
        assert stats.cycles > 0

    def test_env_var_names_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(tmp_path))
        one_cell(Engine(), "histogram", "tiny", presets.baseline())
        assert os.listdir(str(tmp_path))


class TestFigure7Equivalence:
    """Acceptance: the full smoke grid runs through Engine and its
    content survives a JSON round trip."""

    def test_full_grid_smoke(self):
        rs = Engine().run(SweepSpec.figure7(size="smoke"))
        assert len(rs) == 105
        assert ResultSet.from_json(rs.to_json()).ipc_table() == rs.ipc_table()


class TestProgressAccounting:
    """Fully-cached runs still count 1..total, monotonically."""

    @pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "process"])
    def test_fully_cached_run_reaches_total(self, tmp_path, jobs):
        cache_dir = str(tmp_path)
        Engine(jobs=jobs, cache_dir=cache_dir).run(SMALL)
        events = []
        Engine(jobs=jobs, cache_dir=cache_dir, progress=events.append).run(SMALL)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert events[-1].done == events[-1].total == 4
        assert all(e.cached and e.error is None for e in events)
        # Local cache hits carry no provenance source.
        assert all(e.source is None for e in events)

    def test_mixed_run_is_monotone_and_complete(self, tmp_path):
        cache_dir = str(tmp_path)
        half = SweepSpec.from_presets(
            ["baseline"], workloads=["histogram", "sortingnetworks"], size="tiny"
        )
        Engine(cache_dir=cache_dir).run(half)
        events = []
        Engine(cache_dir=cache_dir, progress=events.append).run(SMALL)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert sum(1 for e in events if e.cached) == 2
        assert sum(1 for e in events if not e.cached) == 2
