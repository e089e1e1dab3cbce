"""ResultSet: queries, aggregation, serialization, merge semantics."""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CellError, Result, ResultSet
from repro.timing.stats import DeviceStats, Stats


def _stats(cycles, ti):
    return Stats(cycles=cycles, thread_instructions=ti, instructions_issued=ti // 2)


def _rs():
    return ResultSet(
        [
            Result("bfs", "tiny", "baseline", _stats(100, 1000)),
            Result("bfs", "tiny", "sbi_swi", _stats(100, 2000)),
            Result("lud", "tiny", "baseline", _stats(200, 1000)),
            Result("lud", "tiny", "sbi_swi", _stats(100, 1000)),
            Result("tmd1", "tiny", "baseline", _stats(100, 100)),
            Result("tmd1", "tiny", "sbi_swi", _stats(100, 10000)),
        ]
    )


class TestQueries:
    def test_axes(self):
        rs = _rs()
        assert rs.workloads == ["bfs", "lud", "tmd1"]
        assert rs.configs == ["baseline", "sbi_swi"]
        assert rs.sizes == ["tiny"]
        assert len(rs) == 6

    def test_get(self):
        assert _rs().get("bfs", "sbi_swi").ipc == 20.0
        assert _rs().get("bfs", "sbi_swi", size="tiny").ipc == 20.0
        with pytest.raises(KeyError):
            _rs().get("bfs", "nope")

    def test_get_ambiguous_size(self):
        rs = _rs().merge(
            ResultSet([Result("bfs", "bench", "baseline", _stats(10, 10))])
        )
        with pytest.raises(KeyError, match="size"):
            rs.get("bfs", "baseline")

    def test_filter(self):
        rs = _rs().filter(workload=["bfs", "lud"], config="baseline")
        assert len(rs) == 2
        assert rs.configs == ["baseline"]

    def test_filter_predicate(self):
        rs = _rs().filter(predicate=lambda r: r.stats.ipc >= 10.0)
        assert len(rs) == 4

    def test_filter_keeps_matching_errors(self):
        rs = ResultSet(
            [Result("bfs", "tiny", "baseline", _stats(10, 10))],
            errors=[
                CellError("bfs", "tiny", "sbi_swi", "boom"),
                CellError("lud", "bench", "baseline", "other"),
            ],
        )
        tiny = rs.filter(size="tiny")
        assert tiny.errors == [CellError("bfs", "tiny", "sbi_swi", "boom")]
        assert rs.filter(workload="lud").errors[0].error == "other"
        assert rs.filter(config="baseline", size="tiny").errors == []

    def test_pivot_and_ipc_table(self):
        table = _rs().ipc_table()
        assert table["bfs"] == {"baseline": 10.0, "sbi_swi": 20.0}
        cycles = _rs().pivot("workload", "config", "cycles")
        assert cycles["lud"]["baseline"] == 200

    def test_pivot_callable_metric(self):
        table = _rs().pivot("workload", "config", lambda s: s.cycles * 2)
        assert table["bfs"]["baseline"] == 200

    def test_pivot_rejects_ambiguous_collapsed_axis(self):
        rs = _rs().merge(
            ResultSet([Result("bfs", "bench", "baseline", _stats(10, 10))])
        )
        with pytest.raises(ValueError, match="size"):
            rs.ipc_table()

    def test_speedup_over(self):
        speedups = _rs().speedup_over("baseline")
        assert speedups["bfs"]["sbi_swi"] == 2.0
        assert speedups["bfs"]["baseline"] == 1.0
        assert speedups["lud"]["sbi_swi"] == 2.0


class TestMeans:
    def test_geo_mean_excludes_tmd(self):
        means = _rs().geo_mean()
        # bfs 10, lud 5 -> gmean ~7.07; tmd1 (ipc 1) excluded.
        assert means["baseline"] == pytest.approx(50**0.5)

    def test_geo_mean_speedup(self):
        means = _rs().geo_mean(base="baseline")
        assert means["sbi_swi"] == pytest.approx(2.0)
        assert means["baseline"] == pytest.approx(1.0)

    def test_custom_exclusion(self):
        means = _rs().geo_mean(exclude=("bfs", "lud"))
        assert means["baseline"] == pytest.approx(1.0)  # only tmd1 left

    def test_all_workloads_excluded_raises(self):
        # Excluding every workload present must fail loudly rather
        # than return an empty mapping that reads like "no configs".
        with pytest.raises(ValueError, match="excluded"):
            _rs().geo_mean(exclude=("bfs", "lud", "tmd1"))
        # The MEAN_EXCLUDED default path hits the same guard when a
        # filtered view holds only excluded workloads.
        with pytest.raises(ValueError, match="excluded"):
            _rs().filter(workload="tmd1").geo_mean()

    def test_excluded_only_view_still_renders(self):
        # Rendering stays usable: the mean row degrades to "-".
        view = _rs().filter(workload="tmd1")
        text = view.to_text()
        assert "geo_mean" in text
        markdown = view.to_markdown()
        assert "geo_mean | - |" in markdown


class TestSerialization:
    def test_json_round_trip(self):
        rs = _rs()
        again = ResultSet.from_json(rs.to_json())
        assert again == rs
        assert again.ipc_table() == rs.ipc_table()

    def test_json_round_trip_device_stats(self):
        dstats = DeviceStats(cycles=100, sm_stats=[_stats(90, 500), _stats(100, 700)])
        rs = ResultSet([Result("bfs", "tiny", "dev", dstats)])
        again = ResultSet.from_json(rs.to_json())
        assert isinstance(again.get("bfs", "dev"), DeviceStats)
        assert again.get("bfs", "dev").to_dict() == dstats.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        path = str(tmp_path / "rs.json")
        rs = _rs()
        rs.to_json(path)
        assert ResultSet.from_json(path) == rs

    def test_errors_survive_round_trip(self):
        rs = ResultSet(
            [Result("bfs", "tiny", "baseline", _stats(10, 10))],
            errors=[CellError("lud", "tiny", "baseline", "boom")],
        )
        again = ResultSet.from_json(rs.to_json())
        assert again.errors == [CellError("lud", "tiny", "baseline", "boom")]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            ResultSet.from_dict({"version": 99, "results": []})

    def test_to_json_is_one_line_and_takes_no_indent(self):
        rs = _rs()
        text = rs.to_json()
        assert "\n" not in text
        assert text == json.dumps(rs.to_dict(), sort_keys=True)
        with pytest.raises(TypeError):
            rs.to_json(indent=1)

    def test_the_indented_layout_older_trees_wrote_still_loads(self, tmp_path):
        dstats = DeviceStats(cycles=100, sm_stats=[_stats(90, 500)], dram_bytes=0.1)
        rs = _rs().merge(
            ResultSet(
                [Result("bfs", "tiny", "dev", dstats)],
                errors=[CellError("lud", "tiny", "dev", "boom")],
            )
        )
        old = json.dumps(rs.to_dict(), indent=1, sort_keys=True)
        assert ResultSet.from_json(old) == ResultSet.from_json(rs.to_json()) == rs
        path = tmp_path / "old.json"
        path.write_text(old + "\n")
        loaded = ResultSet.from_json(str(path))
        assert loaded == rs and loaded.errors == rs.errors
        # Only the whitespace moved: the content reads back the same.
        assert json.loads(old) == json.loads(rs.to_json())

    def test_an_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rs.json"
        path.write_text("old bytes\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            _rs().to_json(str(path))
        assert path.read_text() == "old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rs.json"]  # no *.tmp

    def test_csv(self):
        rows = list(csv.DictReader(io.StringIO(_rs().to_csv())))
        assert len(rows) == 6
        bfs = [r for r in rows if r["workload"] == "bfs" and r["config"] == "baseline"]
        assert float(bfs[0]["ipc"]) == 10.0
        assert int(bfs[0]["cycles"]) == 100

    def test_csv_extra_metrics(self):
        rows = list(
            csv.DictReader(
                io.StringIO(_rs().to_csv(extra_metrics=["busy_cycles", "ipc"]))
            )
        )
        assert "busy_cycles" in rows[0]
        assert float(rows[0]["busy_cycles"]) == 0.0
        # Duplicates of headline columns are not repeated.
        assert list(rows[0]).count("ipc") == 1

    def test_markdown(self):
        text = _rs().to_markdown()
        lines = text.splitlines()
        assert lines[0] == "| workload | baseline | sbi_swi |"
        assert "| bfs | 10.00 | 20.00 |" in lines
        assert lines[-1].startswith("| geo_mean |")

    def test_text_table(self):
        assert "workload" in _rs().to_text(mean=None)
        with pytest.raises(ValueError, match="mean"):
            _rs().to_text(mean="harmonic")

    def test_tables_over_base_print_signed_percent(self):
        # Fractions of a percent are what Figures 8a/8b/9 claim: a
        # ratio table must resolve them, where "1.01 / 1.00" does not.
        def at(ti):
            return _stats(10000, ti)

        rs = ResultSet(
            [
                Result("bfs", "tiny", "identity", at(10000)),
                Result("bfs", "tiny", "xor_rev", at(10142)),
                Result("lud", "tiny", "identity", at(20000)),
                Result("lud", "tiny", "xor_rev", at(19940)),
                Result("tmd1", "tiny", "identity", at(5000)),
                Result("tmd1", "tiny", "xor_rev", at(10000)),
            ]
        )
        assert rs.to_text(base="identity") == "\n".join(
            [
                "workload | xor_rev ",
                "---------+---------",
                "bfs      | +1.42%  ",
                "lud      | -0.30%  ",
                "tmd1     | +100.00%",
                "geo_mean | +0.56%  ",
            ]
        )
        assert rs.to_markdown(base="identity") == "\n".join(
            [
                "| workload | xor_rev |",
                "| --- | --- |",
                "| bfs | +1.42% |",
                "| lud | -0.30% |",
                "| tmd1 | +100.00% |",
                "| geo_mean | +0.56% |",
            ]
        )
        # Raw metrics print as they always did.
        assert "bfs      | 1.00     | 1.01   " in rs.to_text().splitlines()
        assert "| bfs | 1.00 | 1.01 |" in rs.to_markdown().splitlines()

    def test_text_table_over_base_excludes_tmd_from_the_mean(self):
        # The input the retired report-helper table was tested on: 2x
        # on one kernel, 4x on a TMD kernel shown but left out of the mean.
        rs = ResultSet(
            [
                Result("bfs", "tiny", "base", _stats(100, 1000)),
                Result("bfs", "tiny", "new", _stats(100, 2000)),
                Result("tmd1", "tiny", "base", _stats(100, 1000)),
                Result("tmd1", "tiny", "new", _stats(100, 4000)),
            ]
        )
        rows = {
            line.split("|")[0].strip(): line.split("|")[1].strip()
            for line in rs.to_text(base="base").splitlines()[2:]
        }
        assert rows == {
            "bfs": "+100.00%", "tmd1": "+300.00%", "geo_mean": "+100.00%"
        }
        with pytest.raises(KeyError, match="nope"):
            rs.to_text(base="nope")


#: Any JSON value (NaN aside: it is not equal to itself).
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def _shape():
    """A saved ResultSet's dict: both stats kinds, an error, and one
    cell twice (a duplicate must agree with its first copy)."""
    dstats = DeviceStats(cycles=9, sm_stats=[_stats(9, 40)], dram_bytes=0.5)
    data = ResultSet(
        [
            Result("bfs", "tiny", "baseline", _stats(10, 10)),
            Result("bfs", "tiny", "dev", dstats),
        ],
        errors=[CellError("lud", "tiny", "baseline", "boom")],
    ).to_dict()
    data["results"].append(json.loads(json.dumps(data["results"][0])))
    return data


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _damaged(draw):
    """``_shape()`` with one subtree replaced by any JSON value, or
    (inside an object) deleted."""
    data = _shape()
    path = draw(st.sampled_from(list(_paths(data))))
    if not path:
        return draw(_json)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_json)
    return data


class TestFromDictRefusals:
    """``from_dict`` returns a ResultSet that saves and reloads, or
    raises a ``ValueError`` — never another exception."""

    @staticmethod
    def _returns_or_refuses(data):
        try:
            rs = ResultSet.from_dict(data)
        except ValueError:
            return
        again = ResultSet.from_json(rs.to_json())
        assert again == rs and again.errors == rs.errors

    @settings(max_examples=300, deadline=None)
    @given(_json)
    def test_any_json_value(self, data):
        self._returns_or_refuses(data)

    @settings(max_examples=300, deadline=None)
    @given(_damaged())
    def test_a_saved_resultset_with_one_part_damaged(self, data):
        self._returns_or_refuses(data)

    @pytest.mark.parametrize("data, names", [
        ([1, 2], "top level is not an object"),
        ({"version": 1, "results": [1]}, "results[0] is not an object"),
        ({"version": 1, "errors": [1]}, "errors[0] is not an object"),
        ({"version": 1, "results": {}}, "results is not a list"),
        ({"version": 1, "errors": [{"workload": "w", "size": "s", "config": "c"}]},
         "no field 'error' in errors[0]"),
        ({"version": 1, "results": [
            {"workload": "w", "size": "s", "config": ["c"], "stats": {}}
        ]}, "results[0].config is not a string"),
        ({"version": 1, "results": [
            {"workload": "w", "size": "s", "config": "c", "stats": {"kind": "sm"}}
        ]}, "undecodable stats in results[0]"),
        ({"version": 1, "results": [{"workload": "w", "size": "s", "config": "c",
          "stats": {"kind": "sm", "data": {"per_op_class": 5}}}]},
         "undecodable stats in results[0]"),
        # Pairs used to load, then save as an object unequal to them.
        ({"version": 1, "results": [{"workload": "w", "size": "s", "config": "c",
          "stats": {"kind": "device", "data": {"sm_stats": [{"per_op_class": [["mad", 1]]}]}}}]},
         "undecodable stats in results[0]: TypeError(\"per_op_class is not an object"),
    ])
    def test_the_error_names_what_is_wrong(self, data, names):
        with pytest.raises(ValueError) as excinfo:
            ResultSet.from_dict(data)
        assert names in str(excinfo.value)
        self._returns_or_refuses(data)

    def test_the_undamaged_shape_loads(self):
        rs = ResultSet.from_dict(_shape())
        assert len(rs) == 2 and len(rs.errors) == 1


class TestMerge:
    def test_union(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("lud", "tiny", "baseline", _stats(20, 20))])
        merged = a.merge(b)
        assert len(merged) == 2 and len(a) == 1 and len(b) == 1

    def test_identical_duplicates_dedupe(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        assert len(a.merge(b)) == 1

    def test_conflict_raises(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("bfs", "tiny", "baseline", _stats(99, 10))])
        with pytest.raises(ValueError, match="conflict"):
            a.merge(b)

    def test_conflict_keep_and_replace(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("bfs", "tiny", "baseline", _stats(99, 10))])
        assert a.merge(b, on_conflict="keep").get("bfs", "baseline").cycles == 10
        assert a.merge(b, on_conflict="replace").get("bfs", "baseline").cycles == 99

    def test_add_conflict_raises(self):
        rs = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        with pytest.raises(ValueError, match="conflict"):
            rs.add(Result("bfs", "tiny", "baseline", _stats(11, 10)))

    def test_conflict_error_names_the_cell_and_the_remedy(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("bfs", "tiny", "baseline", _stats(99, 10))])
        with pytest.raises(ValueError) as excinfo:
            a.merge(b)
        message = str(excinfo.value)
        for fragment in ("bfs", "tiny", "baseline", "on_conflict"):
            assert fragment in message

    def test_conflict_in_nested_stats_field_detected(self):
        # Differing only in a nested dict field is still a conflict —
        # comparison goes through to_dict(), not top-level scalars.
        x = _stats(10, 10)
        y = _stats(10, 10)
        y.per_op_class["mad"] = 7
        a = ResultSet([Result("bfs", "tiny", "baseline", x)])
        b = ResultSet([Result("bfs", "tiny", "baseline", y)])
        with pytest.raises(ValueError, match="conflict"):
            a.merge(b)

    def test_conflict_across_stats_kinds_is_a_conflict(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        b = ResultSet([Result("bfs", "tiny", "baseline", DeviceStats())])
        with pytest.raises(ValueError, match="conflict"):
            a.merge(b)

    def test_replace_preserves_row_position_and_originals(self):
        a = ResultSet(
            [
                Result("bfs", "tiny", "baseline", _stats(10, 10)),
                Result("lud", "tiny", "baseline", _stats(20, 20)),
            ]
        )
        b = ResultSet([Result("bfs", "tiny", "baseline", _stats(99, 10))])
        merged = a.merge(b, on_conflict="replace")
        assert [r.workload for r in merged] == ["bfs", "lud"]
        assert merged.get("bfs", "baseline").cycles == 99
        # The inputs are untouched (merge returns a new set).
        assert a.get("bfs", "baseline").cycles == 10

    def test_merge_rejects_unknown_policy(self):
        a = ResultSet([Result("bfs", "tiny", "baseline", _stats(10, 10))])
        with pytest.raises(ValueError, match="on_conflict"):
            a.merge(ResultSet(), on_conflict="panic")

    def test_merge_concatenates_errors(self):
        a = ResultSet(errors=[CellError("bfs", "tiny", "baseline", "boom")])
        b = ResultSet(errors=[CellError("lud", "tiny", "baseline", "bang")])
        merged = a.merge(b)
        assert [e.workload for e in merged.errors] == ["bfs", "lud"]
        assert len(a.errors) == 1 and len(b.errors) == 1
