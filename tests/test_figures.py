"""The figure suite under ``benchmarks/`` is sweeps: spec, run, summary.

Tier-1 cover for what ``pytest benchmarks`` regenerates.  Each
``bench_*`` module with a ``spec`` is loaded by path (``benchmarks/``
is no package) and held to the module contract — ``spec(size)``,
``summary(rs)``, one test taking ``(rs, report, bench_size)`` — and to
``tests/data/golden_figures.json``: every ``summary`` value @``tiny``,
written on the parent tree (1da8746) by a scratch script that ran the
parent's own ``bench_*.py`` under pytest and lifted the gmeans out of
its thirteen report functions' locals (``sys.setprofile``), so a float
in that file is one the hand-rolled folds computed.  A diff there means
a fold, a spec or the simulator moved, not that the file needs
regenerating.
"""

import functools
import glob
import importlib.util
import json
import os
import re
import types

import pytest

from repro.api import Engine
from repro.core import presets
from repro.timing.stats import Stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Figure module -> ``spec("tiny").total_cells``.
CELLS = {
    "bench_fig7_performance": 105,
    "bench_fig8a_constraints": 84,
    "bench_fig8b_lane_shuffle": 55,
    "bench_fig9_associativity": 44,
    "bench_ablations": 30,
    "bench_multi_sm": 24,
    "bench_policies": 20,
}


@functools.lru_cache(maxsize=None)
def _load(name):
    path = os.path.join(ROOT, "benchmarks", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(ROOT, "tests", "data", "golden_figures.json")) as _f:
    GOLDEN = json.load(_f)


def test_every_bench_module_imports_and_the_sweeps_are_the_seven():
    names = sorted(
        os.path.basename(path)[:-3]
        for path in glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))
    )
    sweeps = [name for name in names if hasattr(_load(name), "spec")]
    assert sweeps == sorted(CELLS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_spec_size_and_docstring_keys(name):
    module = _load(name)
    assert module.spec("tiny").total_cells == CELLS[name]
    quoted = set(re.findall(r"``(\w+_(?:pct|ratio))``", module.__doc__))
    assert quoted == set(GOLDEN[name]), "docstring and summary disagree"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_summary_equals_the_parents_fold(name):
    module = _load(name)
    rs = Engine().run(module.spec("tiny"))
    assert module.summary(rs) == GOLDEN[name]  # ==, not approx


@pytest.mark.parametrize("name", sorted(CELLS))
def test_failed_cell_fails_the_figure_by_name(name, monkeypatch):
    """One cell raising under ``errors="collect"`` must fail the
    figure's test with the cell in the message, not render a table
    with a hole in it."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)  # stub stats stay here
    module = _load(name)
    spec = module.spec("tiny")
    victim = spec.cells()[-1]

    def build(workload, size):
        return types.SimpleNamespace(kernel=workload, memory=None)

    def simulate(kernel, memory, config):
        if kernel == victim.workload and config == victim.config:
            raise RuntimeError("injected")
        return Stats(cycles=10, thread_instructions=100, instructions_issued=10)

    engine = Engine(
        errors="collect", memo={}, workload_factory=build,
        simulate_fn=simulate, simulate_device_fn=simulate,
    )
    rs = engine.run(spec)
    assert [(e.workload, e.config) for e in rs.errors] == [
        (victim.workload, victim.config_name)
    ]
    (test,) = [
        fn for attr, fn in vars(module).items() if attr.startswith("test_")
    ]
    sections = []
    report = types.SimpleNamespace(add=lambda *args: sections.append(args))
    with pytest.raises(AssertionError, match=re.escape(victim.config_name)):
        test(rs, report, "tiny")
    assert not sections


# ----------------------------------------------------------------------
# The fidelity scorecard (``benchmarks/fidelity.py``), read without
# simulating: the committed ``FIDELITY.json`` against the PAPER tables.
# ----------------------------------------------------------------------

with open(os.path.join(ROOT, "FIDELITY.json")) as _f:
    FIDELITY = json.load(_f)["rows"]

#: Tables 4 and 3: the closed-form rows ``fidelity.static_rows`` adds
#: without simulating.
AREA_ROWS = {"area_overhead_pct_%s" % config for config in ("sbi", "swi", "sbi_swi")}
STORAGE_ROWS = {
    "storage_bits_%s" % config for config in ("baseline", "sbi", "swi", "sbi_swi")
}
STATIC_ROWS = AREA_ROWS | STORAGE_ROWS


def _rule(name, measured, paper, band):
    """The scorecard's status rule, restated."""
    if paper is None:
        return "unscored"
    if band[0] <= measured <= band[1]:
        return "match"
    pivot = {"pct": 0.0, "ratio": 1.0}.get(name.rsplit("_", 1)[-1])
    if pivot is not None and (measured - pivot) * (paper - pivot) > 0:
        return "shape-only"
    return "deviates"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_paper_table_keys_are_the_summary_keys(name):
    assert set(_load(name).PAPER) == set(GOLDEN[name])


def test_fidelity_rows_are_the_summary_names_and_the_closed_forms():
    names = {key for summary in GOLDEN.values() for key in summary}
    assert set(FIDELITY) == names | STATIC_ROWS


def test_each_rows_kind_is_its_producers_and_every_miss_says_why():
    """``fidelity.kind`` reads a summary row as ``simulated`` and a
    closed form as ``analytic``.  A row off its band says why it misses
    and an unscored one what it shows; ``fidelity.unexplained`` refuses
    either without its ``because``."""
    fidelity = _load("fidelity")
    simulated = {key for summary in GOLDEN.values() for key in summary}
    for key, row in FIDELITY.items():
        assert fidelity.kind(row) == ("simulated" if key in simulated else "analytic"), key
        if set(row["status"].values()) != {"match"}:
            assert row.get("because"), key
            bare = {field: value for field, value in row.items() if field != "because"}
            assert fidelity.unexplained({key: bare}) == [key]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fidelity_rows_carry_the_paper_table(name):
    """Editing a PAPER table means regenerating the scorecard."""
    for key, entry in _load(name).PAPER.items():
        row = FIDELITY[key]
        assert row["figure"] == name
        assert row["paper"] == entry.get("paper")
        assert row["band"] == (None if "band" not in entry else list(entry["band"]))
        assert row.get("because") == entry.get("because")


def test_fidelity_columns():
    """``bench`` for every row, ``full`` for Figure 7's and for the
    closed forms."""
    for key, row in FIDELITY.items():
        assert "bench" in row["measured"], key
        if row["figure"] == "bench_fig7_performance" or key in STATIC_ROWS:
            assert "full" in row["measured"], key


def test_fidelity_static_rows_are_the_models_against_tables_3_and_4():
    """Every column of a static row is what the model gives now, held
    to the paper entry ``fidelity.static_rows`` builds; the paper side
    is restated here: Table 4's overheads, and Table 3 multiplied out
    (per component, banks x rows x bits)."""
    rows = list(_load("fidelity").static_rows())
    assert {name for name, _, _, _ in rows} == STATIC_ROWS
    for name, figure, value, entry in rows:
        row = FIDELITY[name]
        assert row["figure"] == figure, name
        assert row["paper"] == entry["paper"], name
        assert row["band"] == list(entry["band"]), name
        assert set(row["measured"].values()) == {round(value, 4)}, name
    assert {c: FIDELITY["area_overhead_pct_" + c]["paper"] for c in ("sbi", "swi", "sbi_swi")} == {
        "sbi": 3.0, "swi": 2.9, "sbi_swi": 3.7,
    }
    for config in ("sbi", "swi", "sbi_swi"):
        row = FIDELITY["area_overhead_pct_" + config]
        assert row["band"] == pytest.approx([row["paper"] - 0.25, row["paper"] + 0.25])
    table3 = {
        "baseline": 2 * 24 * 48 + 2 * 24 * 64 + 144 * 256 + 48 * 64,
        "sbi": 24 * 144 + 24 * 201 + 128 * 104 + 48 * 64,
        "swi": 2 * 24 * 48 + 24 * 104 + 128 * 104 + 24 * 64,
        "sbi_swi": 24 * 288 + 24 * 201 + 128 * 104 + 48 * 64,
    }
    for config, bits in table3.items():
        row = FIDELITY["storage_bits_" + config]
        assert (row["paper"], row["band"]) == (bits, [bits, bits]), config


TABLE2 = _load("bench_table2_parameters").PAPER


@pytest.mark.parametrize("field", sorted(TABLE2))
def test_every_preset_holds_table2_and_the_peak_ipc_exactly(field):
    """``bench_table2_parameters.PAPER`` is the one copy of Table 2 and
    of the paper's peak IPC: field -> configuration -> value."""
    paper = TABLE2[field]
    assert {config: getattr(presets.by_name(config), field) for config in paper} == paper


def test_every_recorded_status_is_the_rules():
    for key, row in FIDELITY.items():
        assert set(row["status"]) == set(row["measured"]), key
        for size, measured in row["measured"].items():
            assert row["status"][size] == _rule(key, measured, row["paper"], row["band"]), (
                key, size,
            )

