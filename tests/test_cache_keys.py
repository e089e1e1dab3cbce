"""The canonical form behind every cache key, pinned three ways.

:func:`repro.api.cache.config_fields` replaced ``dataclasses.asdict``
as the one walk all keys derive from (and ``Stats.to_dict`` /
``DeviceStats.to_dict`` became walks of the same kind), on the promise
that nothing stored or sent changes.  Held here:

* equivalence — over hypothesis-drawn valid configs the walk *is*
  ``asdict`` (values, key order, payload JSON bytes), and the stats of
  real runs serialise as ``asdict`` did;
* pinned addresses — digests as the tree before the walk (d3e449d)
  computed them, written out, so a later rewrite cannot drift silently;
  a cache directory is shared across Python versions, so CI runs these
  on every leg;
* a golden store — three entries that tree wrote
  (``tests/data/golden_store``), which this one must answer from disk
  and verify clean;
* one machine, one address — the memo key and the content address
  agree on which configs are the same machine;
* what an entry holds — the result fields, pinned with the
  ``CACHE_VERSION`` they were written under.

Two different things move here, and only one needs a version bump.  A
new config field or a changed default moves every address (every field
enters every key): the digest pins and the golden store fail with
:data:`ADDRESS_MOVED`, old entries can no longer be hit, re-pin.  A new
result field or changed simulator semantics moves no address: old
entries still answer, wrongly — that is what ``CACHE_VERSION`` is for,
and :data:`RESULT_SCHEMA` is its pin.
"""

import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.api.cache import (
    cell_hash,
    config_fields,
    config_from_payload,
    config_hash,
    config_key,
    config_to_payload,
    is_cell_digest,
)
from repro.core import presets
from repro.core.gpu import simulate_device
from repro.core.policy import POLICIES
from repro.core.simulator import simulate
from repro.service.store import ResultStore
from repro.timing.config import (
    _GPU_MINIMA,
    _SM_MINIMA,
    VALID_SCOREBOARDS,
    VALID_SHUFFLES,
    GPUConfig,
    SMConfig,
)
from repro.timing.stats import DeviceStats, Stats
from repro.workloads import get_workload

GOLDEN_STORE = os.path.join(os.path.dirname(__file__), "data", "golden_store")

#: The hint every failed address pin and golden-store lookup carries.
ADDRESS_MOVED = (
    "the config schema or a default moved every address: re-pin, no "
    "version bump needed — old entries can no longer be hit"
)


# ----------------------------------------------------------------------
# Strategies: valid configs, with float / bool fields spelled both ways
# ----------------------------------------------------------------------

_bandwidths = st.one_of(
    st.integers(1, 64),
    st.integers(1, 64).map(float),
    st.floats(0.5, 64.0, allow_nan=False),
)


@st.composite
def sm_configs(draw):
    width = draw(st.sampled_from((4, 8, 16, 32, 64)))
    return SMConfig(
        mode=draw(st.sampled_from([name for name, _ in POLICIES.items()])),
        warp_count=draw(st.integers(1, 48)),
        warp_width=width,
        mad_lanes=width * draw(st.integers(1, 4)),
        scoreboard_kind=draw(st.sampled_from(VALID_SCOREBOARDS)),
        lane_shuffle=draw(st.sampled_from(VALID_SHUFFLES)),
        sbi_constraints=draw(st.sampled_from((True, False, 1, 0))),
        swi_ways=draw(st.one_of(st.none(), st.integers(1, 16))),
        cct_capacity=draw(st.integers(1, 16)),
        dram_bandwidth=draw(_bandwidths),
        dram_latency=draw(st.integers(1, 600)),
        seed=draw(st.integers(0, 3)),
    )


@st.composite
def gpu_configs(draw):
    return GPUConfig(
        sm=draw(sm_configs()),
        sm_count=draw(st.integers(1, 16)),
        dram_partitions=draw(st.integers(1, 4)),
        dram_bandwidth=draw(st.one_of(st.none(), _bandwidths)),
        dram_latency=draw(st.one_of(st.none(), st.integers(1, 600))),
    )


any_configs = st.one_of(sm_configs(), gpu_configs())


# ----------------------------------------------------------------------
# (i) Equivalence with dataclasses.asdict
# ----------------------------------------------------------------------


class TestWalkIsAsdict:
    @settings(max_examples=150, deadline=None)
    @given(any_configs)
    def test_config_fields_equal_asdict(self, config):
        walked, reference = config_fields(config), dataclasses.asdict(config)
        assert walked == reference
        assert list(walked) == list(reference)
        if isinstance(config, GPUConfig):
            assert list(walked["sm"]) == list(reference["sm"])
            assert walked["sm"] is not config.sm
        payload = config_to_payload(config)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            {"type": type(config).__name__, "fields": reference}, sort_keys=True
        )
        assert config_key(config_from_payload(payload)) == config_key(config)

    def test_every_field_of_both_schemas_is_walked(self):
        for cls in (SMConfig, GPUConfig):
            assert list(config_fields(cls())) == [
                f.name for f in dataclasses.fields(cls)
            ]

    def test_non_json_native_fields_still_fail_the_hash(self):
        with pytest.raises(ValueError, match="warp_count must be an integer"):
            SMConfig(warp_count=np.int64(16))  # refused where it is built
        config = SMConfig()
        config.warp_count = np.int64(16)  # ... and past validation:
        assert config_key(config) == config_key(SMConfig(warp_count=16))
        with pytest.raises(TypeError, match="int64"):
            config_hash(config)

    def test_stats_to_dict_equals_asdict(self):
        inst = get_workload("histogram", "tiny")
        stats = simulate(inst.kernel, inst.memory, presets.sbi_swi())
        data, reference = stats.to_dict(), dataclasses.asdict(stats)
        assert data == reference and list(data) == list(reference)
        assert data["per_op_class"] and data["per_op_class"] is not stats.per_op_class
        data["per_op_class"]["alu"] = -1
        assert stats.to_dict() == reference

    def test_device_stats_to_dict_equals_asdict(self):
        inst = get_workload("transpose", "tiny")
        stats = simulate_device(
            inst.kernel, inst.memory, presets.device("sbi_swi", sm_count=4)
        )
        data, reference = stats.to_dict(), dataclasses.asdict(stats)
        assert data == reference and list(data) == list(reference)
        assert len(data["sm_stats"]) == 4
        assert list(data["sm_stats"][0]) == list(reference["sm_stats"][0])
        data["sm_stats"][0]["per_op_class"]["alu"] = -1
        data["sm_stats"].pop()
        assert stats.to_dict() == reference


# ----------------------------------------------------------------------
# (ii) Addresses as d3e449d computed them
# ----------------------------------------------------------------------

PRESET_DIGESTS = {
    "baseline": "1dd9f2ddf486f6ff4b5cdcb1ed9ea80202773a7ab84176d4b12fa1d5716cab1c",
    "sbi": "f3a1f8ac9cf40bc60473873a4c69da1ba7c70b1c1f195edbd939364f811c31c4",
    "swi": "dbc8db09d2e1bc5bbace9de547069fa0e8e09b258d64a6a52c3439b1fb075ecb",
    "sbi_swi": "0a090380206e85ee5cbb9a1e285061f983928b8e72515a6e01e4346f720fde9e",
    "warp64": "5eacf78485dde37fc20240597128b45a1233c40e84387c34fdb5f01358b44761",
}
DEVICE_CELL = "48aa1317aaaa42ffe9398f3e89aba706f03b0ad5234a28a87ad35cd3178d195e"

#: Every bounded field on its lower bound (``mad_lanes`` on the lowest
#: multiple of the warp width), and the digests a46657d — the tree
#: before the bounds were checked — gave these two machines.
SM_AT_BOUNDS = dict(_SM_MINIMA, mad_lanes=32, swi_ways=1)
GPU_AT_BOUNDS = dict(_GPU_MINIMA, dram_latency=0)
AT_BOUNDS_DIGESTS = (
    "81f5263bde7e1e156b39f6d6408d20f07618ea92a65c7a09503193b707e0a146",
    "2b2fd32894adfb22cfde04603616fe76c5f1728cd01b5ac38782dd3f6ad343f9",
)

#: Workload / size names json has to escape, and names it does not.
_names = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f \ud800\U0001f600'))
)


class TestPinnedAddresses:
    def test_figure7_presets(self):
        assert tuple(PRESET_DIGESTS) == presets.FIGURE7_CONFIGS
        for name, digest in PRESET_DIGESTS.items():
            assert config_hash(presets.by_name(name)) == digest, (name, ADDRESS_MOVED)

    def test_a_device_cell(self):
        config = presets.device("sbi_swi", sm_count=16)
        assert cell_hash("transpose", "full", config) == DEVICE_CELL, ADDRESS_MOVED
        assert result_cache.cell_address(
            "transpose", "full", config_hash(config)
        ) == DEVICE_CELL

    def test_every_lower_bound_is_in_range(self):
        sm = SMConfig(**SM_AT_BOUNDS)
        device = GPUConfig(sm=sm, **GPU_AT_BOUNDS)
        assert (config_hash(sm), config_hash(device)) == AT_BOUNDS_DIGESTS, ADDRESS_MOVED

    @settings(max_examples=300, deadline=None)
    @given(_names, _names, st.one_of(_names, st.text("0123456789abcdef", min_size=64, max_size=64)))
    def test_the_formatted_address_is_the_dumped_one(self, workload, size, digest):
        """``cell_address`` formats the bytes ``json.dumps`` wrote for
        it before: quotes, backslashes, control and non-ASCII
        characters (lone surrogates included) escape the same way."""
        payload = {
            "version": result_cache.CACHE_VERSION,
            "workload": workload,
            "size": size,
            "config": digest,
        }
        blob = json.dumps(payload, sort_keys=True)
        assert result_cache.cell_address(workload, size, digest) == (
            hashlib.sha256(blob.encode()).hexdigest()
        )


# ----------------------------------------------------------------------
# (iii) A store the parent tree wrote
# ----------------------------------------------------------------------


def _raise(*args, **kwargs):
    raise AssertionError("a stored cell was simulated: " + ADDRESS_MOVED)


class TestGoldenStore:
    #: What d3e449d simulated and stored: (spec, cycles of its one cell).
    CELLS = (
        (SweepSpec(["histogram"], {"sbi_swi": presets.sbi_swi()}, size="tiny"), 1216),
        (
            SweepSpec(["bfs"], {"swi": presets.swi()}, size="tiny").with_axes(
                swi_ways=[2]
            ),
            9218,
        ),
        (
            SweepSpec(
                ["transpose"], {"dev": presets.device("sbi_swi", sm_count=2)}, size="tiny"
            ),
            972,
        ),
    )

    @pytest.fixture()
    def store_dir(self, tmp_path):
        return shutil.copytree(GOLDEN_STORE, str(tmp_path / "store"))

    def test_every_entry_is_answered_from_disk(self, store_dir):
        engine = Engine(
            cache_dir=store_dir, memo={}, workload_factory=_raise,
            simulate_fn=_raise, simulate_device_fn=_raise,
        )
        for spec, cycles in self.CELLS:
            (result,) = engine.run(spec)
            (cell,) = spec.cells()
            assert result.stats.cycles == cycles
            stored = ResultStore(store_dir).load_stats(
                cell_hash(cell.workload, cell.size, cell.config)
            )
            assert stored is not None and stored.to_dict() == result.stats.to_dict()

    def test_the_store_verifies_clean(self, store_dir):
        report = ResultStore(store_dir).verify()
        assert report.examined == 3 and not report.problems, ADDRESS_MOVED

    def test_rewriting_an_entry_reproduces_its_bytes(self, store_dir):
        """The writer's half: same path, same bytes as the parent's."""
        for spec, _ in self.CELLS:
            (cell,) = spec.cells()
            path = result_cache.digest_path(
                store_dir, cell_hash(cell.workload, cell.size, cell.config)
            )
            assert os.path.exists(path), ADDRESS_MOVED
            with open(path) as f:
                before = f.read()
            stats = result_cache.disk_load(store_dir, cell.workload, cell.size, cell.config)
            os.remove(path)
            result_cache.disk_store(store_dir, cell.workload, cell.size, cell.config, stats)
            with open(path) as f:
                assert f.read() == before


class TestEntryReader:
    """``read_entry`` reads bytes and decodes strict UTF-8, as the
    text-mode reader it replaced did: an entry in any other encoding
    is a miss for a lookup and a problem for ``verify``."""

    @pytest.mark.parametrize("damage", [
        lambda text: text.replace('"histogram"', '"histogräm"').encode("latin-1"),
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-8-sig"),
    ], ids=["latin-1", "utf-16", "utf-8-bom"])
    def test_a_non_utf8_entry_is_a_miss_and_a_problem(self, tmp_path, damage):
        root, config = str(tmp_path), presets.baseline()
        stats = Stats(cycles=7, per_op_class={"alu": 1})
        digest = result_cache.disk_store(root, "histogram", "tiny", config, stats)
        path = result_cache.digest_path(root, digest)
        assert result_cache.disk_load(root, "histogram", "tiny", config) == stats
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(path, "wb") as f:
            f.write(damage(text))
        assert result_cache.disk_load(root, "histogram", "tiny", config) is None
        (problem,) = ResultStore(root).verify().problems
        assert problem.digest == digest and problem.reason == "unreadable or torn JSON"


# ----------------------------------------------------------------------
# What an entry holds, and the version it was written under
# ----------------------------------------------------------------------

#: (``CACHE_VERSION``, ``Stats`` fields, ``DeviceStats`` fields).
RESULT_SCHEMA = (
    1,
    (
        "cycles", "busy_cycles", "instructions_issued", "thread_instructions",
        "issued_primary", "issued_sbi_secondary", "issued_swi_secondary",
        "per_op_class", "branches", "divergent_branches", "merges",
        "max_live_splits", "sync_suspensions", "swi_lookups", "swi_hits",
        "scheduler_conflicts", "l1_accesses", "l1_hits", "l1_misses",
        "dram_bytes", "global_transactions", "shared_transactions",
        "memory_replays", "ctas_launched", "warps_retired",
    ),
    (
        "cycles", "sm_stats", "l2_accesses", "l2_hits", "l2_misses",
        "l2_sector_fills", "dram_bytes",
    ),
)


def test_result_fields_are_pinned_with_cache_version():
    """No address moves when a result field does: the golden store
    above keeps answering every cell from disk, the new counter a
    silent 0.  Only ``CACHE_VERSION`` retires those entries."""
    live = (
        result_cache.CACHE_VERSION,
        tuple(f.name for f in dataclasses.fields(Stats)),
        tuple(f.name for f in dataclasses.fields(DeviceStats)),
    )
    assert live == RESULT_SCHEMA, (
        "an entry written before this change decodes with the new counter "
        "defaulted — bump `CACHE_VERSION` with this pin"
    )


# ----------------------------------------------------------------------
# What counts as a content address
# ----------------------------------------------------------------------

_LOWER_HEX = frozenset("0123456789abcdef")


def _is_cell_digest_by_loop(text):
    """The per-character test ``is_cell_digest`` was, kept as its reference."""
    return len(text) == 64 and all(c in _LOWER_HEX for c in text)


#: Near misses of a digest: lower- and upper-case hex, digits json's
#: ``int()`` would take but sha256 never prints, a stray character.
_digest_chars = st.sampled_from("0123456789abcdefABCDEFg \n\u0663\uff11\u00e9")
_digestish = st.one_of(
    st.text(_digest_chars, min_size=62, max_size=66),
    st.text("0123456789abcdef", min_size=63, max_size=65),
    st.tuples(
        st.text("0123456789abcdef", min_size=64, max_size=64),
        st.integers(0, 63),
        _digest_chars,
    ).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]),
)


class TestIsCellDigest:
    @settings(max_examples=300, deadline=None)
    @given(_digestish)
    def test_agrees_with_the_per_character_loop(self, text):
        assert is_cell_digest(text) == _is_cell_digest_by_loop(text)

    @pytest.mark.parametrize("text, expected", [
        ("0123456789abcdef" * 4, True),
        ("0123456789ABCDEF" * 4, False),
        ("a" * 31 + "g" + "a" * 32, False),
        ("a" * 63, False),
        ("a" * 65, False),
        ("\u0663" * 64, False),  # ARABIC-INDIC DIGIT THREE: a digit, not hex
        ("", False),
    ])
    def test_the_shapes_by_name(self, text, expected):
        assert is_cell_digest(text) is expected
        assert _is_cell_digest_by_loop(text) is expected


# ----------------------------------------------------------------------
# One derivation per configuration, none that outlives the call
# ----------------------------------------------------------------------


class TestPerConfig:
    def test_a_named_object_is_derived_once(self):
        walked = []
        lookup = result_cache.per_config(lambda c: walked.append(c) or config_key(c))
        a, twin = presets.baseline(), presets.baseline()
        assert lookup("base", a) == lookup("base", a) == config_key(a)
        assert walked == [a]
        # Same name, another object: derived again, never answered stale.
        lookup("base", twin)
        assert len(walked) == 2 and walked[1] is twin

    def test_a_sweep_keys_its_cells_as_cell_key_and_cell_hash_do(self, tmp_path):
        spec = SweepSpec(
            ["histogram", "bfs"],
            {"a": presets.baseline(), "alias": presets.baseline(), "d": GPUConfig()},
            size="tiny",
        )
        memo = {}
        engine = Engine(
            cache_dir=str(tmp_path), memo=memo,
            workload_factory=lambda w, z: get_workload("histogram", "tiny"),
        )
        results = engine.run(spec)
        assert len(results) == 6
        assert set(memo) == {
            result_cache.cell_key(c.workload, c.size, c.config) for c in spec.cells()
        }
        assert sorted(ResultStore(str(tmp_path)).digests()) == sorted(
            {cell_hash(c.workload, c.size, c.config) for c in spec.cells()}
        )

    def test_a_config_mutated_between_runs_is_keyed_afresh(self):
        config = presets.baseline()
        spec = SweepSpec(["histogram"], {"m": config}, size="tiny")
        engine = Engine(cache_dir=None, memo={})
        (before,) = engine.run(spec)
        config.dram_latency = 900
        (after,) = engine.run(spec)
        assert len(engine.memo) == 2 and after.stats.cycles > before.stats.cycles


# ----------------------------------------------------------------------
# One machine, one address
# ----------------------------------------------------------------------


class TestOneMachineOneAddress:
    @settings(max_examples=150, deadline=None)
    @given(any_configs, any_configs)
    def test_memo_key_and_content_address_agree(self, a, b):
        assert (config_key(a) == config_key(b)) == (config_hash(a) == config_hash(b))

    @settings(max_examples=100, deadline=None)
    @given(any_configs, st.data())
    def test_respelling_a_float_or_bool_field_is_the_same_machine(self, config, data):
        sm = config.sm if isinstance(config, GPUConfig) else config
        if sm.dram_bandwidth.is_integer() and data.draw(st.booleans()):
            again = sm.replace(dram_bandwidth=int(sm.dram_bandwidth))
        else:
            again = sm.replace(sbi_constraints=int(sm.sbi_constraints))
        if isinstance(config, GPUConfig):
            again = config.replace(sm=again)
        assert config_key(again) == config_key(config)
        assert config_hash(again) == config_hash(config)

    def test_int_spelled_bandwidth_is_the_presets_machine(self):
        assert SMConfig(dram_bandwidth=10).dram_bandwidth == 10.0
        assert type(SMConfig(dram_bandwidth=10).dram_bandwidth) is float
        assert config_hash(SMConfig(dram_bandwidth=10)) == config_hash(SMConfig())
        assert config_hash(
            GPUConfig(dram_bandwidth=40)
        ) == config_hash(GPUConfig(dram_bandwidth=40.0))
        assert GPUConfig().dram_bandwidth is None

    def test_int_spelled_flag_is_the_presets_machine(self):
        assert SMConfig(sbi_constraints=1).sbi_constraints is True
        assert config_hash(SMConfig(sbi_constraints=1)) == config_hash(SMConfig())
        assert config_hash(SMConfig(sbi_constraints=0)) == config_hash(
            SMConfig(sbi_constraints=False)
        )

    def test_cli_axis_values_land_on_the_presets_address(self):
        from repro.cli import _parse_axis_value

        value = _parse_axis_value("10")
        assert type(value) is int
        spec = SweepSpec(["histogram"], {"b": presets.baseline()}, size="tiny")
        (cell,) = spec.with_axes(dram_bandwidth=[value]).cells()
        assert cell_hash("histogram", "tiny", cell.config) == cell_hash(
            "histogram", "tiny", presets.baseline()
        )

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SMConfig, "dram_bandwidth", "fast"),
            (SMConfig, "dram_bandwidth", None),
            (GPUConfig, "dram_bandwidth", "fast"),
            (SMConfig, "sbi_constraints", "yes"),
            (SMConfig, "sbi_constraints", 2),
            # What a46657d let through to a cached result ...
            (SMConfig, "mad_lanes", 0),  # ran on 32 lanes
            (SMConfig, "exec_latency", -1),  # histogram@tiny: 984 cycles, not 1 212
            (SMConfig, "dram_latency", -400),  # 499 cycles
            (SMConfig, "l1_latency", -5),
            (SMConfig, "cct_capacity", -1),
            (SMConfig, "store_segment", 0),
            (SMConfig, "dram_bandwidth", 0),
            (SMConfig, "dram_bandwidth", float("nan")),
            (SMConfig, "dram_bandwidth", float("inf")),  # every transfer took 0 cycles
            (SMConfig, "dram_bandwidth", True),  # ran as 1.0 byte/cycle
            (GPUConfig, "dram_bandwidth", float("inf")),
            (GPUConfig, "dram_bandwidth", True),
            (GPUConfig, "dram_latency", -1),
            (GPUConfig, "l2_latency", -30),
            # ... or to a crash mid-run.
            (SMConfig, "lsu_width", 0),  # range() arg 3 must not be zero
            (SMConfig, "sfu_width", 0),  # likewise, on the first SFU op
            (SMConfig, "shared_banks", 0),  # ZeroDivisionError
            (SMConfig, "l1_ways", 0),  # ZeroDivisionError
            (SMConfig, "fetch_width", 0),  # "deadlock at cycle 0"
            (SMConfig, "scoreboard_entries", 0),  # "deadlock at cycle 4"
            (SMConfig, "warp_count", 0),
            (SMConfig, "swi_ways", 0),
            # ... or to a crash only once an SM was built, in a pool
            # worker or the daemon with the sweep under way.
            (SMConfig, "l1_size", 1000),  # "cache size must be sets * ways * block"
        ],
    )
    def test_a_bad_value_is_a_value_error_naming_the_field(self, cls, field, value):
        with pytest.raises(ValueError, match="%s .*%r" % (field, value)):
            cls(**{field: value})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_an_integer_field_takes_an_int_and_nothing_else(self, data):
        """Every bounded field of either config, ``seed`` and a set
        ``swi_ways`` / device ``dram_latency``: a float (integral ones
        too: ``32.0`` keys like ``32`` but hashes otherwise), a bool or
        a string is a ``ValueError`` naming the field and the value."""
        cls, field = data.draw(st.sampled_from(
            [(SMConfig, f) for f, _ in _SM_MINIMA + (("seed", 0), ("swi_ways", 1))]
            + [(GPUConfig, f) for f, _ in _GPU_MINIMA + (("dram_latency", 0),)]
        ), label="field")
        value = data.draw(st.one_of(
            st.integers(0, 64).map(float),
            st.floats(allow_nan=False),
            st.booleans(),
            st.text(max_size=3),
            st.sampled_from(["8", "32", b"1"]),
        ), label="value")
        with pytest.raises(ValueError, match=r"^%s must be an integer.*, got %s$" % (
            field, re.escape(repr(value))
        )):
            cls(**{field: value})

    def test_one_below_any_bound_is_refused(self):
        for cls, minima in ((SMConfig, _SM_MINIMA), (GPUConfig, _GPU_MINIMA)):
            for field, bound in minima:
                with pytest.raises(ValueError, match="%s .*%d" % (field, bound - 1)):
                    cls(**{field: bound - 1})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_in_range_values_validate_and_keep_their_bytes(self, data):
        """``validate`` only refuses: a value on or above its bound is
        stored as given and hashes as it did before the bounds were
        checked — the canonical payload with these values in place."""
        drawn = {
            field: data.draw(st.integers(bound, bound + 64), label=field)
            for field, bound in _SM_MINIMA
            # Also a multiple of the warp width, and of l1_ways * l1_block.
            if field not in ("mad_lanes", "l1_size")
        }
        sets = data.draw(st.integers(1, 64), label="l1 sets")
        drawn["l1_size"] = sets * drawn["l1_ways"] * drawn["l1_block"]
        config = SMConfig(**drawn)
        fields = config_fields(config)
        assert {field: fields[field] for field in drawn} == drawn
        assert all(type(fields[field]) is int for field in drawn)
        expected = dict(config_fields(SMConfig()), **drawn)
        blob = json.dumps({"type": "SMConfig", "fields": expected}, sort_keys=True)
        assert config_hash(config) == hashlib.sha256(blob.encode()).hexdigest()
