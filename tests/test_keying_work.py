"""A deterministic gauge of keying work: canonical walks per sweep.

Every key of a cell — the memo key, the content address, the wire
payload — derives from one walk over its configuration's fields,
:func:`repro.api.cache.config_fields`.  The evaluation's grids are few
configurations x many kernels, so what a warm sweep costs is how often
that walk runs: once per *cell* per key (the tree before this gauge:
five ``dataclasses.asdict`` calls per cell over a disk-then-memo pair
of runs, 12 600 on the benchmark's ``warm_sweep`` shape) or once per
*configuration*.  The counts here repeat exactly, so they are pinned
without a timing run, in the mould of ``CALL_PINS`` in
``tests/test_ready_set.py``: walks per ``Engine.run`` are bounded by
the number of configurations and do not move with the number of
kernels, and ``dataclasses.asdict`` — the deep-copying walk this
replaced — is never called on a config or a ``Stats``.

The JSON work of the same warm pair is pinned beside it: the
pure-Python encoder (``json.dumps`` under ``indent``) is never
entered, no ``json.dumps`` runs per disk-loaded cell, and each such
cell is one ``os.open`` — no buffered ``open`` at all (b6afe37 made
one ``open(path, 'rb')`` per cell).  One walk per configuration and call
yields all three keys (:class:`repro.api.cache.ConfigKeys`): the memo
key at once, the canonical text and its digest from one ``json.dumps``
when first asked for, and the client half of a remote run hands that
text down to the wire instead of encoding it again (9c94718 walked
three times and encoded twice per configuration there, over
``urllib``; now ``http.client`` carries the request).

``python tests/test_keying_work.py`` prints the tables.
"""

import builtins
import contextlib
import dataclasses
import json
import os
import threading
import urllib.request
from unittest import mock

import pytest

from repro.api import Engine, SweepSpec
from repro.api import cache as result_cache
from repro.core import presets
from repro.service import protocol
from repro.service.daemon import make_server
from repro.timing.config import GPUConfig, SMConfig
from repro.timing.stats import DeviceStats, Stats
from repro.workloads import ALL_WORKLOADS

#: Three machines, one of them a device (a nested walk is one walk).
CONFIGS = {
    "baseline": presets.baseline(),
    "sbi_swi": presets.sbi_swi(),
    "dev": presets.device("sbi_swi", sm_count=2),
}
STATS = Stats(cycles=100, thread_instructions=3200, per_op_class={"alu": 3200})


def grid(kernels: int) -> SweepSpec:
    return SweepSpec(
        workloads=ALL_WORKLOADS[:kernels], configs=CONFIGS, size="tiny"
    )


def _must_not_simulate(*args, **kwargs):
    raise AssertionError("a warm sweep simulated")


NO_SIMULATION = dict(
    workload_factory=_must_not_simulate,
    simulate_fn=_must_not_simulate,
    simulate_device_fn=_must_not_simulate,
)


class Walks:
    """Counts this thread's top-level ``config_fields`` calls, and
    fails on any ``dataclasses.asdict`` of a config or stats object."""

    def __init__(self) -> None:
        self.count = 0
        self.to_dict = 0
        self._thread = threading.get_ident()
        self._depth = 0

    def take(self) -> int:
        count, self.count = self.count, 0
        return count

    @contextlib.contextmanager
    def counting(self):
        walk, asdict, to_dict = (
            result_cache.config_fields, dataclasses.asdict, Stats.to_dict
        )

        def counted_walk(config):
            if threading.get_ident() != self._thread:
                return walk(config)  # an in-process daemon's own work
            self.count += self._depth == 0
            self._depth += 1
            try:
                return walk(config)
            finally:
                self._depth -= 1

        def refusing_asdict(obj, **kwargs):
            assert not isinstance(obj, (SMConfig, GPUConfig, Stats, DeviceStats)), (
                "dataclasses.asdict(%s) on the keying path" % type(obj).__name__
            )
            return asdict(obj, **kwargs)

        def counted_to_dict(stats):
            self.to_dict += 1
            return to_dict(stats)

        with mock.patch.object(result_cache, "config_fields", counted_walk), \
                mock.patch.object(dataclasses, "asdict", refusing_asdict), \
                mock.patch.object(Stats, "to_dict", counted_to_dict):
            yield self


class JsonWork:
    """Counts this thread's entries into the pure-Python JSON encoder
    (``json.encoder._make_iterencode``: what ``json.dumps`` falls back
    to under ``indent``), its ``json.dumps`` calls, the mode of each
    file it opens with ``open`` and its ``os.open`` calls."""

    def __init__(self) -> None:
        self.encoder = 0
        self.dumps = 0
        self.opens: list = []
        self.os_opens = 0

    @contextlib.contextmanager
    def counting(self):
        thread = threading.get_ident()
        make, dumps, open_ = json.encoder._make_iterencode, json.dumps, builtins.open
        os_open = os.open

        def ours() -> bool:
            return threading.get_ident() == thread

        def counted_make(*args, **kwargs):
            self.encoder += ours()
            return make(*args, **kwargs)

        def counted_dumps(*args, **kwargs):
            self.dumps += ours()
            return dumps(*args, **kwargs)

        def counted_open(file, mode="r", *args, **kwargs):
            if ours():
                self.opens.append(mode)
            return open_(file, mode, *args, **kwargs)

        def counted_os_open(*args, **kwargs):
            self.os_opens += ours()
            return os_open(*args, **kwargs)

        with mock.patch.object(json.encoder, "_make_iterencode", counted_make), \
                mock.patch.object(json, "dumps", counted_dumps), \
                mock.patch.object(builtins, "open", counted_open), \
                mock.patch.object(os, "open", counted_os_open):
            yield self


def warm_pair(kernels: int, cache_dir: str):
    """(walks of the disk-answered run, walks of the memo-answered run,
    ``Stats.to_dict`` calls of serialising the result, and the
    :class:`JsonWork` of the two runs and the ``to_json``) for a
    ``kernels`` x 3 grid against a pre-filled disk level."""
    spec = grid(kernels)
    for cell in spec.cells():
        result_cache.disk_store(cache_dir, cell.workload, cell.size, cell.config, STATS)
    engine = Engine(backend="inline", cache_dir=cache_dir, memo={}, **NO_SIMULATION)
    json_work = (JsonWork(), JsonWork(), JsonWork())
    with Walks().counting() as walks:
        events = []
        with json_work[0].counting():
            disk_results = engine.run(spec, progress=events.append)
        disk = walks.take()
        with json_work[1].counting():
            memo_results = engine.run(spec, progress=events.append)
        memo = walks.take()
        with json_work[2].counting():
            memo_results.to_json()
        assert walks.take() == 0
    assert len(events) == 2 * spec.total_cells and all(e.cached for e in events)
    assert len(disk_results) == len(memo_results) == spec.total_cells
    return disk, memo, walks.to_dict, json_work


class CountedName(str):
    """A workload name counting the hashes of every key that holds it
    (a tuple does not cache its hash: each dict probe rehashes it)."""

    hashes = 0

    def __hash__(self) -> int:
        CountedName.hashes += 1
        return str.__hash__(self)


def key_hashes_per_cell(kernels: int, cache_dir: str):
    """Hashes of a cell's keys per cell, over a disk-answered run and a
    memo-answered one of a ``kernels`` x 3 grid: the memo key's, and
    the ``(workload, size, config)`` key the ResultSet files it under."""
    spec = SweepSpec(
        workloads=[CountedName(w) for w in ALL_WORKLOADS[:kernels]],
        configs=CONFIGS,
        size="tiny",
    )
    for cell in spec.cells():
        result_cache.disk_store(cache_dir, cell.workload, cell.size, cell.config, STATS)
    engine = Engine(backend="inline", cache_dir=cache_dir, memo={}, **NO_SIMULATION)
    counts = []
    for _ in range(2):
        CountedName.hashes = 0
        engine.run(spec)
        counts.append(CountedName.hashes / spec.total_cells)
    return tuple(counts)


def remote_client_work(kernels: int, store_dir: str):
    """Client-side walks, ``json.dumps`` calls and ``urllib.request.urlopen``
    calls of one remote run of a ``kernels`` x 3 grid against an
    in-process daemon whose store holds every cell."""
    spec = grid(kernels)
    for cell in spec.cells():
        result_cache.disk_store(store_dir, cell.workload, cell.size, cell.config, STATS)
    server = make_server(store_dir=store_dir, workers=1, heartbeat=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://%s:%d" % server.server_address[:2]
        engine = Engine(server=url, cache_dir=None, memo={}, **NO_SIMULATION)
        urlopens = []
        real_urlopen = urllib.request.urlopen

        def counted_urlopen(*args, **kwargs):
            urlopens.append(args)
            return real_urlopen(*args, **kwargs)

        with Walks().counting() as walks, JsonWork().counting() as json_work, \
                mock.patch.object(urllib.request, "urlopen", counted_urlopen):
            events = []
            results = engine.run(spec, progress=events.append)
        assert len(results) == spec.total_cells
        assert {e.source for e in events} == {protocol.SOURCE_STORE}
        assert server.service.health()["counters"]["cells_simulated"] == 0
    finally:
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
        thread.join(timeout=10)
    return walks.count, json_work.dumps, len(urlopens)


def compute_cell_miss_walks(cache_dir: str) -> int:
    """Walks of a one-cell ``Engine.run`` that misses both levels,
    simulates and stores."""
    engine = Engine(
        cache_dir=cache_dir, memo={},
        workload_factory=lambda workload, size: mock.Mock(numpy_check=None),
        simulate_device_fn=lambda kernel, memory, config: DeviceStats(cycles=7),
    )
    spec = SweepSpec(workloads=["histogram"], configs={"dev": CONFIGS["dev"]}, size="tiny")
    with Walks().counting() as walks:
        engine.run(spec)
    assert result_cache.disk_load(cache_dir, "histogram", "tiny", CONFIGS["dev"]).cycles == 7
    return walks.count


# Walks of the tree this gauge was introduced against (d3e449d), per
# cell: every key was an ``asdict`` of the cell's config.
PARENT_PAIR_PER_CELL = 5  # disk run: 2 cell_key + 1 cell_hash; memo run: 2 cell_key
PARENT_REMOTE_PER_CELL = 5  # 2 cell_key, 2 cell_hash, 1 config_to_payload
# Per configuration before one walk yielded every key (9c94718): the
# memo key, the digest and the wire text walked apart (3), and the text
# encoded twice (2 json.dumps); the disk pass walked twice; one urllib
# request per answered remote run.
PARENT_REMOTE_PER_CONFIG = 3
PARENT_REMOTE_DUMPS_PER_CONFIG = 2
PARENT_DISK_PER_CONFIG = 2
PARENT_URLOPENS = 1
PARENT_MISS = 4  # cell_key, 2 cell_hash, config_to_payload
# Key hashes per cell before a swept cell went by its slot number
# (0dd7ecc): the outcome table's store and lookup came on top.
PARENT_KEY_HASHES = (7, 6)


class TestKeyingWork:
    @pytest.mark.parametrize("kernels", [2, 8])
    def test_warm_runs_walk_each_config_not_each_cell(self, kernels, tmp_path):
        configs = len(CONFIGS)
        disk, memo, to_dict, _ = warm_pair(kernels, str(tmp_path))
        assert disk == configs  # the memo key, text and digest: one walk
        assert memo == configs
        assert to_dict == kernels * configs  # once per serialised cell

    @pytest.mark.parametrize("kernels", [2, 8])
    def test_the_warm_path_keeps_off_the_pure_python_encoder(self, kernels, tmp_path):
        """Counts, not times: the C encoder serialises the result, no
        ``json.dumps`` runs per disk-loaded cell (a content address is
        a format string) and each such cell is one ``os.open``, with no
        buffered file object."""
        cells = kernels * len(CONFIGS)
        disk, memo, save = warm_pair(kernels, str(tmp_path))[3]
        assert (disk.encoder, memo.encoder, save.encoder) == (0, 0, 0)
        assert disk.dumps == len(CONFIGS)  # one config_hash per config
        assert (memo.dumps, save.dumps) == (0, 1)
        assert (disk.os_opens, disk.opens) == (cells, [])
        assert (memo.os_opens, memo.opens) == (save.os_opens, save.opens) == (0, [])

    def test_a_cell_key_is_hashed_once_per_probe_it_needs(self, tmp_path):
        # Disk pass: the dedupe, the memo probe, the memo fill; memo
        # pass: the first two.  Each pass adds the ResultSet's lookup
        # and insert of the short (workload, size, config) key.
        assert key_hashes_per_cell(4, str(tmp_path)) == (3 + 2, 2 + 2)

    def test_walks_do_not_grow_with_kernels(self, tmp_path):
        few = warm_pair(2, str(tmp_path / "few"))[:2]
        many = warm_pair(8, str(tmp_path / "many"))[:2]
        assert few == many
        assert sum(many) < PARENT_PAIR_PER_CELL * 2 * len(CONFIGS)

    def test_remote_client_walks_and_encodes_each_config_once(self, tmp_path):
        """The memo key, the address and the wire text come from one walk
        and one ``json.dumps`` per configuration, over ``http.client``."""
        few = remote_client_work(2, str(tmp_path / "few"))
        many = remote_client_work(8, str(tmp_path / "many"))
        assert few == many == (len(CONFIGS), len(CONFIGS), 0)

    def test_compute_cell_derives_one_address_for_load_and_store(self, tmp_path):
        # One walk yields the key and the address; the entry walks again.
        assert compute_cell_miss_walks(str(tmp_path)) <= 2


def main() -> None:
    import tempfile

    print("| path | kernels x configs | walks before (asdict) | walks |")
    print("| --- | ---: | ---: | ---: |")
    json_rows = []
    for kernels in (2, 8, 21):
        with tempfile.TemporaryDirectory() as tmp:
            disk, memo, to_dict, json_work = warm_pair(kernels, tmp)
        cells = kernels * len(CONFIGS)
        print("| Engine.run, disk level then memo | %d x %d | %d (%d + %d at 9c94718) | %d + %d |" % (
            kernels, len(CONFIGS), PARENT_PAIR_PER_CELL * cells,
            PARENT_DISK_PER_CONFIG * len(CONFIGS), len(CONFIGS), disk, memo,
        ))
        print("| ResultSet.to_json (Stats walks) | %d x %d | %d | %d |" % (
            kernels, len(CONFIGS), cells, to_dict
        ))
        json_rows.append((kernels, json_work))
    remote_rows = []
    for kernels in (2, 8):
        with tempfile.TemporaryDirectory() as tmp:
            walks, dumps, urlopens = remote_client_work(kernels, tmp)
        remote_rows.append((kernels, dumps, urlopens))
        print("| remote run, client half, full store | %d x %d | %d (%d at 9c94718) | %d |" % (
            kernels, len(CONFIGS), PARENT_REMOTE_PER_CELL * kernels * len(CONFIGS),
            PARENT_REMOTE_PER_CONFIG * len(CONFIGS), walks,
        ))
    with tempfile.TemporaryDirectory() as tmp:
        print("| Engine.run, one cell, miss with a disk level | 1 x 1 | %d | %d |" % (
            PARENT_MISS, compute_cell_miss_walks(tmp)
        ))
    with tempfile.TemporaryDirectory() as tmp:
        print("| key hashes per cell, disk run + memo run | 4 x %d | %d + %d | %g + %g |" % (
            (len(CONFIGS),) + PARENT_KEY_HASHES + key_hashes_per_cell(4, tmp)
        ))
    print()
    print("| kernels x configs | pass | pure-Python encoder entries | json.dumps "
          "| open (b6afe37) | open | os.open |")
    print("| ---: | --- | ---: | ---: | --- | --- | ---: |")
    for kernels, json_work in json_rows:
        cells = kernels * len(CONFIGS)
        for name, work in zip(("disk", "memo", "to_json"), json_work):
            modes = ", ".join(
                "%d %r" % (work.opens.count(m), m) for m in sorted(set(work.opens))
            )
            print("| %d x %d | %s | %d | %d | %s | %s | %d |" % (
                kernels, len(CONFIGS), name, work.encoder, work.dumps,
                "%d 'rb'" % cells if name == "disk" else "0", modes or "0", work.os_opens,
            ))
    print()
    print("| remote run, client half | kernels x configs | before (9c94718) | now |")
    print("| --- | ---: | ---: | ---: |")
    for kernels, dumps, urlopens in remote_rows:
        print("| json.dumps | %d x %d | %d | %d |" % (
            kernels, len(CONFIGS), PARENT_REMOTE_DUMPS_PER_CONFIG * len(CONFIGS), dumps
        ))
        print("| urllib.request.urlopen | %d x %d | %d | %d |" % (
            kernels, len(CONFIGS), PARENT_URLOPENS, urlopens
        ))


if __name__ == "__main__":
    main()
