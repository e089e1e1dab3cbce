"""Sweep service walkthrough: daemon, remote backend, shared store.

Starts a ``repro serve`` daemon on a loopback port (in-process, the
same :func:`repro.service.daemon.make_server` the CLI uses), then
demonstrates the full client flow against it:

1. a cold sweep through ``Engine(server=...)`` — every cell simulates
   on the daemon and lands in its content-addressed store;
2. the same sweep from a *second* client — zero simulations, all
   cells served from the store (the daemon's accounting counters
   prove it);
3. a direct cached-cell lookup by content address
   (``GET /v1/cells/<hash>``);
4. the store layout on disk, and why two stores merge by file copy
   while ``repro merge`` must compare stats.

Against a real deployment you would skip step 0 and point
``--server`` / ``Engine(server=...)`` at the shared daemon::

    PYTHONPATH=src python examples/remote_sweep.py
    PYTHONPATH=src python examples/remote_sweep.py --size smoke
"""

from __future__ import annotations

import argparse
import os
import tempfile
import threading

from repro.api import Engine, SweepSpec
from repro.api.cache import cell_hash
from repro.service.daemon import make_server
from repro.service.remote import RemoteClient


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--size", default="tiny", choices=("tiny", "smoke", "bench"))
    p.add_argument("--workloads", default="bfs,matrixmul")
    p.add_argument("--modes", default="baseline,sbi_swi")
    p.add_argument("--workers", type=int, default=2)
    return p.parse_args()


def main() -> None:
    args = parse_args()
    spec = SweepSpec.from_presets(
        args.modes.split(","),
        workloads=args.workloads.split(","),
        size=args.size,
    )

    # 0. A daemon on a loopback port, store in a scratch directory.
    store_dir = os.path.join(tempfile.mkdtemp(prefix="repro-store-"), "store")
    server = make_server(port=0, store_dir=store_dir, workers=args.workers)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    url = "http://%s:%d" % (host, port)
    print("daemon   : %s (store %s)" % (url, store_dir))

    def counters() -> dict:
        return dict(server.service.counters)

    # 1. Cold sweep: every unique cell simulates once, on the daemon.
    rs = Engine(server=url, cache_dir=None, memo={}).run(spec)
    after_cold = counters()
    print(
        "cold run : %d cells -> %d simulated, %d from store"
        % (len(rs), after_cold["cells_simulated"], after_cold["cells_store"])
    )

    # 2. A second client (fresh caches): the store serves everything.
    rs2 = Engine(server=url, cache_dir=None, memo={}).run(spec)
    after_warm = counters()
    print(
        "warm run : %d cells -> %d new simulations, %d from store"
        % (
            len(rs2),
            after_warm["cells_simulated"] - after_cold["cells_simulated"],
            after_warm["cells_store"] - after_cold["cells_store"],
        )
    )
    assert rs2.to_json() == rs.to_json(), "remote reruns must be identical"

    # 3. Cached-cell lookup by content address, no sweep required.
    workload, size = args.workloads.split(",")[0], args.size
    config = spec.configs[args.modes.split(",")[0]]
    digest = cell_hash(workload, size, config)
    cell = RemoteClient(url).cell(digest)
    print(
        "lookup   : /v1/cells/%s... -> %s/%s ipc-ready stats (%s)"
        % (digest[:12], cell["workload"], cell["size"], cell["stats"]["kind"])
    )

    # 4. The store on disk: <root>/<hh>/<hash>.json, one entry per
    #    simulated cell, same schema as the flat --cache-dir entries.
    #    Identical hash == identical content, so merging two stores is
    #    `cp -rn` / rsync; `repro merge` is for ResultSet artifacts,
    #    which carry per-cell stats that must be compared.
    #    The root also holds the daemon's write-ahead journal
    #    (journal.ndjson) — only the two-hex-digit directories are
    #    shards.
    shards = sorted(
        name
        for name in os.listdir(store_dir)
        if os.path.isdir(os.path.join(store_dir, name))
    )
    entries = sum(len(os.listdir(os.path.join(store_dir, s))) for s in shards)
    print("store    : %d entries across %d shards" % (entries, len(shards)))
    print(rs.to_text())

    server.shutdown()
    server.service.shutdown_gracefully()
    server.server_close()


if __name__ == "__main__":
    main()
