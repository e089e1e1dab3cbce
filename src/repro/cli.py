"""The ``repro`` command line — a veneer over :mod:`repro.api`.

Subcommands::

    repro workloads [--category regular|irregular] [--json]
    repro policies  [NAME] [--json]
    repro sweep     [--workloads bfs,matrixmul] [--configs baseline,sbi_swi]
                    [--policy swi_greedy,dwr] [--axis sm_count=1,2,4,8] ...
                    [--size tiny] [--jobs N] [--format markdown|json|table]
    repro figure7   (another name for sweep)
    repro analyze   --workload bfs --config sbi_swi [--sm-count 4]
                    [--observers timeline,heatmap,origins] [--json OUT.json]
    repro merge     A.json B.json ... [--save OUT.json] [--on-conflict keep]
    repro store     info|gc|verify [--dir DIR] [--max-age S]
                    [--max-entries N] [--max-bytes N] [--dry-run]
    repro serve     [--host H] [--port P] [--store DIR] [--workers N]
                    [--queue-limit N] [--journal PATH] [--resume]
                    [--fault-plan SPEC]

``sweep``'s defaults are the paper's Figure 7 grid (every workload x
``baseline,sbi,swi,sbi_swi,warp64`` @ ``bench``), so ``repro figure7``
is the same subcommand under the figure's name.

Tables go to stdout; a one-line cell accounting (``# N cells: M
simulated, K cached``) goes to stderr so scripted runs can assert a
warm cache performed no simulation.  ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) enables the on-disk result
cache shared with the Python API — the same directory format as
``repro serve --store``, maintained by one subcommand, ``repro store
info|verify|gc`` (``gc --max-entries 0`` empties it).  Every command
that takes a directory resolves it the same way: its flag, else
``$REPRO_CACHE_DIR``, else ``.repro_store`` for the store commands
(the sweep commands then run without a disk cache).  ``--plugin MOD``
imports a module first, so third-party policies registered at import
time are available to ``policies``, ``--configs`` and ``--policy``.

``repro serve`` starts the sweep daemon (:mod:`repro.service`); sweep
commands run against it with ``--server URL``, which switches the
engine to the remote backend.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import List, Optional

from repro.api import Engine, ResultSet, SweepSpec
from repro.workloads import SIZE_ALIASES, SIZES, list_workloads

FORMATS = ("table", "markdown", "json", "csv")


def _load_plugins(args) -> None:
    """Import ``--plugin`` modules (they register policies on import)."""
    for name in args.plugin or ():
        importlib.import_module(name)


def _parse_axis_value(token: str):
    lowered = token.lower()
    if lowered == "none":
        return None
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token


def _parse_axes(tokens: Optional[List[str]]) -> dict:
    axes = {}
    for token in tokens or ():
        field, eq, values = token.partition("=")
        if not eq or not values:
            raise SystemExit(
                "error: --axis wants FIELD=V1,V2,..., got %r" % token
            )
        axes[field] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _render(rs, fmt: str, metric: str) -> str:
    if fmt == "csv":
        extra = () if metric == "ipc" else (metric,)
        return rs.to_csv(extra_metrics=extra)
    sizes = rs.sizes
    if fmt == "json":
        if len(sizes) > 1:
            payload = {
                size: rs.filter(size=size).pivot("workload", "config", metric)
                for size in sizes
            }
        else:
            payload = rs.pivot("workload", "config", metric)
        return json.dumps(payload, indent=1, sort_keys=True)

    def one(sub):
        if fmt == "markdown":
            return sub.to_markdown(metric=metric)
        return sub.to_text(metric=metric)

    if len(sizes) <= 1:
        return one(rs)
    # Multi-size sweeps render one table per size.
    parts = []
    for size in sizes:
        header = "### size=%s" % size if fmt == "markdown" else "== size=%s ==" % size
        parts.append(header + "\n" + one(rs.filter(size=size)))
    return "\n\n".join(parts)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as f:
            f.write(text + "\n")
        print("wrote %s" % output, file=sys.stderr)
    else:
        print(text)


def _validate_metric(spec: SweepSpec, metric: str) -> None:
    """Reject a bad --metric before any simulation runs."""
    import dataclasses

    from repro.timing.config import GPUConfig
    from repro.timing.stats import DeviceStats, Stats

    kinds = {
        DeviceStats if isinstance(cfg, GPUConfig) else Stats
        for cfg in spec.configs.values()
    }
    # Sorted so a metric bad for both kinds always reports the same
    # one first (set order varies per process).
    for kind in sorted(kinds, key=lambda k: k.__name__):
        names = {f.name for f in dataclasses.fields(kind)} | {
            name
            for name, value in vars(kind).items()
            if isinstance(value, property)
        }
        if metric not in names:
            raise ValueError(
                "unknown metric %r for %s runs: choose from %s"
                % (metric, kind.__name__, ", ".join(sorted(names)))
            )


def _observer_text(name: str, observer) -> str:
    """An observer's rendered table, or a line naming the observer when
    it renders none (no repr: its object address differs per run)."""
    render = getattr(observer, "render", None)
    return render() if callable(render) else "(%s renders no table)" % name


def _check_output_dirs(*outputs) -> None:
    """Refuse a ``(flag, path)`` whose directory is missing — before
    the first cell runs, not after the last one."""
    for flag, path in outputs:
        directory = os.path.dirname(path or "") or "."
        if not os.path.isdir(directory):
            raise ValueError("%s %s: no such directory %r" % (flag, path, directory))


def _run_spec(spec: SweepSpec, args) -> int:
    from repro.api.engine import _check_retries, _check_timeout

    _validate_metric(spec, args.metric)
    _check_output_dirs(("--save", args.save), ("--output", args.output))
    # The Engine refuses them too, but by its keyword names.
    _check_timeout(args.timeout, "--timeout")
    _check_retries(args.retries, "--retries")
    counts = {"simulated": 0, "cached": 0, "failed": 0}
    # Remote-cell provenance: "store" hits and "coalesced" rides are
    # cached, "fallback" cells were simulated inline by a degraded
    # client; local cache hits carry no source.
    sources: dict = {}

    def progress(event):
        if event.error is not None:
            counts["failed"] += 1
        else:
            counts["cached" if event.cached else "simulated"] += 1
            if event.source:
                sources[event.source] = sources.get(event.source, 0) + 1
        if args.progress:
            state = "cached" if event.cached else "sim"
            if event.source:
                state = event.source
            if event.error is not None:
                state = "FAILED: %s" % event.error
            print(
                "[%d/%d] %s/%s @%s (%s)"
                % (
                    event.done,
                    event.total,
                    event.workload,
                    event.config_name,
                    event.size,
                    state,
                ),
                file=sys.stderr,
            )

    engine = Engine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress,
        errors="collect" if args.keep_going else "raise",
        plugins=args.plugin,
        observers=args.observer,
        server=args.server,
        timeout=args.timeout,
        retries=args.retries,
        fallback=args.fallback,
    )
    rs = engine.run(spec, verify=args.verify)
    if args.save:
        rs.to_json(args.save)
        print("saved ResultSet to %s" % args.save, file=sys.stderr)
    # Provenance detail appends after the stable prefix, so scripted
    # greps of the historical line keep matching.
    detail = ""
    if sources:
        detail = " (%s)" % ", ".join(
            "%d %s" % (sources[name], name) for name in sorted(sources)
        )
    print(
        "# %d cells: %d simulated, %d cached%s%s"
        % (
            counts["simulated"] + counts["cached"] + counts["failed"],
            counts["simulated"],
            counts["cached"],
            ", %d FAILED" % counts["failed"] if counts["failed"] else "",
            detail,
        ),
        file=sys.stderr,
    )
    try:
        text = _render(rs, args.format, args.metric)
    except AttributeError as exc:
        # A metric that passed _validate_metric for one stats kind can
        # still miss on the other in mixed sweeps; keep it a usage
        # error rather than a traceback.
        raise ValueError("metric %r: %s" % (args.metric, exc)) from exc
    _emit(text, args.output)
    if args.observer:
        for (workload, size, config_name), obs in sorted(engine.observations.items()):
            for name, ob in obs.items():
                print(
                    "\n== %s/%s @%s : %s ==\n%s"
                    % (workload, config_name, size, name, _observer_text(name, ob))
                )
    for err in rs.errors:
        print(
            "failed: %s/%s @%s: %s" % (err.workload, err.config, err.size, err.error),
            file=sys.stderr,
        )
    return 1 if rs.errors else 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_workloads(args) -> int:
    infos = list_workloads(category=args.category)
    if args.json:
        import dataclasses

        print(json.dumps([dataclasses.asdict(i) for i in infos], indent=1))
        return 0
    for info in infos:
        flags = " (excluded from suite means)" if info.mean_excluded else ""
        print("%-22s %-10s%s" % (info.name, info.category, flags))
    print(
        "\nsizes: %s (aliases: %s)"
        % (
            ", ".join(SIZES),
            ", ".join("%s=%s" % kv for kv in sorted(SIZE_ALIASES.items())),
        ),
        file=sys.stderr,
    )
    return 0


def _policy_json(spec) -> dict:
    """A spec's fields plus the capabilities read off its classes."""
    import dataclasses

    return dict(
        dataclasses.asdict(spec),
        issue_width=spec.issue_width,
        hot_capacity=spec.hot_capacity,
        uses_sbi=spec.uses_sbi,
    )


def _cmd_policies(args) -> int:
    # Populate the scheduler and observer registries for the footer.
    import repro.analytics  # noqa: F401
    import repro.core.schedulers  # noqa: F401
    from repro.core import presets
    from repro.core.policy import DIVERGENCE, OBSERVERS, POLICIES, SCHEDULERS

    _load_plugins(args)
    if args.name:
        spec = POLICIES.get(args.name)
        if args.json:
            print(json.dumps(_policy_json(spec), indent=1, sort_keys=True))
            return 0
        print(spec.describe())
        print("preset    : %s" % presets.by_name(args.name).describe())
        return 0
    if args.json:
        print(
            json.dumps(
                [_policy_json(spec) for _, spec in POLICIES.items()],
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    for name, spec in POLICIES.items():
        print(
            "%-12s sched=%-16s div=%-9s issue=%d  %s"
            % (name, spec.scheduler, spec.divergence, spec.issue_width,
               spec.description)
        )
    print(
        "\nschedulers: %s\ndivergence: %s\nobservers : %s"
        % (
            ", ".join(SCHEDULERS.names()),
            ", ".join(DIVERGENCE.names()),
            ", ".join(OBSERVERS.names()),
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    _load_plugins(args)
    spec = SweepSpec(
        workloads=args.workloads.split(","),
        configs=args.configs.split(","),
        sizes=args.size.split(","),
    )
    # The policy axis swaps the whole SM preset, so it expands first;
    # --axis field overrides then compose on top of each policy.
    axes = {"policy": args.policy.split(",")} if args.policy else {}
    axes.update(_parse_axes(args.axis))
    if axes:
        spec = spec.with_axes(**axes)
    print("sweep: %s" % spec.describe(), file=sys.stderr)
    return _run_spec(spec, args)


def _cmd_analyze(args) -> int:
    from repro.core import presets

    _load_plugins(args)
    names = [n.strip() for n in args.observers.split(",") if n.strip()]
    if not names:
        raise ValueError("--observers needs at least one observer name")
    if args.sm_count < 1:
        raise ValueError("--sm-count must be >= 1, got %d" % args.sm_count)
    _check_output_dirs(("--json", args.json))
    if args.sm_count > 1:
        config = presets.device(args.config, sm_count=args.sm_count)
    else:
        config = presets.by_name(args.config)
    spec = SweepSpec(
        workloads=[args.workload], configs={args.config: config}, sizes=[args.size]
    )
    if spec.total_cells != 1:
        raise ValueError(
            "--workload takes one workload, not the group %r" % args.workload
        )
    (size,) = spec.sizes
    engine = Engine(observers=names)
    engine.observer_bins = args.bins
    (result,) = engine.run(spec)
    stats = result.stats
    (aggregators,) = engine.observations.values()

    print(
        "analyze: %s/%s @%s — %d cycles, %.2f ipc"
        % (args.workload, args.config, size, stats.cycles, stats.ipc),
        file=sys.stderr,
    )
    for name, aggregator in aggregators.items():
        print("\n== %s ==\n%s" % (name, _observer_text(name, aggregator)))

    if args.json:
        artifact = {
            "version": 1,
            "workload": args.workload,
            "size": size,
            "config": args.config,
            "sm_count": args.sm_count,
            "cycles": stats.cycles,
            "ipc": stats.ipc,
            "observers": {
                name: aggregators[name].snapshot()
                for name in names
                if hasattr(aggregators[name], "snapshot")
            },
        }
        with open(args.json, "w") as f:
            json.dump(artifact, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.json, file=sys.stderr)

    # Observed peak issue rate must stay within the policy's modeled
    # front-end width (repro.hwcost.validate) — fail loudly otherwise.
    origins = next(
        (a for a in aggregators.values() if hasattr(a, "peak_per_cycle")), None
    )
    if origins is not None:
        from repro.hwcost import front_end_width, validate_peak_issue

        validate_peak_issue(config, origins.snapshot())
        print(
            "peak-issue check: ok (observed <= modeled width %d)"
            % front_end_width(config),
            file=sys.stderr,
        )
    return 0


def _cmd_merge(args) -> int:
    merged = ResultSet()
    for path in args.inputs:
        try:
            rs = ResultSet.from_json(path)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
        merged = merged.merge(rs, on_conflict=args.on_conflict)
    print(
        "# merged %d files -> %d cells%s"
        % (
            len(args.inputs),
            len(merged),
            ", %d errors" % len(merged.errors) if merged.errors else "",
        ),
        file=sys.stderr,
    )
    if args.save:
        merged.to_json(args.save)
        print("saved ResultSet to %s" % args.save, file=sys.stderr)
    # Render when asked for explicitly, or when there is no --save (a
    # bare merge should show *something*); `merge --save out.json`
    # alone stays quiet on stdout for scripted pipelines.
    fmt = args.format if args.format is not None else (None if args.save else "table")
    if fmt is not None:
        _emit(_render(merged, fmt, args.metric), args.output)
    return 0


def _cmd_store(args) -> int:
    import time

    from repro.service.store import ResultStore, resolve_store_dir

    store = ResultStore(resolve_store_dir(args.dir))
    if args.action == "info":
        info = store.info()
        print(
            "store %s: %d entries, %d bytes"
            % (info.root, info.entries, info.total_bytes)
        )
        return 0
    if args.action == "verify":
        outcome = store.verify()
        for problem in outcome.problems:
            print(
                "bad entry %s: %s" % (problem.digest[:16], problem.reason),
                file=sys.stderr,
            )
        print(
            "verified %d entries: %d bad" % (outcome.examined, len(outcome.problems))
        )
        return 0 if outcome.ok else 1
    result = store.gc(
        max_age=args.max_age,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        now=time.time(),
        dry_run=args.dry_run,
    )
    print(
        "%s %d of %d entries (%d bytes), kept %d, swept %d tombstone(s)"
        % (
            "would evict" if result.dry_run else "evicted",
            result.evicted,
            result.examined,
            result.evicted_bytes,
            result.kept,
            result.tombstones_swept,
        )
    )
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service.daemon import make_server
    from repro.service.faults import FaultPlan
    from repro.service.store import resolve_store_dir

    # workers=0 is the Python API's drain-by-hand mode for tests; served,
    # it would ack every job and never run one.
    for flag, value in (("--workers", args.workers), ("--queue-limit", args.queue_limit)):
        if value < 1:
            raise ValueError("%s must be >= 1, got %d" % (flag, value))
    _load_plugins(args)

    def _injected_crash(kind: str) -> None:
        # A crash-* fault means the daemon process dies right here, the
        # way a real kill -9 would: no journal close, no atexit, no
        # graceful anything.  Exit code 70 (EX_SOFTWARE) marks it as
        # deliberate for the chaos harness.
        print("repro serve: injected crash (%s)" % kind, file=sys.stderr)
        sys.stderr.flush()
        os._exit(70)

    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.parse(args.fault_plan, on_crash=_injected_crash)
    server = make_server(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        workers=args.workers,
        queue_limit=args.queue_limit,
        journal_path=args.journal,
        resume=args.resume,
        fault_plan=fault_plan,
    )
    host, port = server.server_address[:2]
    print(
        "repro serve: listening on http://%s:%d (store %s, %d workers)"
        % (host, port, resolve_store_dir(args.store), args.workers),
        file=sys.stderr,
    )
    if fault_plan is not None:
        print("repro serve: fault plan %s" % fault_plan.describe(), file=sys.stderr)

    def _graceful(signum, frame) -> None:
        # serve_forever() must be unwound from another thread: shutdown()
        # blocks until the serve loop exits, and a signal handler runs
        # *on* the main thread that is sitting in that loop.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("repro serve: draining workers and flushing journal", file=sys.stderr)
        server.shutdown()
        server.service.shutdown_gracefully()
        server.server_close()
    print("repro serve: stopped", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_plugin_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plugin",
        action="append",
        metavar="MODULE",
        help="import MODULE first (repeatable) — third-party policies "
        "register themselves at import time",
    )


def _add_run_options(p: argparse.ArgumentParser) -> None:
    _add_plugin_option(p)
    p.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p.add_argument(
        "--cache-dir", default=None, help="on-disk result cache (or $REPRO_CACHE_DIR)"
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--metric", default="ipc", help="stats attribute to tabulate")
    p.add_argument("--output", default=None, help="write the table to a file")
    p.add_argument(
        "--save",
        default=None,
        metavar="PATH",
        help="also write the full ResultSet as JSON "
        "(reload with repro.api.ResultSet.from_json, merge across runs)",
    )
    p.add_argument(
        "--progress", action="store_true", help="report each cell on stderr"
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="collect per-cell failures instead of aborting the sweep",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="always simulate and check outputs against the numpy references",
    )
    p.add_argument(
        "--observer",
        action="append",
        metavar="NAME",
        help="attach a registered observer to every cell (repeatable; "
        "runs inline or with --jobs N, not with --server, and bypasses "
        "cache reads — see repro policies for names, e.g. timeline, "
        "heatmap, origins)",
    )
    p.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="run cells on a repro serve daemon (remote backend), "
        "e.g. http://127.0.0.1:8421",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds for --server (default 30)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="retry attempts for --server requests (default 3)",
    )
    p.add_argument(
        "--fallback",
        choices=("inline",),
        default=None,
        help="with --server: run the cells an unreachable, shutting-down "
        "or faulting daemon left unresolved inline instead of failing "
        "(nothing is uploaded; the daemon's store catches up when it "
        "next simulates them)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SBI/SWI (ISCA 2012) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the registered workloads")
    p.add_argument("--category", choices=("regular", "irregular"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("policies", help="list or describe registered policies")
    p.add_argument("name", nargs="?", default=None, help="describe one policy")
    p.add_argument("--json", action="store_true")
    _add_plugin_option(p)
    p.set_defaults(fn=_cmd_policies)

    p = sub.add_parser(
        "sweep",
        aliases=["figure7"],
        help="run a workloads x configs grid (default: the paper's Figure 7 "
        "grid; figure7 is another name for it)",
    )
    p.add_argument(
        "--workloads",
        default="all",
        help="comma list of names or groups (all, regular, irregular)",
    )
    p.add_argument(
        "--configs",
        default="baseline,sbi,swi,sbi_swi,warp64",
        help="comma list of preset names",
    )
    p.add_argument("--size", default="bench", help="comma list of sizes")
    p.add_argument(
        "--axis",
        action="append",
        metavar="FIELD=V1,V2,...",
        help="expand every config along a field (repeatable), "
        "e.g. --axis sm_count=1,2,4,8",
    )
    p.add_argument(
        "--policy",
        default=None,
        metavar="P1,P2,...",
        help="expand every config along registered policy presets "
        "(the 'policy' axis; see repro policies)",
    )
    _add_run_options(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "analyze",
        help="stream one cell through the analytics aggregators "
        "(timeline, heatmap, origins)",
    )
    p.add_argument("--workload", required=True, help="workload name")
    p.add_argument("--config", default="sbi_swi", help="policy preset name")
    p.add_argument("--size", default="tiny", help="workload size")
    p.add_argument(
        "--sm-count",
        type=int,
        default=1,
        help="simulate a device with N SMs (default 1: single-SM run)",
    )
    p.add_argument(
        "--observers",
        default="timeline,heatmap,origins",
        metavar="N1,N2,...",
        help="comma list of registered observers to attach",
    )
    p.add_argument(
        "--bins",
        type=int,
        default=None,
        help="bin capacity for the binned aggregators (default 64)",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write every aggregator snapshot as one JSON artifact",
    )
    _add_plugin_option(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "merge", help="combine ResultSet JSON artifacts (repro sweep --save)"
    )
    p.add_argument("inputs", nargs="+", metavar="RESULTS.json")
    p.add_argument(
        "--on-conflict",
        choices=("error", "keep", "replace"),
        default="error",
        help="what to do when two files disagree on one cell",
    )
    p.add_argument("--save", default=None, metavar="PATH", help="write merged JSON")
    p.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help="render the merged set (default: table, unless --save is given)",
    )
    p.add_argument("--metric", default="ipc", help="stats attribute to tabulate")
    p.add_argument("--output", default=None, help="write the table to a file")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser(
        "store",
        help="inspect, verify, or garbage-collect a result store "
        "(the disk cache is one; gc --max-entries 0 empties it)",
    )
    p.add_argument("action", choices=("info", "gc", "verify"))
    p.add_argument(
        "--dir",
        default=None,
        help="store root (default: $REPRO_CACHE_DIR or .repro_store)",
    )
    p.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="gc: evict entries older than this",
    )
    p.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="gc: keep at most N newest entries",
    )
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="gc: keep the newest entries totalling at most N bytes",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="gc: report what would be evicted without deleting",
    )
    p.set_defaults(fn=_cmd_store)

    p = sub.add_parser(
        "serve",
        help="run the sweep daemon (remote backend + shared result store)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8421, help="bind port (0 picks a free one)"
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed result store root "
        "(default: $REPRO_CACHE_DIR or .repro_store)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="simulations in flight: N worker processes (one core, one "
        "interpreter and ~50 MiB each) behind N dispatcher threads; only "
        "the daemon process writes the store and the journal",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max queued simulations before 429 back-pressure",
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead job journal (default: <store>/journal.ndjson)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="requeue the journal's unfinished jobs on startup (without it "
        "they stay journalled, and new job ids continue past theirs)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="inject faults: comma-separated KIND[@OP][:NTH][xCOUNT] "
        "specs (e.g. 'drop-connection@jobs:2,crash-after-publish:3')",
    )
    _add_plugin_option(p)
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.service.remote import RemoteError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout closed early (`repro ... | head`); not an error, but
        # Python prints a traceback at shutdown unless the fd is
        # parked on devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, KeyError, RemoteError, OSError) as exc:
        # OSError: a missing file, a port that is taken or out of range
        # — the operating system's refusals are usage errors too.
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
