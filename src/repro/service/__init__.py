"""The sweep service: a daemon, a wire protocol, and a shared store.

This package turns the :class:`~repro.api.engine.Engine` into a
fleet-scale serving stack:

:mod:`repro.service.protocol`
    the line-delimited JSON job protocol — schema-versioned envelopes,
    a closed vocabulary of message types and error codes, and the
    submit/status/result/cancel message builders;
:mod:`repro.service.store`
    the daemon's view of the content-addressed result store — the
    same directory format, writer and reader as the disk level of
    :mod:`repro.api.cache`, so a cache directory can be served and a
    store can warm an ``Engine`` — plus what only the service needs:
    crash-safe GC (rename-to-tombstone), a re-hashing verify pass and
    the torn-write fault hook;
:mod:`repro.service.daemon`
    the ``repro serve`` HTTP daemon (stdlib ``ThreadingHTTPServer``):
    sweep submission with request coalescing (the only coalescer:
    clients just submit), per-job progress
    streaming, cached-cell lookup, 429 back-pressure, a write-ahead
    job journal with ``--resume`` crash recovery, and graceful
    SIGTERM/SIGINT shutdown; its workers are the only writer the
    store has over the network;
:mod:`repro.service.journal`
    the ndjson write-ahead journal the daemon's crash recovery
    replays;
:mod:`repro.service.faults`
    deterministic fault injection (``repro serve --fault-plan``) —
    a closed vocabulary of failure kinds scheduled by occurrence
    count, so every distributed failure mode is a reproducible test;
:mod:`repro.service.remote`
    the ``Engine(backend="remote", server=...)`` client backend with
    bounded retry/backoff, per-request timeouts, honored
    ``Retry-After``, and an optional degraded mode that runs the
    cells the daemon left unresolved through the engine's inline
    runner (``Engine(server=..., fallback="inline")``).
"""

from __future__ import annotations

from repro.service.faults import DaemonCrash, FaultInjected, FaultPlan
from repro.service.journal import JobJournal
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.remote import RemoteClient, RemoteError
from repro.service.store import ResultStore

__all__ = [
    "PROTOCOL_VERSION",
    "DaemonCrash",
    "FaultInjected",
    "FaultPlan",
    "JobJournal",
    "ProtocolError",
    "RemoteClient",
    "RemoteError",
    "ResultStore",
]
