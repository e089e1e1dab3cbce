"""Deterministic fault injection for the sweep service.

Every distributed failure mode the service must survive — a dropped
connection, a torn store file, a worker that dies mid-publish — is
expressed here as a *fault kind* from a closed vocabulary (the same
discipline as the protocol message vocabulary: emit and dispatch sites
use the ``FAULT_*`` constants, never bare strings).  A
:class:`FaultPlan` decides **deterministically** which operations
fault: each rule targets the Nth matching operation at one injection
*site*, so a failure sequence observed once is reproducible forever —
in tests, in CI's chaos-smoke job, and at a ``repro serve
--fault-plan`` prompt — instead of being raced.

Injection sites (the daemon calls :meth:`FaultPlan.fire` at each):

``http``
    once per request in the HTTP handler; the *operation label* is the
    one its route carries (``health``, ``cells``, ``jobs``, ``result``,
    ``events``);
``worker``
    once per popped work item in the simulation worker; the label is
    the workload name;
``store``
    once per content-addressed store write; the label is the workload
    name.

Plans come from a spec string (``repro serve --fault-plan``)::

    KIND[@OP][:NTH][xCOUNT] , ...

    drop-connection@jobs:1x4   # drop the first four /v1/jobs requests
    worker-exception:2         # fail the second simulated cell
    crash-after-publish:3      # die after the 3rd cell is published

Every kind fires in a test of the recovery path it exists for, and a
plan names its faults: a chaos run that found a bug is repeated by
passing the same spec again.

Crash kinds invoke the plan's ``on_crash`` hook when present (``repro
serve`` passes ``os._exit`` so the process dies like a real crash,
journal and store exactly as the write-ahead ordering left them);
without a hook they raise :class:`DaemonCrash`, which derives from
``BaseException`` so a worker's ``except Exception`` failure handling
cannot accidentally swallow a simulated machine death.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# -- fault kinds (closed set) ------------------------------------------

#: HTTP: close the connection without writing any response bytes.
FAULT_DROP_CONNECTION: str = "drop-connection"
#: HTTP: write only half of the response body, then close.
FAULT_TRUNCATE_RESPONSE: str = "truncate-response"
#: HTTP: sleep ``delay`` seconds before handling the request.
FAULT_DELAYED_RESPONSE: str = "delayed-response"
#: Store: leave a half-written entry at the final path (a writer that
#: crashed mid-write without the atomic rename).
FAULT_TORN_STORE_WRITE: str = "torn-store-write"
#: Worker: the simulation raises (travels to the client as a failed cell).
FAULT_WORKER_EXCEPTION: str = "worker-exception"
#: Worker: crash after simulating, before the result is published to
#: the store/journal (nothing durable survives).
FAULT_CRASH_BEFORE_PUBLISH: str = "crash-before-publish"
#: Worker: crash after the store write, before waiters hear about it
#: (the result is durable; only the in-memory job table is lost).
FAULT_CRASH_AFTER_PUBLISH: str = "crash-after-publish"

#: Every valid fault kind.
FAULT_KINDS: Tuple[str, ...] = (
    FAULT_DROP_CONNECTION,
    FAULT_TRUNCATE_RESPONSE,
    FAULT_DELAYED_RESPONSE,
    FAULT_TORN_STORE_WRITE,
    FAULT_WORKER_EXCEPTION,
    FAULT_CRASH_BEFORE_PUBLISH,
    FAULT_CRASH_AFTER_PUBLISH,
)

# -- injection sites (closed set) --------------------------------------

SITE_HTTP: str = "http"
SITE_WORKER: str = "worker"
SITE_STORE: str = "store"

SITES: Tuple[str, ...] = (SITE_HTTP, SITE_WORKER, SITE_STORE)

#: Which site each kind injects at (a kind fires at exactly one site).
KIND_SITES: Dict[str, str] = {
    FAULT_DROP_CONNECTION: SITE_HTTP,
    FAULT_TRUNCATE_RESPONSE: SITE_HTTP,
    FAULT_DELAYED_RESPONSE: SITE_HTTP,
    FAULT_TORN_STORE_WRITE: SITE_STORE,
    FAULT_WORKER_EXCEPTION: SITE_WORKER,
    FAULT_CRASH_BEFORE_PUBLISH: SITE_WORKER,
    FAULT_CRASH_AFTER_PUBLISH: SITE_WORKER,
}

#: Kinds that simulate the daemon process dying.
CRASH_KINDS: Tuple[str, ...] = (
    FAULT_CRASH_BEFORE_PUBLISH,
    FAULT_CRASH_AFTER_PUBLISH,
)


class FaultPlanError(ValueError):
    """A fault-plan spec string could not be parsed."""


class FaultInjected(RuntimeError):
    """An injected (non-crash) fault; carries its kind."""

    def __init__(self, kind: str) -> None:
        super().__init__("injected fault: %s" % kind)
        self.kind = kind


class DaemonCrash(BaseException):
    """A simulated daemon death.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so the
    worker's per-cell ``except Exception`` failure path cannot turn a
    simulated crash into an ordinary failed cell.
    """

    def __init__(self, kind: str) -> None:
        super().__init__("injected crash: %s" % kind)
        self.kind = kind


class FaultSpec:
    """One rule: fault the NTH..NTH+COUNT-1'th matching operation."""

    __slots__ = ("kind", "site", "op", "nth", "count", "seen")

    def __init__(
        self,
        kind: str,
        op: Optional[str] = None,
        nth: int = 1,
        count: int = 1,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                "unknown fault kind %r (valid: %s)"
                % (kind, ", ".join(FAULT_KINDS))
            )
        if nth < 1:
            raise FaultPlanError("fault trigger must be >= 1, got %d" % nth)
        if count < 1:
            raise FaultPlanError("fault count must be >= 1, got %d" % count)
        self.kind = kind
        self.site = KIND_SITES[kind]
        self.op = op
        self.nth = nth
        self.count = count
        #: Operations this spec has matched so far (its own counter, so
        #: two specs over one site trigger independently).
        self.seen = 0

    def describe(self) -> str:
        text = self.kind
        if self.op is not None:
            text += "@%s" % self.op
        text += ":%d" % self.nth
        if self.count != 1:
            text += "x%d" % self.count
        return text

    @classmethod
    def parse(cls, token: str) -> "FaultSpec":
        """Parse one ``KIND[@OP][:NTH][xCOUNT]`` token."""
        text = token.strip()
        count = 1
        if "x" in text:
            head, _, tail = text.rpartition("x")
            if head and tail.isdigit():
                text, count = head, int(tail)
        nth = 1
        if ":" in text:
            text, _, tail = text.partition(":")
            if not tail.isdigit():
                raise FaultPlanError(
                    "bad fault trigger in %r (want KIND[@OP][:NTH][xCOUNT])"
                    % token
                )
            nth = int(tail)
        op: Optional[str] = None
        if "@" in text:
            text, _, op = text.partition("@")
            if not op:
                raise FaultPlanError("empty operation label in %r" % token)
        return cls(text, op=op, nth=nth, count=count)


class FaultPlan:
    """A deterministic schedule of injected faults.

    Thread-safe: worker threads and HTTP handler threads share one
    plan.  ``history`` records every fired fault as ``(site, op,
    occurrence, kind)`` so tests assert the exact injected sequence.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        delay: float = 0.05,
        on_crash: Optional[Callable[[str], None]] = None,
    ) -> None:
        if delay < 0:
            raise FaultPlanError("delay must be >= 0")
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.delay = delay
        self.on_crash = on_crash
        self.history: List[Tuple[str, str, int, str]] = []
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------

    @classmethod
    def parse(
        cls,
        text: str,
        delay: float = 0.05,
        on_crash: Optional[Callable[[str], None]] = None,
    ) -> "FaultPlan":
        """A plan from a comma-separated spec string."""
        specs = [
            FaultSpec.parse(token)
            for token in text.split(",")
            if token.strip()
        ]
        if not specs:
            raise FaultPlanError("fault plan %r names no faults" % text)
        return cls(specs, delay=delay, on_crash=on_crash)

    # -- runtime -------------------------------------------------------

    def fire(self, site: str, op: str) -> Optional[str]:
        """The fault kind to inject for this operation, or None.

        Called exactly once per operation at each site; the first
        matching spec wins and the match is recorded in ``history``.
        """
        if site not in SITES:
            raise ValueError("unknown fault site %r" % (site,))
        with self._lock:
            fired: Optional[str] = None
            for spec in self.specs:
                if spec.site != site:
                    continue
                if spec.op is not None and spec.op != op:
                    continue
                spec.seen += 1
                if fired is None and spec.nth <= spec.seen < spec.nth + spec.count:
                    fired = spec.kind
            if fired is not None:
                occurrence = max(
                    spec.seen
                    for spec in self.specs
                    if spec.site == site
                    and (spec.op is None or spec.op == op)
                )
                self.history.append((site, op, occurrence, fired))
            return fired

    def crash(self, kind: str) -> None:
        """Simulate the daemon dying right now.

        ``on_crash`` (``os._exit`` under ``repro serve``) never
        returns; without a hook, raise :class:`DaemonCrash` so the
        calling worker thread unwinds like a thread whose process
        vanished.
        """
        if kind not in CRASH_KINDS:
            raise ValueError("not a crash fault kind: %r" % (kind,))
        if self.on_crash is not None:
            self.on_crash(kind)
        raise DaemonCrash(kind)

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)
