"""The ``Engine(backend="remote")`` client side of the sweep service.

:class:`RemoteClient` wraps the daemon's HTTP endpoints, over
``http.client`` directly, with

* **per-request timeouts** (connect and read share one socket timeout);
* **bounded retry with deterministic exponential backoff** for network
  failures — no random jitter, so behaviour is reproducible and the
  backoff sequence is testable;
* **back-pressure honoring**: a 429 response's ``Retry-After`` value
  replaces the backoff delay for the next attempt, so a busy daemon
  paces its clients instead of being hammered.

Coalescing is the daemon's job, not the client's: every sweep submits
its own cells, the daemon attaches identical in-flight cells — from
this client's threads or anyone else's — to one simulation and tags
the riders ``source="coalesced"``, so a million identical figure-7
requests cost one simulation.

:func:`run_remote` is the engine backend runner: it submits the
pending cells, takes the results from the ack when the store answered
them all — else follows the job's progress stream (falling back to
polling ``/result`` if the stream breaks) and fetches them — and yields each
cell's outcome to
:meth:`Engine.run <repro.api.engine.Engine.run>`, which applies the
error policy and folds results into the engine's memo/disk cache.
A cell's content address is derived once on this side — by
``Engine.run``, which hands it down with the cell and its
configuration's canonical text, all from one walk per configuration —
and serves the submission and the match of the daemon's answers; the
daemon derives it again per decoded cell, as the schema cross-check.

**Degraded mode** (``Engine(server=..., fallback="inline")``, off by
default): when a request's retries exhaust against a dead daemon, the
daemon announces shutdown, or it fails or never resolves some cells,
:func:`run_remote` hands those leftover cells to the engine's inline
runner and tags them ``source="fallback"`` in progress events and the
accounting line.  Results are byte-identical either way (same
simulation, same config, same seeds).  The client keeps no state
between requests and uploads nothing: the daemon's workers are the only
writer its store has over the network, so the store converges when the
daemon next simulates the cell (a later submit, or ``--resume``).
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.api.cache import AnyConfig, AnyStats, stats_from_payload
from repro.api.engine import _check_retries, _check_server, _check_timeout
from repro.service import protocol
from repro.service.protocol import ProtocolError

if TYPE_CHECKING:  # circular at runtime: engine dispatches into here
    import http.client  # imported by the client itself, not by the package

    from repro.api.engine import CellOutcome, Engine, Pending

#: One submittable cell: (workload, size, config_name, config).
CellTuple = Tuple[str, str, str, AnyConfig]


class RemoteError(RuntimeError):
    """A request to the sweep daemon failed for good.

    ``code`` carries the protocol error code when the daemon answered
    with a typed error envelope (None for transport-level failures).
    """

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class RemoteClient:
    """HTTP client for one sweep daemon at ``server``: an ``http://`` or
    ``https://`` URL (https verifies the daemon's certificate against
    the default trust store), with an optional path prefix the routes
    go under.  Each request is one ``http.client`` connection — the
    daemon closes it after the response — whose status the caller
    branches on."""

    def __init__(
        self,
        server: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        import http.client

        _check_timeout(timeout)
        _check_retries(retries)
        parts = _check_server(server)
        self.server = server.rstrip("/")
        self._connection = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = cast(str, parts.hostname)  # _check_server: never empty
        self._port = parts.port
        self._prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _open(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> http.client.HTTPResponse:
        """The response to one request, whatever its status, its body
        unread."""
        connection = self._connection(self._host, self._port, timeout=self.timeout)
        try:
            connection.request(
                method, self._prefix + path, body=body,
                headers={"Content-Type": "application/json"},
            )
            return connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        ok_statuses: Sequence[int] = (200,),
    ) -> Dict[str, object]:
        """One endpoint round-trip with retry/backoff/back-pressure;
        ``body`` is an encoded wire line.

        Typed daemon errors other than 429/503 do not retry — the
        request would fail identically again; transport failures,
        back-pressure (429) and graceful shutdown (503) retry up to
        ``retries`` times, sleeping the deterministic backoff (or the
        server-provided ``Retry-After``) between attempts.
        """
        import http.client

        attempts = self.retries + 1
        delay = 0.0
        last = "no attempt made"
        for attempt in range(attempts):
            if delay > 0.0:
                self._sleep(delay)
            delay = min(self.backoff * (2.0 ** attempt), 10.0)
            try:
                response = self._open(method, path, body)
                with response:
                    answer = response.read()
            except (OSError, http.client.HTTPException) as exc:
                # Connection refused, DNS, socket timeouts, dropped
                # connections and truncated bodies (IncompleteRead: the
                # daemon died — or a fault plan cut the response in
                # half) all retry.
                last = "%s: %s" % (type(exc).__name__, exc)
                continue
            status = response.status
            if status in ok_statuses:
                try:
                    return protocol.decode(answer)
                except ProtocolError as exc:
                    raise RemoteError(
                        "%s %s: bad response: %s" % (method, path, exc),
                        code=exc.code,
                    ) from exc
            if 200 <= status < 300:
                raise RemoteError(
                    "%s %s: unexpected HTTP %d" % (method, path, status)
                )
            envelope = _error_envelope(response, answer)
            text = str(envelope["message"])
            if status in (429, 503):
                retry_after = envelope.get("retry_after")
                # bool is an int subclass: True would silently become a
                # 1.0s delay.  Reject bools and negative values, and
                # never honor a delay beyond the 10.0s backoff ceiling a
                # daemon could otherwise impose.
                if (
                    isinstance(retry_after, (int, float))
                    and not isinstance(retry_after, bool)
                    and retry_after >= 0
                ):
                    delay = min(float(retry_after), 10.0)
                last = "daemon %s (%d): %s" % (
                    "shutting down" if status == 503 else "busy", status, text,
                )
                continue
            raise RemoteError(
                "%s %s: %s" % (method, path, text), code=str(envelope["code"])
            )
        raise RemoteError(
            "no response from %s%s after %d attempt%s — last error: %s"
            % (
                self.server,
                path,
                attempts,
                "" if attempts == 1 else "s",
                last,
            )
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/v1/health")

    def submit(
        self,
        cells: Sequence[CellTuple],
        verify: bool = False,
        digests: Optional[Sequence[str]] = None,
    ) -> Dict[str, object]:
        return self._submit_line(protocol.submit_line(cells, verify, digests))

    def _submit_line(self, line: bytes) -> Dict[str, object]:
        return self._request("POST", "/v1/jobs", line)

    def result(self, job_id: str) -> Dict[str, object]:
        """The job's result envelope (a status envelope while running)."""
        return self._request(
            "GET", "/v1/jobs/%s/result" % job_id, ok_statuses=(200, 202)
        )

    def cell(self, digest: str) -> Dict[str, object]:
        """Cached-cell lookup by content address."""
        return self._request("GET", "/v1/cells/%s" % digest)

    def events(self, job_id: str) -> Iterator[Dict[str, object]]:
        """The job's live progress stream (one envelope per line).

        Transport errors surface as :class:`RemoteError`; callers that
        can fall back (``run_remote``) catch it and poll instead.
        """
        import http.client

        try:
            response = self._open("GET", "/v1/jobs/%s/events" % job_id)
            if not 200 <= response.status < 300:
                with response:
                    refusal = _error_envelope(response, response.read())
                raise RemoteError(
                    "events stream for %s: %s" % (job_id, refusal["message"]),
                    code=str(refusal["code"]),
                )
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteError(
                "events stream for %s: %s: %s"
                % (job_id, type(exc).__name__, exc)
            ) from exc
        try:
            with response:
                for line in response:
                    if not line.strip():
                        continue
                    yield protocol.decode(line)
        except ProtocolError as exc:
            raise RemoteError(
                "events stream for %s: bad line: %s" % (job_id, exc),
                code=exc.code,
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteError(
                "events stream for %s broke: %s: %s"
                % (job_id, type(exc).__name__, exc)
            ) from exc

    def wait_result(
        self, job_id: str, poll_interval: float = 0.25
    ) -> Dict[str, object]:
        """Block until the job is terminal; returns its result envelope.

        ``stopped`` counts as terminal: the daemon shut down with this
        job unfinished, and its partial result is all it will ever
        serve — callers see the missing cells and degrade or fail.
        """
        while True:
            message = self.result(job_id)
            if (
                message.get("type") == protocol.MSG_RESULT
                and message.get("state") in protocol.TERMINAL_JOB_STATES
            ):
                return message
            self._sleep(poll_interval)


def _error_envelope(
    response: http.client.HTTPResponse, answer: bytes
) -> Dict[str, object]:
    """The typed error envelope a non-2xx ``response`` carried as its
    body ``answer``; its ``code`` and ``message``, where it has none or
    is not an envelope, an internal error naming the HTTP status."""
    refusal: Dict[str, object] = {
        "code": protocol.ERR_INTERNAL,
        "message": "HTTP Error %d: %s" % (response.status, response.reason),
    }
    try:
        refusal.update(protocol.decode(answer))
    except ProtocolError:
        pass  # not an envelope: the status is all there is to say
    return refusal


# ----------------------------------------------------------------------
# The engine backend runner
# ----------------------------------------------------------------------


def _daemon_outcome(
    digest: str, message: Optional[Dict[str, object]]
) -> Tuple["AnyStats | RemoteError", bool, Optional[str]]:
    """(stats or the error, cached flag, source) of one per-cell result
    message — ``None`` when the daemon never resolved the cell."""
    if message is None:
        text = "daemon returned no result for cell %s" % digest[:12]
        return RemoteError(text), False, None
    status = message.get("status")
    if status == protocol.STATUS_FAILED:
        text = str(message.get("error", "remote cell failed"))
        return RemoteError(text), False, None
    payload = message.get("stats")
    if not isinstance(payload, dict):
        text = "daemon result for cell %s has no stats payload" % digest[:12]
        return RemoteError(text), False, None
    raw = message.get("source")
    source = raw if isinstance(raw, str) else None
    return stats_from_payload(payload), source != protocol.SOURCE_SIMULATED, source


def run_remote(
    engine: "Engine", pending: Sequence["Pending"], verify: bool
) -> Iterator["CellOutcome"]:
    """Resolve ``pending`` cells through the daemon.

    The inline/process runners' contract: one ``(key, cell, stats or
    exception, cached, source)`` per cell, with the error policy, the
    caches and progress left to :meth:`Engine.run` — which folds the
    results into the engine's memo and disk cache, so a later local
    run is warm without another round-trip.

    With ``engine.fallback == "inline"`` the remote path degrades
    instead of failing: cells the daemon never resolved (retries
    exhausted, daemon shut down mid-job) or failed (worker faults) go
    through the engine's inline runner after the daemon's own answers,
    attributed ``source="fallback"``.
    """
    client = engine.remote_client
    fallback = engine.fallback == "inline"
    cell_results: Dict[str, Dict[str, object]] = {}
    # Engine.run addresses every cell of a remote run, and hands down
    # its configuration's text, from one walk per configuration.
    digests = [cast(str, digest) for _, _, digest, _ in pending]
    try:
        ack = client._submit_line(
            protocol.submit_line(
                [
                    (cell.workload, cell.size, cell.config_name, cell.config)
                    for _, cell, _, _ in pending
                ],
                verify,
                digests,
                [cast(str, text) for _, _, _, text in pending],
            )
        )
        # A submission the store answered is finished at its ack, which
        # then carries the cells: one round trip.
        if not _take_cells(ack, cell_results):
            _follow_job(client, str(ack.get("job")), cell_results, ack.get("state"))
    except RemoteError as exc:
        # Only transport-level exhaustion (code None) and a daemon
        # announcing shutdown justify degrading — typed errors like
        # bad_request would fail inline identically, so they
        # propagate.
        if not fallback or exc.code not in (
            None,
            protocol.ERR_SHUTTING_DOWN,
        ):
            raise

    leftovers: List["Pending"] = []
    for (key, cell, _, text), digest in zip(pending, digests):
        message = cell_results.get(digest)
        if fallback and (
            message is None
            or message.get("status") == protocol.STATUS_FAILED
        ):
            # Unresolved cells, and remotely-failed ones, re-run inline
            # under fallback: an injected worker fault must not fail
            # the sweep, and a genuinely broken cell fails identically
            # here.
            leftovers.append((key, cell, digest, text))
        else:
            yield (key, cell) + _daemon_outcome(digest, message)
    for key, cell, got, cached, _ in engine._run_inline(leftovers, verify):
        source = None if isinstance(got, Exception) else protocol.SOURCE_FALLBACK
        yield key, cell, got, cached, source


def _follow_job(
    client: RemoteClient,
    job_id: str,
    cell_results: Dict[str, Dict[str, object]],
    acked_state: object = None,
) -> None:
    """Stream a job to completion, then collect its per-cell results.

    The progress stream is only a wait, and best-effort: a job whose
    ack already said it is terminal (``acked_state`` — every cell was
    answered from the store) has nothing to wait for, and if the stream
    breaks (read timeout, connection reset) polling the result endpoint
    takes over — the final result message is the source of truth
    either way.
    """
    if acked_state not in protocol.TERMINAL_JOB_STATES:
        try:
            for event in client.events(job_id):
                if (
                    event.get("type") == protocol.MSG_STATUS
                    and event.get("state") in protocol.TERMINAL_JOB_STATES
                ):
                    break
        except RemoteError:
            pass  # heartbeat gap or transport hiccup: poll below instead
    if not _take_cells(client.wait_result(job_id), cell_results):
        raise RemoteError("malformed result for job %s" % job_id)


def _take_cells(
    message: Dict[str, object], cell_results: Dict[str, Dict[str, object]]
) -> bool:
    """File a message's per-cell results under their content addresses;
    False when it carries no ``cells`` list (a ``result`` always does, an
    ``ack`` only for a job that was finished when it was sent)."""
    cells = message.get("cells")
    if not isinstance(cells, list):
        return False
    for raw in cells:
        if isinstance(raw, dict) and isinstance(raw.get("hash"), str):
            digest = str(raw["hash"])
            if digest:
                cell_results[digest] = raw
    return True
