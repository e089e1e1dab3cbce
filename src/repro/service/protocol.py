"""The sweep service's line-delimited JSON job protocol.

Every message on the wire is one JSON object per line (the *envelope*)
carrying a schema version and a ``type`` drawn from a closed
vocabulary, exactly like the observer-event vocabulary in
:mod:`repro.core.policy.events`: emit sites and dispatchers must use
the ``MSG_*`` / ``ERR_*`` / ``SOURCE_*`` / ``STATUS_*`` constants
defined here and nowhere else (``repro lint``'s ``protocol-vocabulary``
rule enforces it), so a typo'd message type is a diff-time error rather
than a silently dropped request.

The envelope::

    {"v": 1, "type": "<message type>", ...}

Typed failures travel as ``error`` envelopes with a ``code`` from
:data:`ERROR_CODES`; :class:`ProtocolError` is their in-process form
and maps 1:1 onto HTTP statuses in the daemon.

Configs cross the wire as their canonical text,
:func:`repro.api.cache.config_text` — the bytes ``config_hash`` hashes —
and every cell carries its ``cell_hash``: the reader recomputes the hash
from the decoded config and rejects mismatches, so schema skew between
writer and reader is a loud failure instead of a silently wrong content
address.  The writer of a ``submit`` (:func:`submit_line`) encodes each
*configuration* once and splices every cell around that text, taking
the cells' addresses and texts from its caller or from one walk and one
digest per configuration; the reader builds and hashes each distinct
configuration once and derives every decoded cell's address from that.
The ``ack`` of a job the store answered in full is spliced the same
way (:func:`answered_ack_line`), around the stats texts the daemon's
store keeps beside its entries; every other message is :func:`encode`
of its envelope.

Stats travel one way, daemon to client, in ``result`` envelopes: no
message uploads a result, so nothing reaches a served store over the
network except what the daemon's own workers simulated.  (The
``publish`` upload older clients may still send is an unknown type
now and is refused as :data:`ERR_BAD_REQUEST`; so is an older client's
``cancel``, whose route is gone with it — a job runs to ``done``, or
to ``stopped`` when the daemon shuts down first.)

There is one cell: :class:`SubmittedCell`, a list of them written by
:func:`cells_to_wire` and read back (and checked) by
:func:`cells_from_wire`, one cell at a time by :func:`cell_from_wire`.
``submit`` messages, the daemon's job table and the journal's job
records (:mod:`repro.service.journal`) all hold that type, and the
message and the record carry it in bytes from that one writer, so the
three cannot drift (:func:`submit_message` is the message decoded from
its line).  The decoder
raises a plain ``ValueError`` naming the reason; each caller adds where
the cell came from (:data:`ERR_BAD_REQUEST` for a message, a
``JournalError`` for a journal).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.api.cache import (
    AnyConfig,
    cell_address,
    config_from_payload,
    config_hash,
    config_text,
    per_config,
    text_hash,
)

#: Bump when the envelope schema changes; mismatched peers get a typed
#: version error instead of a confusing parse failure.
PROTOCOL_VERSION = 1

# -- message types (closed set) ----------------------------------------

#: Client -> daemon: run these cells.
MSG_SUBMIT: str = "submit"
#: Daemon -> client: submission accepted (job id + per-cell triage; the
#: result ``cells`` too when the store answered them all — one round trip).
MSG_ACK: str = "ack"
#: Daemon -> client: job state snapshot (also the stream heartbeat).
MSG_STATUS: str = "status"
#: Daemon -> client: one cell resolved (progress stream).
MSG_PROGRESS: str = "progress"
#: Daemon -> client: the completed job's per-cell results.
MSG_RESULT: str = "result"
#: Either direction: a typed failure (``code`` from ERROR_CODES).
MSG_ERROR: str = "error"

#: Every valid envelope ``type``.
MESSAGE_TYPES: Tuple[str, ...] = (
    MSG_SUBMIT,
    MSG_ACK,
    MSG_STATUS,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_ERROR,
)

# -- error codes (closed set) ------------------------------------------

ERR_BAD_REQUEST: str = "bad_request"
ERR_VERSION: str = "version_mismatch"
ERR_UNKNOWN_JOB: str = "unknown_job"
ERR_UNKNOWN_CELL: str = "unknown_cell"
ERR_QUEUE_FULL: str = "queue_full"
ERR_SHUTTING_DOWN: str = "shutting_down"
ERR_INTERNAL: str = "internal"

#: Every valid ``error`` envelope ``code``.
ERROR_CODES: Tuple[str, ...] = (
    ERR_BAD_REQUEST,
    ERR_VERSION,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_CELL,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    ERR_INTERNAL,
)

# -- cell dispositions -------------------------------------------------

#: The daemon ran the simulation for this cell.
SOURCE_SIMULATED: str = "simulated"
#: Served from the content-addressed shared store.
SOURCE_STORE: str = "store"
#: Coalesced onto an identical in-flight cell of another submission.
SOURCE_COALESCED: str = "coalesced"
#: Simulated inline by a degraded client after the remote path failed
#: (client-side provenance only; the daemon never emits it).
SOURCE_FALLBACK: str = "fallback"

#: Every valid per-cell ``source``.
CELL_SOURCES: Tuple[str, ...] = (
    SOURCE_SIMULATED,
    SOURCE_STORE,
    SOURCE_COALESCED,
    SOURCE_FALLBACK,
)

#: Per-cell terminal states inside ack/progress/result messages.
STATUS_OK: str = "ok"
STATUS_FAILED: str = "failed"

CELL_STATUSES: Tuple[str, ...] = (STATUS_OK, STATUS_FAILED)

#: Job lifecycle states carried by ``status`` envelopes.
JOB_QUEUED: str = "queued"
JOB_RUNNING: str = "running"
JOB_DONE: str = "done"
#: The daemon shut down gracefully with this job unfinished; the job
#: is journalled and resumes under ``repro serve --resume``.
JOB_STOPPED: str = "stopped"

JOB_STATES: Tuple[str, ...] = (
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_DONE,
    JOB_STOPPED,
)

#: States a job never leaves: a stream or poll that sees one is over.
#: ``stopped`` counts — the daemon shut down with the job unfinished,
#: and its partial result is all it will ever serve.
TERMINAL_JOB_STATES: Tuple[str, ...] = (JOB_DONE, JOB_STOPPED)

#: The full closed vocabulary, for validation and for the lint rule.
VOCABULARY: FrozenSet[str] = frozenset(
    MESSAGE_TYPES + ERROR_CODES + CELL_SOURCES + CELL_STATUSES + JOB_STATES
)


class ProtocolError(Exception):
    """A typed protocol failure (in-process form of ``error`` envelopes).

    ``retry_after`` is set on back-pressure errors: the number of
    seconds the peer should wait before retrying (the daemon surfaces
    it as HTTP 429 + ``Retry-After``).
    """

    def __init__(
        self, code: str, message: str, retry_after: Optional[float] = None
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError("unknown protocol error code %r" % (code,))
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    def to_envelope(self) -> Dict[str, object]:
        body: Dict[str, object] = {"code": self.code, "message": str(self)}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return envelope(MSG_ERROR, **body)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


def envelope(msg_type: str, **body: object) -> Dict[str, object]:
    """A versioned message of ``msg_type`` with the given body fields."""
    if msg_type not in MESSAGE_TYPES:
        raise ValueError("unknown protocol message type %r" % (msg_type,))
    out: Dict[str, object] = {"v": PROTOCOL_VERSION, "type": msg_type}
    out.update(body)
    return out


def encode(message: Dict[str, object]) -> bytes:
    """One wire line: compact JSON + newline (line-delimited framing)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: "bytes | str") -> Dict[str, object]:
    """Parse and validate one wire line into an envelope dict.

    Raises :class:`ProtocolError` with :data:`ERR_BAD_REQUEST` on
    malformed JSON or a type outside the vocabulary, and
    :data:`ERR_VERSION` on a schema-version mismatch.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ERR_BAD_REQUEST, "message is not UTF-8") from exc
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(
            ERR_BAD_REQUEST, "message is not valid JSON: %s" % exc
        ) from exc
    if not isinstance(message, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "message must be a JSON object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_VERSION,
            "protocol version %r, this peer speaks %d"
            % (version, PROTOCOL_VERSION),
        )
    msg_type = message.get("type")
    if msg_type not in MESSAGE_TYPES:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "unknown message type %r (valid: %s)"
            % (msg_type, ", ".join(MESSAGE_TYPES)),
        )
    return message


# ----------------------------------------------------------------------
# The cell codec
# ----------------------------------------------------------------------


class SubmittedCell:
    """One sweep cell with its content address: the same object is what
    a ``submit`` decodes to, what the daemon's job table holds and what
    the journal writes and replays."""

    __slots__ = ("id", "workload", "size", "config_name", "config", "hash")

    def __init__(
        self,
        cell_id: int,
        workload: str,
        size: str,
        config_name: str,
        config: AnyConfig,
        digest: str,
    ) -> None:
        self.id = cell_id
        self.workload = workload
        self.size = size
        self.config_name = config_name
        self.config = config
        self.hash = digest


#: One cell as ``json.dumps(..., sort_keys=True)`` writes its fields:
#: the configuration's :func:`config_text`, then its name, its content
#: address (the reader cross-checks it), its id, its size and its
#: workload.
_CELL_JSON = (
    '{"config": %s, "config_name": %s, "hash": %s, "id": %d, "size": %s, '
    '"workload": %s}'
)


def cells_to_wire(
    cells: Sequence[SubmittedCell], texts: Optional[Sequence[str]] = None
) -> str:
    """The JSON list of ``cells``, in ``submit`` messages and journal
    job records alike, each configuration encoded once — the bytes
    ``json.dumps(..., sort_keys=True)`` writes for the cells' fields,
    with every string escaped by the encoder's own
    ``encode_basestring_ascii``.  ``texts``, in order, are the cells'
    :func:`config_text` where the caller holds them already."""
    if texts is None:
        text_of = per_config(config_text)
        texts = [text_of(cell.config_name, cell.config) for cell in cells]
    return "[%s]" % ", ".join(
        _CELL_JSON % (
            text, _quote(cell.config_name), _quote(cell.hash), cell.id,
            _quote(cell.size), _quote(cell.workload),
        )
        for cell, text in zip(cells, texts, strict=True)
    )


#: config_name -> (wire payload, config, :func:`config_hash`), per list.
_ConfigTable = Dict[str, Tuple[Dict[str, object], AnyConfig, str]]


def cell_from_wire(raw: object, configs: Optional[_ConfigTable] = None) -> SubmittedCell:
    """Decode and check one cell of a :func:`cells_to_wire` list.

    Every failure — missing fields, a ``workload``, ``size``, ``hash``
    or ``config_name`` that is not a string, an ``id`` that is not a
    JSON integer, an unknown config payload, an unregistered policy
    name, or a content-address mismatch between the writer's ``hash``
    and the one recomputed here — raises a plain ``ValueError`` naming
    the field or the reason.  Over ``configs``, :func:`cells_from_wire`'s
    table, a configuration is built and hashed only when its name is
    new or its payload is not ``==`` the one on record; every cell's
    address is derived, and compared with its claim, regardless.
    """
    if not isinstance(raw, dict):
        raise ValueError("must be an object")
    try:
        workload = raw["workload"]
        size = raw["size"]
        payload = raw["config"]
        claimed = raw["hash"]
        cell_id = raw["id"]
        config_name = raw["config_name"]
    except KeyError as exc:
        raise ValueError("is malformed: %r" % (exc,)) from exc
    for field, value in (
        ("workload", workload), ("size", size), ("hash", claimed),
        ("config_name", config_name),
    ):
        if not isinstance(value, str):
            raise ValueError("is malformed: %s %r is not a string" % (field, value))
    if type(cell_id) is not int:  # bool is an int: True is not cell 1
        raise ValueError("is malformed: id %r is not an integer" % (cell_id,))
    if not isinstance(payload, dict):
        raise ValueError("config must be an object")
    configs = {} if configs is None else configs
    known = configs.get(config_name)
    if known is None or known[0] != payload:
        try:
            config = config_from_payload(payload)
        except ValueError as exc:
            raise ValueError(
                "config: %s (a policy a cell names must be registered where "
                "the cell is decoded, e.g. repro serve --plugin)" % exc
            ) from exc
        known = configs[config_name] = (payload, config, config_hash(config))
    digest = cell_address(workload, size, known[2])
    if digest != claimed:
        raise ValueError(
            "content address mismatch (hash %s..., recomputed %s...): "
            "writer and reader disagree on the config schema or cache "
            "version — upgrade the older one" % (claimed[:12], digest[:12])
        )
    return SubmittedCell(cell_id, workload, size, config_name, known[1], digest)


def cells_from_wire(raw_cells: object) -> List[SubmittedCell]:
    """Decode the ``cells`` of a ``submit`` message or a journal job
    record: :func:`cell_from_wire` over one config table, so a grid
    costs one build and one hash per *distinct* configuration.  Ids must
    not repeat — the job table is keyed by them, and a job with two
    cells 0 never finishes.  A ``ValueError`` names the cell index."""
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ValueError("has no cells")
    configs: _ConfigTable = {}
    cells: Dict[int, SubmittedCell] = {}
    for index, raw in enumerate(raw_cells):
        try:
            cell = cell_from_wire(raw, configs)
            if cell.id in cells:
                raise ValueError("repeats id %d" % cell.id)
        except ValueError as exc:
            raise ValueError("cell %d %s" % (index, exc)) from exc
        cells[cell.id] = cell
    return list(cells.values())


# ----------------------------------------------------------------------
# Submissions
# ----------------------------------------------------------------------


def submit_line(
    cells: Sequence[Tuple[str, str, str, AnyConfig]],
    verify: bool = False,
    digests: Optional[Sequence[str]] = None,
    texts: Optional[Sequence[str]] = None,
) -> bytes:
    """The wire line of a ``submit`` envelope for (workload, size,
    config_name, config) cells — the bytes :func:`encode` writes for
    :func:`submit_message`, with no whole-message ``json.dumps``.  Cell
    ids are the sequence indices; every cell carries its content address
    so the peer can cross-check schema agreement.  ``digests`` (the
    cells' addresses) and ``texts`` (their configurations'
    :func:`config_text`), in order, are taken where the caller holds
    them already — ``Engine.run`` derives both from one walk per
    configuration — else derived here from one walk and one digest per
    configuration."""
    if texts is None:
        text_of = per_config(config_text)
        texts = [text_of(name, config) for _, _, name, config in cells]
    if digests is None:
        hashes = {text: text_hash(text) for text in dict.fromkeys(texts)}
        digests = [
            cell_address(workload, size, hashes[text])
            for (workload, size, _, _), text in zip(cells, texts, strict=True)
        ]
    submitted = [
        SubmittedCell(idx, workload, size, config_name, config, digest)
        for idx, ((workload, size, config_name, config), digest) in enumerate(
            zip(cells, digests, strict=True)
        )
    ]
    line = '{"cells": %s, "type": %s, "v": %d, "verify": %s}\n' % (
        cells_to_wire(submitted, texts), _quote(MSG_SUBMIT), PROTOCOL_VERSION,
        "true" if verify else "false",
    )
    return line.encode("utf-8")


def submit_message(
    cells: Sequence[Tuple[str, str, str, AnyConfig]],
    verify: bool = False,
    digests: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The ``submit`` envelope :func:`submit_line` writes, as a dict."""
    message: Dict[str, object] = json.loads(submit_line(cells, verify, digests))
    return message


def decode_submit(
    message: Dict[str, object],
) -> Tuple[List[SubmittedCell], bool]:
    """Validate a ``submit`` envelope into typed cells (see
    :func:`cells_from_wire` for what is checked), every failure typed
    :data:`ERR_BAD_REQUEST`."""
    try:
        cells = cells_from_wire(message.get("cells"))
    except ValueError as exc:
        raise ProtocolError(ERR_BAD_REQUEST, "submit %s" % exc) from exc
    return cells, bool(message.get("verify", False))


# ----------------------------------------------------------------------
# Acks
# ----------------------------------------------------------------------

#: One store-answered cell of an ``ack`` as ``json.dumps(...,
#: sort_keys=True)`` writes it, its ``"stats": <text>`` field (if any)
#: spliced in after ``source``.
_ANSWERED_CELL_JSON = '{"hash": %s, "id": %d, "source": %s%s, "status": %s}'


def answered_ack_line(
    job_id: str, cells: Sequence[Tuple[int, str, Optional[str]]]
) -> bytes:
    """The wire line of the ``ack`` of a job the store answered in full,
    for its ``(id, content address, stats text)`` cells in id order —
    the bytes :func:`encode` writes for that envelope (state ``done``,
    every cell a ``store`` hit, the result ``cells`` carried), with no
    whole-message ``json.dumps``.  A stats text is the entry's stats as
    ``json.dumps(..., sort_keys=True)`` writes them, which is what they
    are inside any ``sort_keys`` message; None leaves the field out."""
    store, ok = _quote(SOURCE_STORE), _quote(STATUS_OK)
    line = (
        '{"cells": [%s], "job": %s, "state": %s, "total": %d, "triage": '
        '{"coalesced": 0, "queued": 0, "store": %d}, "type": %s, "v": %d}\n'
    ) % (
        ", ".join(
            _ANSWERED_CELL_JSON % (
                _quote(digest), cell_id, store,
                "" if text is None else ', "stats": ' + text, ok,
            )
            for cell_id, digest, text in cells
        ),
        _quote(job_id), _quote(JOB_DONE), len(cells), len(cells),
        _quote(MSG_ACK), PROTOCOL_VERSION,
    )
    return line.encode("utf-8")
