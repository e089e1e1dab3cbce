"""Two-level result cache shared by every execution backend.

A *cell* is one (workload, size, config) simulation.  Results are
memoised

* in process (``MEMO``), so a pytest/benchmark session reuses
  simulations across fixtures, and
* optionally on disk (``disk_dir`` argument or the ``REPRO_CACHE_DIR``
  environment variable), so re-running a sweep with a warm cache
  performs no simulation at all.

Both levels key on *every* field of the configuration dataclass
(nested :class:`~repro.timing.config.SMConfig` included), so sweeps
over scoreboard kind, CCT capacity, L1 geometry or DRAM parameters
never collide.  Every key derives from one *canonical form*,
:func:`config_fields`: the dict ``dataclasses.asdict`` builds (equal
values, key order and JSON bytes — by test, ``tests/test_cache_keys.py``)
without its deep copy.  A sweep is few configurations x many workloads,
so :func:`per_config` lets one call (``Engine.run``, ``submit_line``)
walk each configuration once and key every cell off that —
:class:`ConfigKeys` holds the memo key, the canonical text and its
digest from that one walk; a cell's content address is
:func:`cell_address` over workload, size and config digest.

The disk level is the content-addressed result store: one JSON entry
per cell, named by the full :func:`cell_hash` and sharded by its first
two hex digits so a million-entry store never puts a million files in
one directory::

    <dir>/ab/abcdef...0123.json

This module is the only implementation of that format — the entry
schema (:func:`entry_text`), the strict atomic writer
(:func:`disk_store`), the version-checking reader (:func:`read_entry`)
and the directory walk (:func:`walk_entries`).  The sweep daemon's
:class:`~repro.service.store.ResultStore` is built on the same four,
so a cache directory *is* a store: ``repro serve --store`` serves it
and ``repro store verify|gc`` maintain it.  Entries are written
strictly — a stats field that json cannot encode raises
:class:`CacheSerializationError` before the filesystem is touched,
instead of being stringified and corrupting a later reload.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar, Union

from repro.timing.config import GPUConfig, SMConfig
from repro.timing.stats import DeviceStats, Stats

AnyConfig = Union[SMConfig, GPUConfig]
AnyStats = Union[Stats, DeviceStats]

#: Environment variable naming the persistent on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump when the result schema or simulator semantics change; stale
#: disk entries are ignored rather than mis-loaded.
CACHE_VERSION = 1

#: Default in-process memo: (workload, size, config_key) -> stats.
MEMO: Dict[Tuple, AnyStats] = {}

_HEX = "0123456789abcdef"

#: Bytes asked of each ``os.read`` of an entry (:func:`read_entry`).
READ_SIZE = 1 << 16


class CacheSerializationError(ValueError):
    """A stats object produced a field json cannot encode strictly."""


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


#: Field types the canonical walk takes as they are.  Exact types: a
#: numpy scalar is deep-copied and fails :func:`config_hash` as ever.
_SCALARS = frozenset((bool, int, float, str, type(None)))

_T = TypeVar("_T")


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def config_fields(config: AnyConfig) -> Dict[str, object]:
    """The canonical form of ``config``, which every key derives from:
    ``dataclasses.asdict(config)`` in values and key order (every field,
    nested configs walked in turn), but scalars are taken as they are.
    Anything else is deep-copied, so the result never aliases ``config``.
    """
    out: Dict[str, object] = {}
    for name in _field_names(type(config)):
        value = getattr(config, name)
        if type(value) not in _SCALARS:
            walk = config_fields if dataclasses.is_dataclass(value) else copy.deepcopy
            value = walk(value)
        out[name] = value
    return out


def _freeze(value: object) -> object:
    if isinstance(value, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def config_key(config: AnyConfig) -> Tuple:
    """Hashable key covering every field of ``config``."""
    return _key(type(config).__name__, config_fields(config))


def _key(kind: str, fields: Dict[str, object]) -> Tuple:
    return (kind,) + _freeze(fields)


def config_to_payload(config: AnyConfig) -> Dict:
    """The canonical JSON shape of a configuration: the wire/disk form
    shared by the hash derivation, disk entries and the service
    protocol, so a config round-trips to the same content address no
    matter which layer serialized it."""
    return {"type": type(config).__name__, "fields": config_fields(config)}


def config_from_payload(payload: Dict) -> AnyConfig:
    """Rebuild a config from :func:`config_to_payload` output.

    Raises ``ValueError`` on unknown types or field sets (e.g. a
    payload produced by a newer schema), and lets the config's own
    ``validate`` reject bad values — including unregistered policy
    names, which a service host fixes by importing the plugin module.
    """
    kind = payload.get("type")
    fields = payload.get("fields")
    if not isinstance(fields, dict):
        raise ValueError("config payload has no 'fields' mapping")
    try:
        if kind == "SMConfig":
            return SMConfig(**fields)
        if kind == "GPUConfig":
            sm_fields = fields.get("sm")
            if not isinstance(sm_fields, dict):
                raise ValueError("GPUConfig payload has no nested 'sm' fields")
            rest = {k: v for k, v in fields.items() if k != "sm"}
            return GPUConfig(sm=SMConfig(**sm_fields), **rest)
    except TypeError as exc:  # unknown/missing dataclass fields
        raise ValueError("bad %s payload: %s" % (kind, exc)) from exc
    raise ValueError(
        "unknown config payload type %r (expected SMConfig or GPUConfig)"
        % (kind,)
    )


def config_text(config: AnyConfig) -> str:
    """The canonical JSON text of a configuration: what
    :func:`config_hash` hashes, and the bytes a ``submit`` message or a
    journal job record carries for it."""
    return _payload_text(type(config).__name__, config_fields(config))


def _payload_text(kind: str, fields: Dict[str, object]) -> str:
    # No default= fallback: a non-JSON-native field must fail loudly
    # here rather than be repr'd (repr can embed object addresses,
    # which would derive a different key on every run).
    return json.dumps({"type": kind, "fields": fields}, sort_keys=True)


def text_hash(text: str) -> str:
    """The digest of a :func:`config_text`: ``config_hash`` of its config."""
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: AnyConfig) -> str:
    """Stable hex digest of the complete configuration."""
    return text_hash(config_text(config))


class ConfigKeys:
    """Every key of one configuration from one canonical walk: its
    :func:`config_key` at once, and its :func:`config_text` and
    :func:`config_hash` from one ``json.dumps`` when first asked for
    (a run with neither a disk level nor a daemon never asks, and must
    not need its configs JSON-native).  Make one per call, through
    :func:`per_config`."""

    __slots__ = ("key", "_kind", "_fields", "_address")

    def __init__(self, config: AnyConfig) -> None:
        self._kind = type(config).__name__
        self._fields = config_fields(config)
        self.key = _key(self._kind, self._fields)
        self._address: Optional[Tuple[str, str]] = None

    def address(self) -> Tuple[str, str]:
        """``(config_text, config_hash)``."""
        if self._address is None:
            text = _payload_text(self._kind, self._fields)
            self._address = (text, text_hash(text))
        return self._address


def cell_key(workload: str, size: str, config: AnyConfig) -> Tuple:
    """In-process memo key for one cell."""
    return (workload, size, config_key(config))


def cell_address(workload: str, size: str, config_digest: str) -> str:
    """Content address of the cell whose :func:`config_hash` is given:
    the sha256 of the bytes ``json.dumps(payload, sort_keys=True)``
    writes for ``{config, size, version, workload}``, formatted here."""
    blob = '{"config": %s, "size": %s, "version": %d, "workload": %s}' % (
        _quote(config_digest), _quote(size), CACHE_VERSION, _quote(workload)
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_hash(workload: str, size: str, config: AnyConfig) -> str:
    return cell_address(workload, size, config_hash(config))


def per_config(derive: Callable[[AnyConfig], _T]) -> Callable[[str, AnyConfig], _T]:
    """``derive``, once per configuration of one batch of cells: the
    returned ``lookup(config_name, config)`` finds by name and checks by
    identity.  Make one per call — configs are mutable, so nothing about
    their keys may outlive the call that derived them."""
    table: Dict[str, Tuple[AnyConfig, _T]] = {}

    def lookup(config_name: str, config: AnyConfig) -> _T:
        entry = table.get(config_name)
        if entry is None or entry[0] is not config:
            entry = table[config_name] = (config, derive(config))
        return entry[1]

    return lookup


# ----------------------------------------------------------------------
# Stats payloads (shared with ResultSet serialization)
# ----------------------------------------------------------------------


def stats_to_payload(stats: AnyStats) -> Dict:
    kind = "device" if isinstance(stats, DeviceStats) else "sm"
    return {"kind": kind, "data": stats.to_dict()}


def stats_from_payload(payload: Dict) -> AnyStats:
    if payload["kind"] == "device":
        return DeviceStats.from_dict(payload["data"])
    return Stats.from_dict(payload["data"])


# ----------------------------------------------------------------------
# Disk level
# ----------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write ``path`` so readers never observe a torn file.

    The text lands in a ``mkstemp`` sibling first and is moved into
    place with ``os.replace``, so a reader sees either the old entry or
    the complete new one.  ``mkstemp`` (unlike a fixed ``.tmp`` name,
    even a pid-suffixed one) keeps *threads* of one process — the serve
    daemon's worker pool — from interleaving writes into the same
    temporary file.  A crash mid-write leaves only a ``*.tmp`` orphan
    that no loader ever matches.
    """
    import tempfile

    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)  # atomic under concurrent writers
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def resolve_dir(disk_dir: Optional[str]) -> Optional[str]:
    """Explicit directory, else ``$REPRO_CACHE_DIR``, else None."""
    if disk_dir is None:
        disk_dir = os.environ.get(CACHE_DIR_ENV) or None
    return disk_dir


def is_cell_digest(text: str) -> bool:
    """True for a full-length lowercase sha256 hex digest."""
    return len(text) == 64 and not text.strip(_HEX)


def digest_path(root: str, digest: str) -> str:
    """Where the entry for ``digest`` (a :func:`cell_hash`) lives: the
    string ``os.path.join(root, digest[:2], digest + ".json")`` yields,
    from one format string."""
    root = os.fspath(root)
    sep = "" if not root or root.endswith("/") else "/"
    return "%s%s%s/%s.json" % (root, sep, digest[:2], digest)


def entry_text(workload: str, size: str, config: AnyConfig, stats: AnyStats) -> str:
    """The exact bytes of one cell's entry, serialized strictly.

    No ``default=`` fallback: it would stringify unknown field types,
    which either fails or silently corrupts the entry on a later
    ``from_dict`` reload.
    """
    entry = {
        "version": CACHE_VERSION,
        "workload": workload,
        "size": size,
        "config": config_to_payload(config),
        "stats": stats_to_payload(stats),
    }
    try:
        return json.dumps(entry, indent=1, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise CacheSerializationError(
            "cannot cache %s result for %s/%s: %s — every Stats field must "
            "be JSON-serializable (add an explicit encoding to "
            "to_dict/from_dict rather than relying on repr)"
            % (type(stats).__name__, workload, size, exc)
        ) from exc


def read_entry(path: str) -> Dict[str, object]:
    """The entry at ``path``; ``ValueError`` says why there is none.

    Missing, unreadable, torn, non-UTF-8, over-deep and alien files and
    entries from another ``CACHE_VERSION`` all fail here, so lookups
    treat them as misses and ``repro store verify`` reports the reason.
    A hit is one ``os.open``, ``os.read`` until end of file, one
    ``os.close``, a strict UTF-8 decode (a ``UnicodeDecodeError`` is a
    ``ValueError``) and one ``json.loads``.  A regular file reads short
    only at its end, so an entry (~1.5 KB) is one read, and a larger
    one is read on until a read returns less than :data:`READ_SIZE`.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, READ_SIZE)]
            while len(chunks[-1]) == READ_SIZE:
                chunks.append(os.read(fd, READ_SIZE))
        finally:
            os.close(fd)
        entry = json.loads(b"".join(chunks).decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError("unreadable or torn JSON") from exc
    except RecursionError as exc:
        raise ValueError("unreadable or torn JSON: nested too deeply") from exc
    if not isinstance(entry, dict):
        raise ValueError("entry is not a JSON object")
    if entry.get("version") != CACHE_VERSION:
        raise ValueError(
            "cache version %r (this build speaks %d)"
            % (entry.get("version"), CACHE_VERSION)
        )
    return entry


def entry_stats(entry: Dict[str, object]) -> Optional[AnyStats]:
    """The decoded stats of an entry, or None if they do not decode."""
    payload = entry.get("stats")
    if not isinstance(payload, dict):
        return None
    try:
        return stats_from_payload(payload)
    except (KeyError, TypeError):
        return None


def disk_load(
    disk_dir: str, workload: str, size: str, config: AnyConfig, digest: Optional[str] = None
) -> Optional[AnyStats]:
    """One cell's stored stats, or None.  ``digest`` is its content
    address where the caller holds it already (a sweep derives one per
    cell from one digest per configuration); else it is derived here."""
    if digest is None:
        digest = cell_hash(workload, size, config)
    try:
        entry = read_entry(digest_path(disk_dir, digest))
    except ValueError:
        return None
    return entry_stats(entry)


def disk_store(
    disk_dir: str, workload: str, size: str, config: AnyConfig, stats: AnyStats,
    digest: Optional[str] = None,
) -> str:
    """Persist one cell result; returns its content address (``digest``
    where the caller holds it already, as in :func:`disk_load`).

    The entry is serialized before the filesystem is touched, and
    ``disk_dir`` and the shard are created here, on first write.
    Concurrent writers of one digest are harmless: identical hashes
    imply identical entries, so whichever ``os.replace`` lands last
    installs the same bytes.
    """
    text = entry_text(workload, size, config, stats)
    if digest is None:
        digest = cell_hash(workload, size, config)
    path = digest_path(disk_dir, digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_text(path, text)
    return digest


def walk_entries(root: str) -> Iterator[Tuple[Optional[str], str]]:
    """Every entry and tombstone under ``root``, sorted.

    Yields ``(digest, path)`` for entries and ``(None, path)`` for the
    ``.tomb`` files an interrupted delete leaves behind.  Anything else
    — a journal, ``*.tmp`` orphans, files of the old flat layout — is
    not ours and is skipped; a missing root has no entries.
    """
    try:
        shards = sorted(os.listdir(root))
    except OSError:
        return
    for shard in shards:
        shard_dir = os.path.join(root, shard)
        if len(shard) != 2 or not os.path.isdir(shard_dir):
            continue
        try:
            names = sorted(os.listdir(shard_dir))
        except OSError:
            continue
        for name in names:
            digest, ext = os.path.splitext(name)
            if ext == ".json" and is_cell_digest(digest):
                yield digest, os.path.join(shard_dir, name)
            elif ext == ".tomb":
                yield None, os.path.join(shard_dir, name)


# ----------------------------------------------------------------------
# Maintenance
# ----------------------------------------------------------------------


def clear() -> None:
    """Drop the in-process memo.  The disk level is a result store:
    ``repro store gc --max-entries 0`` empties it crash-safely."""
    MEMO.clear()
