"""Typed, queryable sweep results.

A :class:`ResultSet` replaces the legacy ``{workload: {config:
Stats}}`` nesting with a flat collection of :class:`Result` records
(workload, size, config name, stats) that can be filtered, pivoted
into tables, aggregated with the paper's suite statistics, serialized
(JSON / CSV / markdown) and merged across runs — the JSON form is what
``repro sweep --save`` writes and ``ResultSet.from_json`` reloads
(``--output`` writes the *rendered* table instead).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.api.cache import (
    AnyStats, atomic_write_text, stats_from_payload, stats_to_payload,
)
from repro.analysis.report import format_table, gmean
from repro.workloads import MEAN_EXCLUDED

#: Schema version of the JSON serialization.
RESULTSET_VERSION = 1

Metric = Union[str, Callable[[AnyStats], float]]


@dataclass(frozen=True)
class Result:
    """One completed cell."""

    workload: str
    size: str
    config: str
    stats: AnyStats

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.workload, self.size, self.config)


@dataclass(frozen=True)
class CellError:
    """One failed cell (collected under ``errors='collect'``)."""

    workload: str
    size: str
    config: str
    error: str


def _records(data: Dict[str, Any], name: str, last: str) -> Iterator[List[Any]]:
    """``[where, workload, size, config, <last>]`` of each record in
    ``data[name]``; a ``ValueError`` names a malformed one."""
    records = data.get(name, [])
    if not isinstance(records, list):
        raise ValueError("%s is not a list" % name)
    for i, record in enumerate(records):
        where = "%s[%d]" % (name, i)
        if not isinstance(record, dict):
            raise ValueError("%s is not an object" % where)
        for field in ("workload", "size", "config", last):
            if field not in record:
                raise ValueError("no field %r in %s" % (field, where))
            if field != "stats" and not isinstance(record[field], str):
                raise ValueError("%s.%s is not a string" % (where, field))
        yield [where, record["workload"], record["size"], record["config"], record[last]]


def _result(where: str, workload: str, size: str, config: str, payload: Any) -> Result:
    try:
        stats = stats_from_payload(payload)
        stats.to_dict()  # what decodes must serialise back
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("undecodable stats in %s: %r" % (where, exc)) from None
    return Result(workload, size, config, stats)


def _metric_fn(metric: Metric) -> Callable[[AnyStats], float]:
    if callable(metric):
        return metric
    return lambda stats: getattr(stats, metric)


class ResultSet:
    """An ordered collection of :class:`Result` cells."""

    def __init__(
        self,
        results: Iterable[Result] = (),
        errors: Iterable[CellError] = (),
    ):
        self._results: List[Result] = []
        self._by_key: Dict[tuple, Result] = {}
        self.errors: List[CellError] = list(errors)
        for result in results:
            self.add(result)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, result: Result) -> None:
        """Append one cell; re-adding a key requires identical stats."""
        existing = self._by_key.get(result.key)
        if existing is not None:
            if existing.stats.to_dict() != result.stats.to_dict():
                raise ValueError(
                    "conflicting results for %s/%s/%s"
                    % (result.workload, result.size, result.config)
                )
            return
        self._by_key[result.key] = result
        self._results.append(result)

    def merge(self, other: "ResultSet", on_conflict: str = "error") -> "ResultSet":
        """A new ResultSet with the union of both runs' cells.

        Identical duplicates dedupe silently.  Cells present in both
        with *different* stats follow ``on_conflict``: ``"error"``
        raises, ``"keep"`` keeps this set's value, ``"replace"`` takes
        ``other``'s.  Errors lists concatenate.
        """
        if on_conflict not in ("error", "keep", "replace"):
            raise ValueError("on_conflict must be 'error', 'keep' or 'replace'")
        merged = ResultSet(self._results, errors=self.errors)
        for result in other:
            existing = merged._by_key.get(result.key)
            if (
                existing is not None
                and existing.stats.to_dict() != result.stats.to_dict()
            ):
                if on_conflict == "error":
                    raise ValueError(
                        "conflicting results for %s/%s/%s (pass on_conflict="
                        "'keep' or 'replace')" % result.key
                    )
                if on_conflict == "keep":
                    continue
                merged._by_key[result.key] = result
                merged._results[merged._results.index(existing)] = result
                continue
            merged.add(result)
        merged.errors.extend(other.errors)
        return merged

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[Result]:
        return iter(self._results)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return [
            (r.key, r.stats.to_dict()) for r in self._results
        ] == [(r.key, r.stats.to_dict()) for r in other._results]

    @property
    def workloads(self) -> List[str]:
        return list(dict.fromkeys(r.workload for r in self._results))

    @property
    def configs(self) -> List[str]:
        return list(dict.fromkeys(r.config for r in self._results))

    @property
    def sizes(self) -> List[str]:
        return list(dict.fromkeys(r.size for r in self._results))

    def get(
        self, workload: str, config: str, size: Optional[str] = None
    ) -> AnyStats:
        """The stats of one cell (``size`` optional when unambiguous)."""
        if size is not None:
            result = self._by_key.get((workload, size, config))
            if result is None:
                raise KeyError((workload, size, config))
            return result.stats
        matches = [
            r for r in self._results if r.workload == workload and r.config == config
        ]
        if not matches:
            raise KeyError((workload, config))
        if len(matches) > 1:
            raise KeyError(
                "cell %s/%s exists at sizes %s: pass size="
                % (workload, config, [r.size for r in matches])
            )
        return matches[0].stats

    def filter(
        self,
        workload=None,
        config=None,
        size=None,
        predicate: Optional[Callable[[Result], bool]] = None,
    ) -> "ResultSet":
        """Cells matching every given criterion (str or collection).

        Collected errors matching the same axis criteria travel with
        the filtered view (``predicate`` applies to results only).
        """

        def wanted(value: str, criterion: object) -> bool:
            if criterion is None:
                return True
            if isinstance(criterion, str):
                return value == criterion
            return value in criterion

        def axis_match(item) -> bool:
            return (
                wanted(item.workload, workload)
                and wanted(item.config, config)
                and wanted(item.size, size)
            )

        return ResultSet(
            (
                r
                for r in self._results
                if axis_match(r) and (predicate is None or predicate(r))
            ),
            errors=(e for e in self.errors if axis_match(e)),
        )

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def pivot(
        self,
        rows: str = "workload",
        cols: str = "config",
        metric: Metric = "ipc",
    ) -> Dict[str, Dict[str, float]]:
        """Nested ``{row: {col: value}}`` over two of the three axes.

        ``rows``/``cols`` each name one of ``workload``, ``config``,
        ``size``; the remaining axis must be single-valued (filter
        first otherwise).  ``metric`` is a stats attribute name or a
        callable.
        """
        for axis in (rows, cols):
            if axis not in ("workload", "config", "size"):
                raise ValueError("axis must be workload, config or size")
        if rows == cols:
            raise ValueError("rows and cols must differ")
        (collapsed,) = {"workload", "config", "size"} - {rows, cols}
        collapsed_values = {getattr(r, collapsed) for r in self._results}
        if len(collapsed_values) > 1:
            raise ValueError(
                "%s axis has several values %s: filter(%s=...) first"
                % (collapsed, sorted(collapsed_values), collapsed)
            )
        fn = _metric_fn(metric)
        table: Dict[str, Dict[str, float]] = {}
        for r in self._results:
            table.setdefault(getattr(r, rows), {})[getattr(r, cols)] = fn(r.stats)
        return table

    def ipc_table(self) -> Dict[str, Dict[str, float]]:
        """``{workload: {config: ipc}}`` — the legacy suite table."""
        return self.pivot("workload", "config", "ipc")

    def speedup_over(
        self, base: str, metric: Metric = "ipc"
    ) -> Dict[str, Dict[str, float]]:
        """Per-workload ratios vs the ``base`` config (base column = 1)."""
        table = self.pivot("workload", "config", metric)
        out: Dict[str, Dict[str, float]] = {}
        for workload, row in table.items():
            if base not in row:
                raise KeyError(
                    "workload %r has no %r cell to normalise by" % (workload, base)
                )
            out[workload] = {c: v / row[base] for c, v in row.items()}
        return out

    # ------------------------------------------------------------------
    # Suite statistics
    # ------------------------------------------------------------------

    def geo_mean(
        self,
        metric: Metric = "ipc",
        exclude: Iterable[str] = MEAN_EXCLUDED,
        base: Optional[str] = None,
    ) -> Dict[str, float]:
        """Per-config geometric mean over workloads (the paper's suite
        statistic); ``base`` switches from raw values to speedups.
        ``exclude`` defaults to the paper's TMD exclusion."""
        exclude = tuple(exclude)
        table = (
            self.speedup_over(base, metric)
            if base is not None
            else self.pivot("workload", "config", metric)
        )
        per_config: Dict[str, List[float]] = {}
        for workload, row in table.items():
            if workload in exclude:
                continue
            for config, value in row.items():
                per_config.setdefault(config, []).append(value)
        if table and not per_config:
            # Every workload present fell to ``exclude``; a silent {}
            # here reads downstream like "no configs", so fail loudly
            # (gmean likewise raises on empty input).
            raise ValueError(
                "no workloads left to aggregate: all of %s are excluded"
                % sorted(table)
            )
        return {c: gmean(vals) for c, vals in per_config.items()}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": RESULTSET_VERSION,
            "results": [
                {
                    "workload": r.workload,
                    "size": r.size,
                    "config": r.config,
                    "stats": stats_to_payload(r.stats),
                }
                for r in self._results
            ],
            "errors": [
                {
                    "workload": e.workload,
                    "size": e.size,
                    "config": e.config,
                    "error": e.error,
                }
                for e in self.errors
            ],
        }

    @classmethod
    def from_dict(cls, data: object) -> "ResultSet":
        """Rebuild :meth:`to_dict` output; any other JSON value is a
        ``ValueError`` naming what is wrong with it."""
        if not isinstance(data, dict):
            raise ValueError("not a ResultSet: the top level is not an object")
        if data.get("version") != RESULTSET_VERSION:
            raise ValueError(
                "unsupported ResultSet payload version %r" % (data.get("version"),)
            )
        return cls(
            results=(_result(*r) for r in _records(data, "results", "stats")),
            errors=(CellError(*e[1:]) for e in _records(data, "errors", "error")),
        )

    def to_json(self, path: Optional[str] = None) -> str:
        """One line of JSON (``python -m json.tool`` pretty-prints it);
        ``path`` is replaced atomically, so an interrupted write leaves
        the old file."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        if path is not None:
            atomic_write_text(path, text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str) -> "ResultSet":
        """Load from a JSON string or a path to a JSON file (either
        layout: one line, or the indented one older trees wrote)."""
        try:
            if source.lstrip().startswith("{"):
                data = json.loads(source)
            else:
                with open(source) as f:
                    data = json.load(f)
        except RecursionError as exc:
            raise ValueError("ResultSet JSON is nested too deeply") from exc
        return cls.from_dict(data)

    def to_csv(
        self,
        path: Optional[str] = None,
        extra_metrics: Iterable[str] = (),
    ) -> str:
        """Long-format CSV: one row per cell with headline counters.

        ``extra_metrics`` appends further stats-attribute columns
        (e.g. ``["l1_hit_rate"]``) after the standard ones.
        """
        headline = ["cycles", "instructions_issued", "thread_instructions", "ipc"]
        extras = [m for m in extra_metrics if m not in headline]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["workload", "size", "config"] + headline + extras)
        for r in self._results:
            writer.writerow(
                [
                    r.workload,
                    r.size,
                    r.config,
                    r.stats.cycles,
                    r.stats.instructions_issued,
                    r.stats.thread_instructions,
                    "%r" % r.stats.ipc,
                ]
                + ["%r" % getattr(r.stats, m) for m in extras]
            )
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def _table_rows(
        self, metric: Metric, mean: Optional[str], base: Optional[str]
    ) -> Tuple[List[str], List[List[Union[str, float, None]]]]:
        """Header and rows of the workload x config pivot (None = hole).

        With ``base`` the cells are ratios to that config, rendered
        here as signed percent over it (``+1.42%``; the base column is
        dropped): the claims a ratio table sits under are fractions of
        a percent, which two decimals of ``1.00`` hide.
        """
        if mean not in (None, "geo"):
            raise ValueError("mean must be 'geo' or None, got %r" % (mean,))
        configs = self.configs
        if base is None:
            table = self.pivot("workload", "config", metric)
        else:
            table = self.speedup_over(base, metric)
            configs = [c for c in configs if c != base]

        def show(value: Optional[float]) -> Union[str, float, None]:
            if value is None or base is None:
                return value
            return "%+.2f%%" % (100 * (value - 1))

        rows = [
            [w] + [show(table[w].get(c)) for c in configs] for w in self.workloads
        ]
        if mean is not None:
            try:
                means = self.geo_mean(metric, base=base)
            except ValueError:
                # A view holding only MEAN_EXCLUDED workloads still
                # renders; its mean row shows "-" for every config.
                means = {}
            rows.append(["geo_mean"] + [show(means.get(c)) for c in configs])
        return ["workload"] + configs, rows

    def to_markdown(
        self,
        metric: Metric = "ipc",
        mean: Optional[str] = "geo",
        base: Optional[str] = None,
    ) -> str:
        """A GitHub-flavoured markdown pivot table with a mean row
        (speedups over ``base``, as signed percent, when given)."""
        headers, rows = self._table_rows(metric, mean, base)
        out = ["| " + " | ".join(headers) + " |"]
        out.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            cells = [row[0]] + [
                "-" if v is None else v if isinstance(v, str) else "%.2f" % v
                for v in row[1:]
            ]
            out.append("| " + " | ".join(str(c) for c in cells) + " |")
        return "\n".join(out)

    def to_text(
        self,
        metric: Metric = "ipc",
        mean: Optional[str] = "geo",
        base: Optional[str] = None,
    ) -> str:
        """Fixed-width table via :func:`repro.analysis.report.format_table`
        (speedups over ``base``, as signed percent, when given)."""
        headers, rows = self._table_rows(metric, mean, base)
        return format_table(headers, rows)

    def __repr__(self) -> str:
        return "ResultSet(%d cells: %d workloads x %d configs%s)" % (
            len(self),
            len(self.workloads),
            len(self.configs),
            ", %d errors" % len(self.errors) if self.errors else "",
        )
