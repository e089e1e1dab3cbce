"""Core of the lint pass: rules, violations, suppression.

A :class:`Rule` inspects one parsed file (:meth:`Rule.check_file`) and
yields :class:`Violation` records: what it reports is a function of the
source it was handed and nothing else.  Each rule module lists its
instances in a module-level ``RULES``; :mod:`repro.lint.runner`
concatenates them.

Suppression is inline and always per rule: ``# repro-lint:
disable=<id>[,<id>...]`` (or ``disable=all``) on the flagged line or
the line directly above it, next to the code it excuses.

Each rule carries a one-line fix-it ``hint`` shown with every finding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``# repro-lint: disable=hot-path-slots,alloc-in-plan`` (whitespace-tolerant).
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


class LintError(ValueError):
    """The lint pass itself failed (bad path, unknown rule id...)."""


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, what, and how to fix it."""

    rule: str
    path: str  #: path as given to the runner (repo-relative in CI)
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        text = "%s:%d:%d: [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.rule,
            self.message,
        )
        if self.hint:
            text += "\n    hint: %s" % self.hint
        return text

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id` (kebab-case slug, the suppression key),
    :attr:`category`, :attr:`description` and :attr:`hint`, and
    override :meth:`check_file`.  File scope is declared with
    :attr:`include`/:attr:`exclude` glob patterns matched against
    ``/``-normalised paths.
    """

    id: str = ""
    category: str = ""
    description: str = ""
    #: Default fix-it hint attached to findings (rules may override
    #: per-violation via :meth:`violation`).
    hint: str = ""
    #: Glob patterns selecting the files this rule sees (None = all).
    include: Optional[Tuple[str, ...]] = None
    #: Glob patterns removing files from the rule's scope.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        if self.include is not None and not any(
            _match(norm, pat) for pat in self.include
        ):
            return False
        return not any(_match(norm, pat) for pat in self.exclude)

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        """Yield findings for one parsed file."""
        return iter(())

    def violation(
        self,
        path: str,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def _match(path: str, pattern: str) -> bool:
    """Glob match on the full path *or* any suffix of it.

    ``src/repro/core/sm.py`` matches both ``src/repro/core/*.py`` and
    ``repro/core/*.py`` so rules behave identically whether the runner
    was handed ``src`` or an installed package directory.
    """
    if fnmatch(path, pattern):
        return True
    parts = path.split("/")
    return any(
        fnmatch("/".join(parts[i:]), pattern) for i in range(1, len(parts))
    )


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------


def suppressed_lines(source: str) -> Dict[int, frozenset]:
    """Map line number -> rule ids disabled on that line.

    A ``# repro-lint: disable=...`` comment covers its own line and the
    line below it, so a suppression can sit above a long statement.
    ``disable=all`` covers every rule.
    """
    out: Dict[int, frozenset] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        ids = frozenset(
            token.strip() for token in m.group(1).split(",") if token.strip()
        )
        for covered in (i, i + 1):
            out[covered] = out.get(covered, frozenset()) | ids
    return out


def is_suppressed(
    violation: Violation, line_suppressions: Dict[int, frozenset]
) -> bool:
    ids = line_suppressions.get(violation.line)
    return bool(ids) and ("all" in ids or violation.rule in ids)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Every rule the runner knows (described in the JSON report).
    rules: Sequence[Rule] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "counts": self.counts_by_rule(),
            "rules": {
                rule.id: {
                    "category": rule.category,
                    "description": rule.description,
                }
                for rule in self.rules
            },
            "violations": [v.to_dict() for v in self.violations],
        }

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        counts = self.counts_by_rule()
        if counts:
            lines.append("")
            for rule_id in sorted(counts):
                lines.append("%-24s %d" % (rule_id, counts[rule_id]))
        lines.append(
            "%d file%s checked: %d violation%s (%d suppressed)"
            % (
                self.files_checked,
                "" if self.files_checked == 1 else "s",
                len(self.violations),
                "" if len(self.violations) == 1 else "s",
                self.suppressed,
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared AST utilities used by several rule modules
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)
