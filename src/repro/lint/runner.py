"""File collection and rule execution behind ``repro lint``.

Exit codes of the command: 0 — clean, 1 — violations found, 2 — the
lint pass itself failed (unreadable path, unknown rule id, ...).  Files
that do not parse are reported as ``syntax-error`` findings rather than
aborting the run.
"""

from __future__ import annotations

import ast
import os
from typing import FrozenSet, List, Optional, Sequence

from repro.lint import rules_hotpath, rules_registry
from repro.lint.framework import (
    LintError,
    LintReport,
    Rule,
    Violation,
    is_suppressed,
    suppressed_lines,
)

#: Every rule ``repro lint`` runs.
RULES: List[Rule] = rules_hotpath.RULES + rules_registry.RULES

_SKIP_DIRS = frozenset({"__pycache__", "build", "dist", ".git", ".pytest_cache"})


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
            continue
        if not os.path.isdir(path):
            raise LintError("no such file or directory: %r" % path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(out))


def run_lint(
    paths: Sequence[str], rule_ids: Optional[FrozenSet[str]] = None
) -> LintReport:
    """Run every rule over the ``.py`` files under ``paths``.

    ``rule_ids`` restricts the pass to a subset (``--rule``).  The
    report is a function of those files' source and nothing else.
    """
    if rule_ids is not None:
        unknown = sorted(rule_ids - {r.id for r in RULES})
        if unknown:
            raise LintError(
                "unknown rule id(s) %s; see --list-rules"
                % ", ".join(repr(u) for u in unknown)
            )
    files = collect_files(paths)
    rules = [r for r in RULES if rule_ids is None or r.id in rule_ids]
    report = LintReport(files_checked=len(files), rules=RULES)
    for path in files:
        norm = path.replace("\\", "/")
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            raise LintError("cannot read %s: %s" % (path, exc))
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            report.violations.append(
                Violation(
                    rule="syntax-error",
                    path=norm,
                    line=exc.lineno or 0,
                    col=(exc.offset or 1),
                    message="file does not parse: %s" % exc.msg,
                )
            )
            continue
        suppressions = suppressed_lines(source)
        for rule in rules:
            if not rule.applies_to(norm):
                continue
            for violation in rule.check_file(norm, tree, source):
                if is_suppressed(violation, suppressions):
                    report.suppressed += 1
                else:
                    report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


def default_paths() -> List[str]:
    """Lint the package this module was imported from."""
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def list_rules() -> str:
    lines = []
    for rule in sorted(RULES, key=lambda r: (r.category, r.id)):
        lines.append("%-24s [%s]" % (rule.id, rule.category))
        lines.append("    %s" % rule.description)
        if rule.hint:
            lines.append("    fix: %s" % rule.hint)
    return "\n".join(lines)
