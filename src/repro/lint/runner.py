"""File collection, rule execution and the ``repro lint`` entry point.

Exit codes: 0 — clean, 1 — violations found, 2 — the lint pass itself
failed (unreadable path, broken rule, ...).  Files that do not parse
are reported as ``syntax-error`` findings rather than aborting the run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.lint.framework import (
    LintError,
    LintReport,
    RuleContext,
    Violation,
    all_rules,
    is_suppressed,
    suppressed_lines,
)

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
    paths: Sequence[str],
    update_fingerprint: bool = False,
    rule_ids: Optional[FrozenSet[str]] = None,
) -> LintReport:
    """Run every registered rule over ``paths`` and build a report.

    ``rule_ids`` restricts the pass to a subset (``--rule``); project
    rules run once regardless of how many files matched.
    """
    files = collect_files(paths)
    rules = [
        r for r in all_rules() if rule_ids is None or r.id in rule_ids
    ]
    report = LintReport(files_checked=len(files))
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
    ctx = RuleContext(
        paths=[p.replace("\\", "/") for p in files],
        update_fingerprint=update_fingerprint,
    )
    for rule in rules:
        # Project findings have no source line to carry a suppression.
        report.violations.extend(rule.check_project(ctx))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


def default_paths() -> List[str]:
    """Lint the package this module was imported from."""
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def list_rules() -> str:
    lines = []
    for rule in sorted(all_rules(), key=lambda r: (r.category, r.id)):
        lines.append("%-24s [%s]" % (rule.id, rule.category))
        lines.append("    %s" % rule.description)
        if rule.hint:
            lines.append("    fix: %s" % rule.hint)
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between the standalone entry point and ``repro lint``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help="regenerate the committed config-schema fingerprint "
        "(commit the result together with a CACHE_VERSION bump)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(list_rules())
        return 0
    paths = args.paths or default_paths()
    rule_ids = frozenset(args.rule) if args.rule else None
    if rule_ids is not None:
        known = {r.id for r in all_rules()}
        unknown = sorted(rule_ids - known)
        if unknown:
            raise LintError(
                "unknown rule id(s) %s; see --list-rules"
                % ", ".join(repr(u) for u in unknown)
            )
    report = run_lint(
        paths,
        update_fingerprint=args.update_fingerprint,
        rule_ids=rule_ids,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.format())
        if args.update_fingerprint:
            print("config fingerprint updated")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & invariant static analysis for the "
        "repro simulator",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_from_args(args)
    except LintError as exc:
        print("lint error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (`repro-lint --list-rules | head`); not
        # an error, but Python would print a traceback at shutdown
        # unless the fd is parked on devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
