#!/usr/bin/env python3
"""Baseline-gated mypy runner for the typed core.

Usage::

    python tools/check_mypy.py            # compare against the baseline
    python tools/check_mypy.py --update   # rewrite the baseline

Runs ``mypy`` with the repository ``mypy.ini`` and diffs the normalised
error lines against ``tools/mypy_baseline.txt``:

* errors **not** in the baseline fail the run (exit 1) — new typing
  regressions are build-breaking;
* baseline entries that no longer fire are listed as fixable — shrink
  the baseline in the same change that fixed them.

When mypy is not installed (the development container does not bake it
in) the check exits 0 with a notice: the CI mypy-baseline job
installs mypy and is the enforcing environment.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from typing import List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "tools", "mypy_baseline.txt")

#: Keep ``path:line`` but drop column numbers so small edits above an
#: unrelated known error do not churn the baseline... columns only;
#: line numbers do move, which is intentional: a moved error must be
#: re-baselined consciously.
_ERROR_RE = re.compile(r"^(?P<loc>[^:]+:\d+)(?::\d+)?: (?P<rest>(error|note): .*)$")


def _have_mypy() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


def run_mypy() -> List[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", os.path.join(ROOT, "mypy.ini")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = []
    for raw in proc.stdout.splitlines():
        m = _ERROR_RE.match(raw.strip())
        if m and m.group("rest").startswith("error"):
            loc = m.group("loc").replace("\\", "/")
            lines.append("%s: %s" % (loc, m.group("rest")))
    return sorted(set(lines))


def read_baseline() -> Set[str]:
    try:
        with open(BASELINE) as f:
            return {
                line.rstrip("\n")
                for line in f
                if line.strip() and not line.startswith("#")
            }
    except OSError:
        return set()


def write_baseline(errors: List[str]) -> None:
    with open(BASELINE, "w") as f:
        f.write(
            "# mypy --strict baseline for the typed core "
            "(repro.core/timing/api/isa).\n"
            "# Regenerate with: python tools/check_mypy.py --update\n"
            "# Entries here are known debt; new errors fail the build.\n"
        )
        for line in errors:
            f.write(line + "\n")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline from this run"
    )
    args = parser.parse_args(argv)

    if not _have_mypy():
        print(
            "mypy is not installed in this environment; skipping the "
            "typing gate (CI installs and enforces it)."
        )
        return 0

    errors = run_mypy()
    if args.update:
        write_baseline(errors)
        print("baseline updated: %d entries" % len(errors))
        return 0

    baseline = read_baseline()
    new = [e for e in errors if e not in baseline]
    fixed = sorted(baseline - set(errors))
    if fixed:
        print("fixed relative to baseline (%d) — shrink the baseline:" % len(fixed))
        for line in fixed:
            print("  " + line)
    if new:
        print("NEW typing errors (%d):" % len(new))
        for line in new:
            print("  " + line)
        return 1
    print(
        "typing gate clean: %d error(s), all baselined (%d fixable)"
        % (len(errors), len(fixed))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
