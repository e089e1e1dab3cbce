"""repro.lint — determinism & invariant static analysis (``repro lint``).

An AST-based, registry-driven lint pass over the reproduction's own
source tree.  The golden byte-identical matrix, content-addressed cache
keys and the perf gates all rest on invariants that are invisible to
ordinary tests until they fail; the rules here promote them to
diff-time errors:

* **determinism** — no unseeded randomness, no wall-clock reads in
  simulation code, no iteration over sets, no ``id()``-keyed dicts,
  no float dict keys in cache-key code;
* **cache-key** — every config dataclass field flows into key
  derivation, no ``repr``-based serialisation fallbacks, and a
  committed structural fingerprint of the config schema that must be
  regenerated (``repro lint --update-fingerprint``) together with a
  ``CACHE_VERSION`` bump;
* **hot-path** — ``__slots__`` on engine-core classes, no attribute
  creation outside ``__init__`` on slotted classes, no ``np.errstate``
  or allocation-heavy numpy calls inside compiled-plan closures, warp
  wake state written only through ``TimingWarp``'s wake/sleep helpers;
* **registry** — observer event names come from the closed vocabulary
  (:mod:`repro.core.policy.events`), service message types and fault
  kinds come from theirs, and registries are only written through the
  :class:`~repro.core.policy.Registry` API;
* **robustness** — service retry loops are bounded (no ``while True``
  with an exception-handler ``continue``) and no handler is a bare
  ``except:`` that would swallow an injected
  :class:`~repro.service.faults.DaemonCrash`.

Suppress a finding with an inline ``# repro-lint: disable=<rule-id>``
comment on (or immediately above) the offending line.
"""

from __future__ import annotations

from repro.lint.framework import (
    LintError,
    LintReport,
    RULES,
    Rule,
    RuleContext,
    Violation,
    all_rules,
)
from repro.lint.runner import collect_files, main, run_lint

# Importing the rule modules registers every built-in rule.
from repro.lint import rules_determinism  # noqa: F401  (registration)
from repro.lint import rules_cachekey  # noqa: F401  (registration)
from repro.lint import rules_hotpath  # noqa: F401  (registration)
from repro.lint import rules_registry  # noqa: F401  (registration)
from repro.lint import rules_service  # noqa: F401  (registration)

__all__ = [
    "LintError",
    "LintReport",
    "RULES",
    "Rule",
    "RuleContext",
    "Violation",
    "all_rules",
    "collect_files",
    "main",
    "run_lint",
]
