"""repro.lint — invariant static analysis (``repro lint``).

An AST-based lint pass over the source files it is given (a rule is
``check_file(path, tree, source)``; nothing is imported and run).  A
rule stays only while it flags a defect no tier-1 test catches
(CONTRIBUTING.md's rule table names the mutation for each):

* **hot-path** — ``__slots__`` on engine-core classes, no
  allocation-heavy numpy calls inside compiled-plan closures, warp
  wake state written only through ``TimingWarp``'s wake/sleep helpers;
* **registry** — registries are only written through the
  :class:`~repro.core.policy.Registry` API.

Suppress a finding with an inline ``# repro-lint: disable=<rule-id>``
comment on (or immediately above) the offending line.

What moves a cache key and what needs a ``CACHE_VERSION`` bump is
pinned by ``tests/test_cache_keys.py``, not here.  This package imports
nothing on import: :mod:`repro.lint.runner` loads the rule modules.
"""
