"""repro.lint — determinism & invariant static analysis (``repro lint``).

An AST-based lint pass over the source files it is given (a rule is
``check_file(path, tree, source)``; nothing is imported and run).  The
golden byte-identical matrix and the perf gates rest on invariants
that are invisible to ordinary tests until a flake shows them; the
rules here promote them to diff-time errors:

* **determinism** — no unseeded randomness, no wall-clock reads in
  simulation code, no iteration over sets, no ``id()``-keyed dicts,
  no float dict keys in cache-key code;
* **hot-path** — ``__slots__`` on engine-core classes, no
  ``np.errstate`` or allocation-heavy numpy calls inside compiled-plan
  closures, warp wake state written only through ``TimingWarp``'s
  wake/sleep helpers;
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

What moves a cache key and what needs a ``CACHE_VERSION`` bump is
pinned by ``tests/test_cache_keys.py``, not here.  This package imports
nothing on import: :mod:`repro.lint.runner` loads the rule modules.
"""
