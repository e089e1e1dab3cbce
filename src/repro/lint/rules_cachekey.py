"""Cache-key integrity rules.

The content-addressed result cache is only sound if (a) *every* config
field flows into the key, (b) serialisation never falls back to
``repr`` (which can embed memory addresses), and (c) structural schema
changes are acknowledged with a ``CACHE_VERSION`` bump.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from typing import Any, Iterator

from repro.lint.config import CACHE_KEY_FILES
from repro.lint.framework import (
    Rule,
    RuleContext,
    Violation,
    call_name,
    register_rule,
)


class ReprKeyRule(Rule):
    """No ``repr``/``str`` serialisation fallbacks in key derivation."""

    id = "repr-key"
    category = "cache-key"
    description = (
        "json.dumps(default=repr/str) in cache-key code stringifies "
        "unknown values; repr can embed object addresses, so two runs "
        "of identical configs may derive different keys"
    )
    hint = (
        "drop the default= fallback and let json.dumps raise — every "
        "config field must be natively JSON-serialisable"
    )
    include = CACHE_KEY_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in ("json.dumps", "dumps"):
                continue
            for kw in node.keywords:
                if kw.arg != "default":
                    continue
                fallback = kw.value
                if isinstance(fallback, ast.Name) and fallback.id in (
                    "repr",
                    "str",
                ):
                    yield self.violation(
                        path,
                        fallback,
                        "json.dumps(default=%s) in cache-key derivation"
                        % fallback.id,
                    )


class CacheKeyFieldsRule(Rule):
    """Every config field must perturb the cache key (runtime check)."""

    id = "cache-key-fields"
    category = "cache-key"
    description = (
        "mutating any single SMConfig/GPUConfig field must change "
        "config_key() and config_hash(); a field that does not flow "
        "into the key lets distinct configs collide in the cache"
    )
    hint = (
        "derive keys from repro.api.cache.config_fields(config), the "
        "one canonical field walk, so new fields are picked up "
        "automatically"
    )

    def check_project(self, ctx: RuleContext) -> Iterator[Violation]:
        from repro.api.cache import config_fields, config_hash, config_key
        from repro.timing.config import GPUConfig, SMConfig

        for cls in (SMConfig, GPUConfig):
            base = cls()
            base_key = config_key(base)
            base_hash = config_hash(base)
            for f in dataclasses.fields(cls):
                value = getattr(base, f.name)
                mutated = _mutate(value)
                if mutated is _SKIP:
                    continue
                try:
                    variant = dataclasses.replace(base, **{f.name: mutated})
                except Exception:
                    # Validated/enumerated field: the probe value is
                    # rejected at construction.  Fall back to checking
                    # the field is structurally present in the key.
                    blob = json.dumps(config_fields(base), sort_keys=True)
                    if '"%s"' % f.name not in blob:
                        yield Violation(
                            rule=self.id,
                            path="repro/api/cache.py",
                            line=0,
                            col=0,
                            message=(
                                "%s.%s is absent from the cache-key "
                                "payload" % (cls.__name__, f.name)
                            ),
                            hint=self.hint,
                        )
                    continue
                if (
                    config_key(variant) == base_key
                    or config_hash(variant) == base_hash
                ):
                    yield Violation(
                        rule=self.id,
                        path="repro/api/cache.py",
                        line=0,
                        col=0,
                        message=(
                            "%s.%s does not flow into the cache key: "
                            "mutating it leaves config_key/config_hash "
                            "unchanged" % (cls.__name__, f.name)
                        ),
                        hint=self.hint,
                    )


_SKIP = object()


def _mutate(value: Any) -> Any:
    """A value different from ``value`` with the same rough shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "_lintprobe"
    if value is None:
        return "lintprobe"
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            inner = _mutate(getattr(value, f.name))
            if inner is _SKIP:
                continue
            try:
                return dataclasses.replace(value, **{f.name: inner})
            except Exception:
                continue  # validated field rejected the probe; try next
        return _SKIP
    if isinstance(value, (list, tuple)):
        return type(value)(list(value) + ["lintprobe"])
    return _SKIP


class ConfigFingerprintRule(Rule):
    """The committed config-schema fingerprint must match the code."""

    id = "config-fingerprint"
    category = "cache-key"
    description = (
        "the structural fingerprint of SMConfig/GPUConfig/PolicySpec "
        "is committed; schema drift without a CACHE_VERSION bump would "
        "reload stale disk cache entries under new semantics"
    )
    hint = (
        "bump CACHE_VERSION in repro/api/cache.py, then run "
        "`repro lint --update-fingerprint` and commit the result"
    )

    def check_project(self, ctx: RuleContext) -> Iterator[Violation]:
        from repro.lint import fingerprint

        if ctx.update_fingerprint:
            fingerprint.write_committed()
            return
        committed = fingerprint.load_committed()
        path = "repro/lint/data/config_fingerprint.json"
        if committed is None:
            yield Violation(
                rule=self.id,
                path=path,
                line=0,
                col=0,
                message=(
                    "no committed config fingerprint; run "
                    "`repro lint --update-fingerprint` and commit it"
                ),
                hint=self.hint,
            )
            return
        live = fingerprint.schema()
        live_digest = fingerprint.digest(live)
        if committed.get("digest") == live_digest and committed.get(
            "cache_version"
        ) == live["cache_version"]:
            return
        if committed.get("digest") != live_digest and committed.get(
            "cache_version"
        ) == live["cache_version"]:
            message = (
                "config schema changed but CACHE_VERSION is still %r — "
                "stale disk cache entries would be reloaded under the "
                "new field semantics" % live["cache_version"]
            )
        else:
            message = (
                "committed fingerprint is stale (taken under "
                "CACHE_VERSION=%r, code has %r); regenerate it"
                % (committed.get("cache_version"), live["cache_version"])
            )
        yield Violation(
            rule=self.id, path=path, line=0, col=0, message=message, hint=self.hint
        )


register_rule(ReprKeyRule())
register_rule(CacheKeyFieldsRule())
register_rule(ConfigFingerprintRule())
