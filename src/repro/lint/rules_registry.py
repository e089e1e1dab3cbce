"""Registry discipline: registries are written only through their API.

The policy API's extension points are write-once registries
(:class:`~repro.core.policy.Registry`); poking ``._entries`` directly,
or a subscript write on a registry singleton, skips the duplicate-name
check and lets two plugins silently shadow each other.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Rule, Violation, dotted_name

#: Registry singletons writes must go through the Registry API.
_REGISTRY_NAMES = frozenset({"SCHEDULERS", "DIVERGENCE", "POLICIES", "OBSERVERS"})


class RegistryDisciplineRule(Rule):
    """Registries are only written through the Registry API."""

    id = "registry-discipline"
    category = "registry"
    description = (
        "registry internals (._entries) and subscript writes on "
        "registry singletons bypass duplicate-name detection; two "
        "plugins could silently shadow each other"
    )
    hint = (
        "use REGISTRY.register(name, obj) / .unregister(name); tests "
        "wanting replacement pass replace=True"
    )
    exclude = ("repro/core/policy/registry.py",)

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_entries":
                yield self.violation(
                    path,
                    node,
                    "direct access to Registry._entries outside the "
                    "registry module",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    base = dotted_name(target.value)
                    short = base.split(".")[-1] if base else ""
                    if short in _REGISTRY_NAMES:
                        yield self.violation(
                            path,
                            target,
                            "subscript write on registry %r bypasses "
                            "Registry.register()" % short,
                        )


RULES = [RegistryDisciplineRule()]
