"""Registry and closed-vocabulary discipline rules.

The policy API's extension points are write-once registries and a
closed observer-event vocabulary (:mod:`repro.core.policy.events`);
the sweep service speaks a closed message vocabulary the same way
(:mod:`repro.service.protocol`).  Bypassing either — poking
``._entries`` directly, or comparing against a bare name string —
reintroduces exactly the silent-shadowing and typo classes the APIs
were built to kill.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Tuple

from repro.core.policy.events import VOCABULARY
from repro.lint.framework import Rule, Violation, call_name, dotted_name
from repro.service.faults import FAULT_KINDS, SITES
from repro.service.protocol import VOCABULARY as PROTOCOL_VOCABULARY

#: Registry singletons writes must go through the Registry API.
_REGISTRY_NAMES = frozenset({"SCHEDULERS", "DIVERGENCE", "POLICIES", "OBSERVERS"})

#: Call sites where an event/origin/level name argument is expected.
_VOCAB_CALLEES = frozenset({"issue", "IssueEvent", "MemEvent", "_record"})

#: Files that emit or dispatch on vocabulary names.
_VOCAB_FILES: Tuple[str, ...] = (
    "repro/core/sm.py",
    "repro/core/gpu.py",
    "repro/core/schedulers.py",
    "repro/core/policy/observers.py",
    "repro/analytics/*.py",
)

#: Call sites where a protocol message type / error code is expected.
_PROTOCOL_CALLEES = frozenset({"envelope", "ProtocolError", "_resolve_locked"})

#: Call sites where a fault kind or injection site is expected, and the
#: closed set of names they may be given.
_FAULT_CALLEES = frozenset({"fire", "crash", "FaultSpec"})
FAULT_VOCABULARY: FrozenSet[str] = frozenset(FAULT_KINDS) | frozenset(SITES)

#: Files that emit or dispatch on protocol vocabulary names (the
#: protocol module itself defines the constants and stays out).
_PROTOCOL_FILES: Tuple[str, ...] = (
    "repro/service/daemon.py",
    "repro/service/journal.py",
    "repro/service/remote.py",
)


class ClosedVocabularyRule(Rule):
    """Shared machinery: names from a closed set must be the constants.

    Subclasses set ``vocabulary`` (the closed set), ``callees`` (call
    sites whose arguments carry vocabulary names), ``module`` (where
    the constants live) and the usual rule metadata.  Flagged sites
    are comparisons against a bare vocabulary literal and vocabulary
    literals passed to the known callees — a bare string compares
    clean, typos and all.
    """

    vocabulary: FrozenSet[str] = frozenset()
    callees: FrozenSet[str] = frozenset()
    module = ""

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                for comparator in node.comparators:
                    yield from self._literal(path, comparator)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                short = name.split(".")[-1] if name else ""
                if short in self.callees:
                    for arg in node.args:
                        yield from self._literal(path, arg)
                    for kw in node.keywords:
                        yield from self._literal(path, kw.value)

    def _literal(self, path: str, node: ast.AST) -> Iterator[Violation]:
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in self.vocabulary
        ):
            yield self.violation(
                path,
                node,
                "bare vocabulary literal %r — use the constant from %s"
                % (node.value, self.module),
            )


class ObserverVocabularyRule(ClosedVocabularyRule):
    """Event/origin/level names come from the vocabulary module."""

    id = "observer-vocabulary"
    category = "registry"
    description = (
        "observer event kinds, issue origins and memory levels must be "
        "the constants from repro.core.policy.events — a bare string "
        "literal compares clean, typos and all"
    )
    hint = (
        "import the matching constant (ORIGIN_*, LEVEL_*, KIND_*) from "
        "repro.core.policy.events"
    )
    include = _VOCAB_FILES
    vocabulary = VOCABULARY
    callees = _VOCAB_CALLEES
    module = "repro.core.policy.events"


class ProtocolVocabularyRule(ClosedVocabularyRule):
    """Service message types / error codes come from the protocol module."""

    id = "protocol-vocabulary"
    category = "registry"
    description = (
        "sweep-service message types, error codes, cell sources and "
        "job states must be the MSG_*/ERR_*/SOURCE_*/STATUS_*/JOB_* "
        "constants from repro.service.protocol — a typo'd bare string "
        "is a silently dropped or misrouted message"
    )
    hint = (
        "import the matching constant (MSG_*, ERR_*, SOURCE_*, "
        "STATUS_*, JOB_*) from repro.service.protocol"
    )
    include = _PROTOCOL_FILES
    vocabulary = PROTOCOL_VOCABULARY
    callees = _PROTOCOL_CALLEES
    module = "repro.service.protocol"


class FaultVocabularyRule(ClosedVocabularyRule):
    """Fault kinds and injection sites come from the faults module."""

    id = "fault-vocabulary"
    category = "registry"
    description = (
        "fault-injection kinds and sites must be the FAULT_*/SITE_* "
        "constants from repro.service.faults — a typo'd bare string is "
        "a fault that silently never fires"
    )
    hint = (
        "import the matching constant (FAULT_*, SITE_*) from "
        "repro.service.faults"
    )
    include = ("repro/service/daemon.py", "repro/service/store.py")
    vocabulary = FAULT_VOCABULARY
    callees = _FAULT_CALLEES
    module = "repro.service.faults"


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


RULES = [
    ObserverVocabularyRule(),
    ProtocolVocabularyRule(),
    FaultVocabularyRule(),
    RegistryDisciplineRule(),
]
