"""Service-robustness rules.

The sweep service is the one part of the tree that talks to sockets,
other processes and a shared on-disk store — the places where "retry
until it works" quietly becomes "hang forever" and a broad ``except``
quietly swallows an injected :class:`~repro.service.faults.DaemonCrash`
or a ``KeyboardInterrupt``.  The fault-injection harness only proves
anything if every retry loop is bounded, so the discipline is promoted
to a lint rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.framework import Rule, Violation

#: Files under service discipline (the whole service package).
_SERVICE_FILES = ("repro/service/*.py",)


def _is_while_true(node: ast.While) -> bool:
    return isinstance(node.test, ast.Constant) and node.test.value is True


def _own_statements(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements belonging to a loop body, not to nested loops.

    A ``continue`` inside a nested ``for``/``while`` retries *that*
    loop, and a nested ``def``/``lambda`` is a different control-flow
    scope entirely — neither says anything about the outer loop.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ServiceRetryBoundedRule(Rule):
    """Every retry loop is bounded and no handler is a bare ``except:``."""

    id = "service-retry-bounded"
    category = "robustness"
    description = (
        "service code must not retry forever or catch everything: a "
        "`while True` loop that `continue`s out of an exception "
        "handler never gives up against a dead peer, and a bare "
        "`except:` swallows SystemExit, KeyboardInterrupt and injected "
        "DaemonCrash faults"
    )
    hint = (
        "bound retries with `for attempt in range(attempts)` (see "
        "RemoteClient._request) and catch concrete exception types; a "
        "deliberately unbounded loop (e.g. a heartbeat) takes an "
        "inline `# repro-lint: disable=service-retry-bounded`"
    )
    include = _SERVICE_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    path,
                    node,
                    "bare `except:` in service code — also catches "
                    "SystemExit/KeyboardInterrupt and injected "
                    "DaemonCrash faults",
                )
            elif isinstance(node, ast.While) and _is_while_true(node):
                yield from self._unbounded_retry(path, node)

    def _unbounded_retry(
        self, path: str, loop: ast.While
    ) -> Iterator[Violation]:
        for stmt in _own_statements(loop.body):
            if not isinstance(stmt, ast.Try):
                continue
            for handler in stmt.handlers:
                if any(
                    isinstance(inner, ast.Continue)
                    for inner in _own_statements(handler.body)
                ):
                    yield self.violation(
                        path,
                        loop,
                        "`while True` retry loop: the exception "
                        "handler `continue`s with no attempt bound",
                    )
                    return


RULES = [ServiceRetryBoundedRule()]
