"""Determinism rules: the byte-identical golden matrix depends on these.

Everything here guards one property: two runs of the same (workload,
size, config) cell produce identical bits, on any machine, any number
of processes, any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.config import CACHE_KEY_FILES, SIMULATION_FILES
from repro.lint.framework import Rule, Violation, call_name

#: Any file under the package itself (src layout or installed).
REPRO_ALL: Tuple[str, ...] = (
    "repro/*.py",
    "repro/*/*.py",
    "repro/*/*/*.py",
)

#: numpy legacy global-RandomState entry points (process-wide hidden
#: state; draws depend on import order and thread timing).
_NP_GLOBAL_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "uniform",
        "normal",
        "bytes",
        "get_state",
        "set_state",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)


class UnseededRandomRule(Rule):
    """No hidden-global randomness in simulation code."""

    id = "unseeded-random"
    category = "determinism"
    description = (
        "simulation code must not use the stdlib `random` module or "
        "numpy's global RandomState; draws must come from an explicitly "
        "seeded np.random.Generator"
    )
    hint = (
        "use repro.workloads.common.rng(name, size) or "
        "np.random.default_rng(stable_seed)"
    )
    include = SIMULATION_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.violation(
                            path,
                            node,
                            "stdlib `random` imported — its module-level "
                            "state is shared and unseeded",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        path,
                        node,
                        "stdlib `random` imported — its module-level "
                        "state is shared and unseeded",
                    )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                parts = name.split(".")
                if (
                    len(parts) >= 2
                    and parts[-2] == "random"
                    and parts[-1] in _NP_GLOBAL_RANDOM
                    and parts[0] in ("np", "numpy")
                ):
                    yield self.violation(
                        path,
                        node,
                        "numpy global RandomState call `%s` — process-wide "
                        "hidden state breaks reproducibility" % name,
                    )
                elif parts[-1] == "default_rng" and not (
                    node.args or node.keywords
                ):
                    yield self.violation(
                        path,
                        node,
                        "`default_rng()` without a seed draws OS entropy",
                        hint="pass a stable seed: default_rng(seed)",
                    )


class WallClockRule(Rule):
    """No wall-clock reads inside the simulation core."""

    id = "wall-clock"
    category = "determinism"
    description = (
        "simulation code must not read wall-clock time; simulated time "
        "is the only clock"
    )
    hint = (
        "thread the simulation cycle through instead; timing harnesses "
        "belong in benchmarks/"
    )
    include = SIMULATION_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _WALL_CLOCK:
                yield self.violation(
                    path, node, "wall-clock read `%s()` in simulation code" % name
                )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


class SetIterationRule(Rule):
    """No iteration over sets: their order is address/hash dependent."""

    id = "set-iteration"
    category = "determinism"
    description = (
        "iterating a set visits elements in hash/address order, which "
        "varies across processes (PYTHONHASHSEED) and runs"
    )
    hint = "wrap the iterable in sorted(...) or keep an ordered list/dict"
    include = REPRO_ALL

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for scope in ast.walk(tree):
            if not isinstance(
                scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            yield from self._check_scope(path, scope)

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, path: str, scope: ast.AST) -> Iterator[Violation]:
        # Names bound to set expressions in this scope — conservative:
        # a name rebound from anything non-set drops out.
        set_names: Set[str] = set()
        unknown: Set[str] = set()
        for node in self._scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value):
                        set_names.add(target.id)
                    else:
                        unknown.add(target.id)
        set_names -= unknown

        def flagged_iter(node: ast.AST) -> Optional[ast.AST]:
            if _is_set_expr(node):
                return node
            if isinstance(node, ast.Name) and node.id in set_names:
                return node
            return None

        for node in self._scope_nodes(scope):
            target: Optional[ast.AST] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                target = flagged_iter(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    hit = flagged_iter(gen.iter)
                    if hit is not None:
                        target = hit
                        break
            if target is not None:
                yield self.violation(
                    path,
                    node,
                    "iteration over a set — element order is "
                    "nondeterministic across processes",
                )


class IdKeyedRule(Rule):
    """No ``id()`` values in state-affecting code."""

    id = "id-keyed-dict"
    category = "determinism"
    description = (
        "id() returns an object address: keys, orderings or branches "
        "derived from it differ between runs"
    )
    hint = (
        "key on stable identity (name, index, interned value); if the "
        "use is provably run-local, suppress with a justifying comment"
    )
    include = SIMULATION_FILES + ("repro/api/*.py",)

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                yield self.violation(
                    path,
                    node,
                    "id() call — object addresses vary run to run",
                )


class FloatDictKeyRule(Rule):
    """No float dict keys in cache-key derivation code."""

    id = "float-dict-key"
    category = "determinism"
    description = (
        "float dict keys in cache-key code invite -0.0/0.0 and NaN "
        "aliasing and repr drift across platforms"
    )
    hint = "key on the formatted/quantised value (string or int) instead"
    include = CACHE_KEY_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, float
                    ):
                        yield self.violation(
                            path, key, "float literal used as a dict key"
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, float)
                    ):
                        yield self.violation(
                            path,
                            target,
                            "float literal used as a dict subscript key",
                        )


RULES = [
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    IdKeyedRule(),
    FloatDictKeyRule(),
]
