"""Hot-path hygiene rules for the engine core.

The cycle-loop engine issues millions of instructions per run; the
rules here keep its per-cycle objects slotted (no per-instance
``__dict__``), its compiled-plan closures allocation-light, and every
warp wake going through one door.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence

from repro.lint.framework import Rule, Violation, call_name, dotted_name

#: Base classes whose subclasses are exempt from the slots requirement
#: (exceptions carry tracebacks, not per-cycle state; the typing/enum
#: metaclasses manage their own layout).
_EXEMPT_BASES = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "RuntimeError",
        "TypeError",
        "KeyError",
        "NamedTuple",
        "Enum",
        "IntEnum",
        "IntFlag",
        "Flag",
        "Protocol",
        "TypedDict",
        "ABC",
    }
)

#: numpy constructors that allocate a fresh array every call.
_NP_ALLOCATORS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "eye", "linspace", "tile"}
)


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None:
            names.append(name.split(".")[-1])
    return names


def _is_exempt(cls: ast.ClassDef) -> bool:
    for name in _base_names(cls):
        if name in _EXEMPT_BASES or name.endswith("Error") or name.endswith(
            "Exception"
        ):
            return True
    return False


def _declares_slots(cls: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets: Sequence[ast.AST] = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = (stmt.target,)
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    return False


def _dataclass_slots(cls: ast.ClassDef) -> Optional[bool]:
    """None for a plain class; for a dataclass, whether it is declared
    with ``slots=True``."""
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
            return isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and bool(kw.value.value)
                for kw in deco.keywords
            )
    return None


def _function_depths(tree: ast.AST) -> Dict[ast.AST, int]:
    """Map every node to the number of function defs enclosing it."""
    out: Dict[ast.AST, int] = {}

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            out[child] = depth
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            walk(child, depth + nested)

    walk(tree, 0)
    return out


class HotPathSlotsRule(Rule):
    """Engine-core classes must declare ``__slots__``."""

    id = "hot-path-slots"
    category = "hot-path"
    description = (
        "classes in the engine core (core/sm.py, core/warp.py, "
        "timing/*) are instantiated per warp/split/event; without "
        "__slots__ each instance carries a dict and attribute access "
        "takes the slow path"
    )
    hint = (
        "add __slots__ = (...) naming every instance attribute, or "
        "@dataclass(slots=True); subclasses of slotted bases need "
        "__slots__ = ()"
    )
    include = ("repro/core/sm.py", "repro/core/warp.py", "repro/timing/*.py")

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt(node):
                continue
            dc_slots = _dataclass_slots(node)
            if dc_slots is not None:
                if not dc_slots:
                    yield self.violation(
                        path,
                        node,
                        "dataclass %r without slots=True in a hot-path "
                        "file" % node.name,
                        hint="declare it @dataclass(slots=True)",
                    )
                continue
            if not _declares_slots(node):
                yield self.violation(
                    path,
                    node,
                    "class %r has no __slots__ in a hot-path file"
                    % node.name,
                )


class AllocInPlanRule(Rule):
    """No allocation-heavy numpy constructors inside plan closures."""

    id = "alloc-in-plan"
    category = "hot-path"
    description = (
        "np.zeros/ones/empty/... inside a compiled-plan closure "
        "allocates on every instruction issue; compile-time code (the "
        "enclosing specialiser) should allocate once and close over it"
    )
    hint = (
        "allocate the array in the compiling function and capture it "
        "in the closure (mark it read-only if shared)"
    )
    include = ("repro/functional/compiled.py",)

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        depths = _function_depths(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in _NP_ALLOCATORS
                and depths.get(node, 0) >= 2
            ):
                yield self.violation(
                    path,
                    node,
                    "`%s` allocates inside a plan closure (runs per "
                    "instruction issue)" % name,
                )


#: A ``TimingWarp``'s wake state: the ready set's and the fetch
#: engine's per-warp verdicts, plus the per-slot stall memos they
#: replaced (a write to one of those is a hand-kept memo coming back).
_WAKE_STATE = frozenset(
    {
        "issue_woken",
        "fetch_woken",
        "timer",
        "cand0",
        "cand1",
        "suspended",
        "stall0",
        "stall1",
        "fetch_stall",
    }
)


#: Who besides ``TimingWarp`` may write which wake state: a scheduler's
#: readiness pass records the verdicts it derives (and lowers the woken
#: flag of the warp it probed); its ``tick`` drops the candidate whose
#: instruction it issues or freezes, a verdict known without a probe;
#: the fetch engine's ``tick`` lowers the flag of a warp it gave one.
_SCHEDULER_WRITERS = {
    "_refresh": frozenset({"cand0", "cand1", "suspended", "issue_woken"}),
    "tick": frozenset({"cand0"}),
}
_FETCH_WRITERS = {"tick": frozenset({"fetch_woken"})}


class WakeSiteDisciplineRule(Rule):
    """Warp wake state is written only by ``TimingWarp``'s helpers and
    the schedulers' and the fetch engine's recording sites."""

    id = "wake-site-discipline"
    category = "hot-path"
    description = (
        "the ready set re-derives a warp's readiness only when a wake "
        "site touched it, so every wake must go through one door: "
        "TimingWarp's wake/sleep helpers; a wake-state field assigned "
        "anywhere else is a wake site the helpers do not know about"
    )
    hint = (
        "call warp.wake() / wake_issue() / wake_at(cycle) instead of "
        "assigning the field; besides TimingWarp only a scheduler's "
        "_refresh (verdicts) and tick (the candidate it issues or "
        "freezes) and FetchEngine.tick (its fetch verdict) may write it"
    )
    include = ("repro/core/*.py", "repro/timing/*.py")

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        def walk(node: ast.AST, allowed: frozenset, owner: str) -> Iterator[Violation]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    fields = _WAKE_STATE if child.name == "TimingWarp" else frozenset()
                    yield from walk(child, fields, child.name)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fields = allowed
                    if "Scheduler" in owner:
                        fields |= _SCHEDULER_WRITERS.get(child.name, frozenset())
                    elif owner == "FetchEngine":
                        fields |= _FETCH_WRITERS.get(child.name, frozenset())
                    yield from walk(child, fields, owner)
                    continue
                targets: Sequence[ast.AST] = ()
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = (child.target,)
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _WAKE_STATE
                        and target.attr not in allowed
                    ):
                        yield self.violation(
                            path,
                            target,
                            "wake state `.%s` assigned outside "
                            "TimingWarp's wake/sleep helpers and the "
                            "schedulers' _refresh / tick" % target.attr,
                        )
                yield from walk(child, allowed, owner)

        yield from walk(tree, frozenset(), "")


RULES = [
    HotPathSlotsRule(),
    AllocInPlanRule(),
    WakeSiteDisciplineRule(),
]
