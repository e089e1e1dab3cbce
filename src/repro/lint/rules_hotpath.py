"""Hot-path hygiene rules for the engine core.

The cycle-loop engine issues millions of instructions per run; the
rules here keep its per-cycle objects slotted (no per-instance
``__dict__``), its compiled-plan closures allocation-light, and every
warp wake going through one door.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence

from repro.lint.config import HOT_PATH_FILES
from repro.lint.framework import (
    Rule,
    Violation,
    call_name,
    class_slots,
    dotted_name,
    enclosing_functions,
    is_dataclass_decorated,
)

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
    include = HOT_PATH_FILES

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt(node):
                continue
            is_dc, dc_slots = is_dataclass_decorated(node)
            if is_dc:
                if not dc_slots:
                    yield self.violation(
                        path,
                        node,
                        "dataclass %r without slots=True in a hot-path "
                        "file" % node.name,
                        hint="declare it @dataclass(slots=True)",
                    )
                continue
            if class_slots(node) is None:
                yield self.violation(
                    path,
                    node,
                    "class %r has no __slots__ in a hot-path file"
                    % node.name,
                )


class ErrstateInPlanRule(Rule):
    """No ``np.errstate`` inside compiled-plan closures."""

    id = "errstate-in-plan"
    category = "hot-path"
    description = (
        "np.errstate entered inside a compiled plan costs more than "
        "the warp-sized compute it guards; the run loop enters it "
        "once around the whole simulation"
    )
    hint = "hoist the errstate context to the run loop in core/gpu.py"
    include = ("repro/functional/compiled.py",)

    def check_file(
        self, path: str, tree: ast.AST, source: str
    ) -> Iterator[Violation]:
        enclosing = enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in ("np.errstate", "numpy.errstate") and len(
                enclosing.get(node, ())
            ) >= 2:
                yield self.violation(
                    path, node, "np.errstate entered inside a plan closure"
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
        enclosing = enclosing_functions(tree)
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
                and len(enclosing.get(node, ())) >= 2
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
    ErrstateInPlanRule(),
    AllocInPlanRule(),
    WakeSiteDisciplineRule(),
]
