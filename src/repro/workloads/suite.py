"""Workload registry and classification (paper Figure 7)."""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.functional.memory import ImageWords, MemoryImage
from repro.isa.builder import Kernel
from repro.workloads.common import SIZE_ALIASES, SIZES, Instance, normalize_size

#: Regular applications (Figure 7a), paper order.
REGULAR = (
    "3dfd",
    "backprop",
    "binomialoptions",
    "blackscholes",
    "dwthaar1d",
    "fastwalshtransform",
    "hotspot",
    "matrixmul",
    "montecarlo",
    "transpose",
)

#: Irregular applications (Figure 7b), paper order.
IRREGULAR = (
    "bfs",
    "convolutionseparable",
    "eigenvalues",
    "histogram",
    "lud",
    "mandelbrot",
    "needleman_wunsch",
    "sortingnetworks",
    "srad",
    "tmd1",
    "tmd2",
)

#: Excluded from suite means, as in the paper (they characterise
#: thread-frontier reconvergence rather than SBI/SWI).
MEAN_EXCLUDED = ("tmd1", "tmd2")

ALL_WORKLOADS = REGULAR + IRREGULAR

_MODULE_OF = {name: name for name in ALL_WORKLOADS}
_MODULE_OF["3dfd"] = "threedfd"  # module names cannot start with a digit
_MODULE_OF["tmd1"] = "tmd"
_MODULE_OF["tmd2"] = "tmd"


@dataclass(frozen=True)
class WorkloadInfo:
    """One registry entry, as reported by :func:`list_workloads`."""

    name: str
    category: str            # "regular" | "irregular"
    module: str              # implementing module under repro.workloads
    sizes: Tuple[str, ...]   # canonical sizes every workload supports
    mean_excluded: bool      # left out of suite means (paper: TMD)


def list_workloads(category: Optional[str] = None) -> List[WorkloadInfo]:
    """The public workload registry, in paper (Figure 7) order.

    ``category`` filters to ``"regular"`` or ``"irregular"``; the CLI
    (``repro workloads``) and :class:`repro.api.SweepSpec` validation
    are both built on this.
    """
    if category not in (None, "regular", "irregular"):
        raise ValueError(
            "category must be 'regular', 'irregular' or None, got %r" % (category,)
        )
    infos = [
        WorkloadInfo(
            name=name,
            category=category_of(name),
            module="repro.workloads." + _MODULE_OF[name],
            sizes=SIZES,
            mean_excluded=name in MEAN_EXCLUDED,
        )
        for name in ALL_WORKLOADS
    ]
    if category is not None:
        infos = [info for info in infos if info.category == category]
    return infos


@dataclass(frozen=True)
class _Built:
    """One workload built at one size by ``build``: what its instances
    share, and the words their images start from."""

    build: Callable[..., Instance]
    name: str
    kernel: Kernel
    outputs: List[Tuple[str, int, int]]
    numpy_check: Optional[Callable[[MemoryImage], None]]
    words: ImageWords


#: (workload, canonical size) -> its build: :func:`get_workload` builds
#: each once per process, and again only if its module's ``build`` is
#: replaced (as a test replaces it to run a hook inside every build).
_BUILT: Dict[Tuple[str, str], _Built] = {}


def get_workload(name: str, size: str = "bench") -> Instance:
    """A fresh instance of one workload: its own memory image, filled
    with the workload's inputs.

    The workload is built on the first call for its (name, size) in a
    process; every call shares that build's kernel (and so its
    compiled plans), outputs and check, and fills a new image from its
    inputs' words.  ``size`` accepts aliases (``smoke`` -> ``tiny``);
    unknown names and sizes raise errors that list every valid choice.
    """
    if name not in _MODULE_OF:
        raise KeyError(
            "unknown workload %r: regular workloads are %s; irregular are %s"
            % (name, ", ".join(REGULAR), ", ".join(IRREGULAR))
        )
    try:
        size = normalize_size(size)
    except ValueError as exc:
        raise ValueError("workload %r: %s" % (name, exc)) from None
    build = importlib.import_module("repro.workloads." + _MODULE_OF[name]).build
    built = _BUILT.get((name, size))
    if built is None or built.build is not build:
        inst = build(size, variant=name) if name in ("tmd1", "tmd2") else build(size)
        built = _BUILT[(name, size)] = _Built(
            build, inst.name, inst.kernel, inst.outputs, inst.numpy_check,
            ImageWords(inst.memory),
        )
        memory = inst.memory  # the build's own image is the first instance's
    else:
        memory = built.words.image()
    return Instance(built.name, built.kernel, memory, built.outputs, built.numpy_check, size)


def category_of(name: str) -> str:
    if name in REGULAR:
        return "regular"
    if name in IRREGULAR:
        return "irregular"
    raise KeyError(name)
