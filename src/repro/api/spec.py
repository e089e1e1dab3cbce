"""Declarative sweep specifications.

A :class:`SweepSpec` names the cartesian product the paper's
evaluation is made of — workloads x sizes x named configurations —
without running anything.  Configurations are real
:class:`~repro.timing.config.SMConfig` / ``GPUConfig`` objects (or
preset names, resolved eagerly), and *axis overrides* expand the grid
along any config field::

    spec = SweepSpec.from_presets(["baseline", "sbi_swi"],
                                  workloads=["bfs", "matrixmul"],
                                  size="bench")
    spec = spec.with_axes(sm_count=[1, 2, 4, 8])   # 2x2x4 = 16 cells

``sm_count`` is a device-level field: applying it to an ``SMConfig``
wraps the SM in a :class:`~repro.timing.config.GPUConfig`; SM-level
fields applied to a ``GPUConfig`` are forwarded to its ``sm``.  The
spec validates workload names, sizes and axis fields eagerly, so a
typo fails before the first simulation rather than mid-sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.cache import AnyConfig
from repro.core import presets
from repro.timing.config import GPUConfig, SMConfig
from repro.workloads import ALL_WORKLOADS, IRREGULAR, REGULAR, normalize_size

_SM_FIELDS = {f.name for f in dataclasses.fields(SMConfig)}
_GPU_FIELDS = {f.name for f in dataclasses.fields(GPUConfig)} - {"sm"}


@dataclass(frozen=True)
class Cell:
    """One point of a sweep: a workload at a size under a named config."""

    workload: str
    size: str
    config_name: str
    config: AnyConfig


def apply_override(config: AnyConfig, field: str, value) -> AnyConfig:
    """``config`` with one field overridden, promoting across levels.

    Fields of the config's own level win — crucial for names that
    exist at both levels (``dram_bandwidth``, ``dram_latency``), where
    the device copy overrides the SM copy whenever set.  Otherwise SM
    fields on a ``GPUConfig`` reach through to ``config.sm``, and
    device fields (``sm_count``, ``l2_size``, ...) on an ``SMConfig``
    promote it to a single-SM ``GPUConfig`` first.

    The virtual ``policy`` axis swaps the whole *SM microarchitecture*:
    the value names a registered policy whose preset replaces the SM
    config (device-level fields are kept).  This differs from the
    ``mode`` field axis, which changes only the mode string and keeps
    every other SM knob — sweeping ``policy`` compares machines on
    their own terms (each policy's warp geometry, latencies and
    scoreboard), which is what ``repro sweep --policy`` exposes.
    """
    if field == "policy":
        from repro.core import presets

        sm = presets.by_name(value) if isinstance(value, str) else value
        if not isinstance(sm, SMConfig):
            raise ValueError(
                "policy axis values must be registered policy names or "
                "SMConfig objects, got %r" % (value,)
            )
        if isinstance(config, GPUConfig):
            return config.replace(sm=sm)
        return sm
    if isinstance(config, GPUConfig):
        if field in _GPU_FIELDS:
            return config.replace(**{field: value})
        if field in _SM_FIELDS:
            return config.replace(sm=config.sm.replace(**{field: value}))
    else:
        if field in _SM_FIELDS:
            return config.replace(**{field: value})
        if field in _GPU_FIELDS:
            return GPUConfig(sm=config, **{field: value})
    raise ValueError(
        "unknown config field %r: SM fields are %s; device fields are %s "
        "(or the virtual axis 'policy', naming registered policies)"
        % (field, ", ".join(sorted(_SM_FIELDS)), ", ".join(sorted(_GPU_FIELDS)))
    )


def _resolve_workloads(workloads) -> Tuple[str, ...]:
    """Workload names, with ``all``/``regular``/``irregular`` groups."""
    if workloads is None:
        return tuple(ALL_WORKLOADS)
    if isinstance(workloads, str):
        workloads = [workloads]
    names: List[str] = []
    for token in workloads:
        group = {"all": ALL_WORKLOADS, "regular": REGULAR, "irregular": IRREGULAR}.get(
            token
        )
        if group is not None:
            names.extend(group)
        else:
            if token not in ALL_WORKLOADS:
                raise ValueError(
                    "unknown workload %r: choose from %s (or the groups "
                    "all, regular, irregular)" % (token, ", ".join(ALL_WORKLOADS))
                )
            names.append(token)
    # Preserve order, drop duplicates.
    return tuple(dict.fromkeys(names))


def _resolve_configs(configs) -> Dict[str, AnyConfig]:
    if isinstance(configs, str):
        configs = [configs]
    if not isinstance(configs, Mapping):
        items = list(configs)
        if any(not isinstance(item, str) for item in items):
            raise ValueError(
                "configs given as a sequence must be preset names; pass "
                "explicit SMConfig/GPUConfig objects as a {name: config} "
                "mapping instead"
            )
        configs = {name: name for name in items}
    resolved: Dict[str, AnyConfig] = {}
    for name, config in configs.items():
        if isinstance(config, str):
            config = presets.by_name(config)
        if not isinstance(config, (SMConfig, GPUConfig)):
            raise ValueError(
                "config %r must be an SMConfig, a GPUConfig or a preset "
                "name, got %r" % (name, config)
            )
        resolved[name] = config
    if not resolved:
        raise ValueError("a SweepSpec needs at least one configuration")
    return resolved


@dataclass(frozen=True)
class SweepSpec:
    """workloads x sizes x named configs, expanded by :meth:`cells`."""

    workloads: Tuple[str, ...]
    configs: Mapping[str, AnyConfig]
    sizes: Tuple[str, ...] = ("bench",)

    def __init__(
        self,
        workloads=None,
        configs=("baseline",),
        sizes: Union[str, Sequence[str]] = ("bench",),
        size: Optional[str] = None,
    ):
        if size is not None:
            sizes = size
        if isinstance(sizes, str):
            sizes = (sizes,)
        sizes = tuple(dict.fromkeys(normalize_size(s) for s in sizes))
        if not sizes:
            raise ValueError("a SweepSpec needs at least one size")
        object.__setattr__(self, "workloads", _resolve_workloads(workloads))
        object.__setattr__(self, "configs", dict(_resolve_configs(configs)))
        object.__setattr__(self, "sizes", sizes)
        if not self.workloads:
            raise ValueError("a SweepSpec needs at least one workload")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_presets(
        cls,
        names: Sequence[str],
        workloads=None,
        size: Union[str, Sequence[str]] = "bench",
    ) -> "SweepSpec":
        """A spec over named presets (``baseline``, ``sbi``, ...)."""
        configs = {name: presets.by_name(name) for name in names}
        return cls(workloads=workloads, configs=configs, sizes=size)

    @classmethod
    def figure7(cls, size: Union[str, Sequence[str]] = "bench") -> "SweepSpec":
        """The paper's headline grid: 5 configs x 21 workloads."""
        return cls.from_presets(presets.FIGURE7_CONFIGS, workloads="all", size=size)

    # ------------------------------------------------------------------
    # Derived grids
    # ------------------------------------------------------------------

    def with_configs(self, configs) -> "SweepSpec":
        return SweepSpec(workloads=self.workloads, configs=configs, sizes=self.sizes)

    def with_workloads(self, workloads) -> "SweepSpec":
        return SweepSpec(workloads=workloads, configs=self.configs, sizes=self.sizes)

    def with_policies(self, names: Sequence[str]) -> "SweepSpec":
        """Expand every config along registered policy presets
        (sugar for ``with_axes(policy=names)``)."""
        return self.with_axes(policy=list(names))

    def with_axes(self, **axes: Sequence) -> "SweepSpec":
        """Expand every config along the given field axes.

        ``spec.with_axes(sm_count=[1, 2, 4])`` turns each named config
        into one variant per value, named ``<base>/sm_count=<v>``.
        Several axes expand as a cartesian product, applied in keyword
        order.  The virtual ``policy`` axis swaps in a whole registered
        policy preset (see :func:`apply_override`) — list it *first* so
        field axes compose on top of each policy rather than being
        overwritten by the preset swap.
        """
        configs: Dict[str, AnyConfig] = dict(self.configs)
        for field, values in axes.items():
            values = list(values)
            if not values:
                raise ValueError("axis %r has no values" % field)
            expanded: Dict[str, AnyConfig] = {}
            for name, config in configs.items():
                for value in values:
                    label = "%s/%s=%s" % (name, field, value)
                    expanded[label] = apply_override(config, field, value)
            configs = expanded
        return self.with_configs(configs)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    @property
    def total_cells(self) -> int:
        return len(self.workloads) * len(self.sizes) * len(self.configs)

    def cells(self) -> List[Cell]:
        """The full grid, workload-major (as the legacy suite ran it)."""
        return [
            Cell(workload, size, name, config)
            for size in self.sizes
            for workload in self.workloads
            for name, config in self.configs.items()
        ]

    def describe(self) -> str:
        return "%d workloads x %d sizes x %d configs = %d cells" % (
            len(self.workloads),
            len(self.sizes),
            len(self.configs),
            self.total_cells,
        )
