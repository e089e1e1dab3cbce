"""repro.core.policy — the pluggable microarchitecture policy API.

The simulator's extension points are name -> object registries:

* :data:`POLICIES` — :class:`PolicySpec` bundles (what an
  ``SMConfig.mode`` string resolves to);
* :data:`SCHEDULERS` — scheduler-policy classes (``factory(sm)``),
  populated by :mod:`repro.core.schedulers` and by plugins;
* :data:`DIVERGENCE` — :class:`~repro.timing.divergence.DivergenceModel`
  subclasses (built per warp by ``cls.for_config(config, launch_mask,
  lane_perm)``);
* :data:`OBSERVERS` — cycle-level :class:`Observer` classes.

Defining a new microarchitecture needs no simulator edits::

    from repro.core import policy
    from repro.core.schedulers import CascadedScheduler

    @policy.SCHEDULERS.register("my_arbiter")
    class MyArbiter(CascadedScheduler):
        def _secondary_key(self, warp, split, entry):
            return (split.active_threads, -entry.fetch_cycle)

    policy.register_policy(policy.PolicySpec(
        name="my_swi", scheduler="my_arbiter", divergence="frontier",
        preset=dict(warp_count=16, warp_width=64, scheduler_latency=2,
                    delivery_latency=1, lane_shuffle="xor_rev"),
    ))

A policy is those three things and nothing else.  What the pipeline
needs to know about the machine it reads off the two classes at
launch: issue width (and with it ``peak_ipc`` and the cost model's
front-end width) is the scheduler class's ``issue_width`` — ``MyArbiter``
inherits the cascaded pair's 2 — and the fetch ways per warp, and
whether a CPC2 is co-issued, are the divergence model's
``hot_capacity``.  After the registration above ``"my_swi"`` works
everywhere a mode name does: ``presets.by_name``, ``SweepSpec``
configs, the ``policy`` sweep axis, and ``repro sweep --policy my_swi``
(load the defining module with ``--plugin``).
"""

from __future__ import annotations

from typing import Union

from repro.core.policy.registry import (
    DuplicateNameError,
    PolicyLookupError,
    Registry,
)
from repro.core.policy.spec import PolicySpec
from repro.core.policy.observers import (
    OBSERVERS,
    EventCounter,
    IssueEvent,
    MemEvent,
    Observer,
    RetireEvent,
    SplitEvent,
)

#: Scheduler-policy registry: name -> class/factory taking the SM.
#: Built-in entries register from :mod:`repro.core.schedulers`.
SCHEDULERS: Registry = Registry("scheduler")

# Built-in specs and divergence models (importing them pulls no
# pipeline modules in).
from repro.core.policy.builtin import DIVERGENCE, POLICIES  # noqa: E402


def register_policy(spec: PolicySpec, replace: bool = False) -> PolicySpec:
    """Register ``spec`` under ``spec.name`` and return it."""
    return POLICIES.register(spec.name, spec, replace=replace)


def coerce_policy(mode: Union[str, PolicySpec]) -> PolicySpec:
    """Resolve a config ``mode`` (name or spec) to a registered spec.

    Passing an unregistered :class:`PolicySpec` registers it on the
    spot, so ``SMConfig(mode=my_spec)`` just works; passing a spec
    whose name is already registered *differently* is an error (two
    machines must never share a cache key).
    """
    if isinstance(mode, PolicySpec):
        if mode.name in POLICIES:
            existing = POLICIES.get(mode.name)
            if existing != mode:
                raise DuplicateNameError(
                    "policy %r is already registered with a different spec; "
                    "rename yours or register_policy(spec, replace=True) "
                    "first" % mode.name
                )
            return existing
        return register_policy(mode)
    if isinstance(mode, str):
        return POLICIES.get(mode)
    raise TypeError(
        "mode must be a policy name or a PolicySpec, got %r" % (mode,)
    )


__all__ = [
    "DIVERGENCE",
    "DuplicateNameError",
    "EventCounter",
    "IssueEvent",
    "MemEvent",
    "OBSERVERS",
    "Observer",
    "POLICIES",
    "PolicyLookupError",
    "PolicySpec",
    "Registry",
    "RetireEvent",
    "SCHEDULERS",
    "SplitEvent",
    "coerce_policy",
    "register_policy",
]
