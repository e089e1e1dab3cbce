"""The structured description of one microarchitecture policy.

A :class:`PolicySpec` is what an :class:`~repro.timing.config.SMConfig`
``mode`` string resolves to: it names the scheduler policy and the
divergence model (both registry keys) and optionally carries a
``preset`` mapping of configuration defaults so ``presets.by_name`` /
``SweepSpec`` can build a ready-to-run machine from just the name.

What the pipeline needs to know about the pair — how many
instructions the front end issues per cycle, how many warp-splits
fetch/decode must serve — is not declared here: it is read off the
two registered classes (:attr:`PolicySpec.issue_width`,
:attr:`PolicySpec.hot_capacity`), so it cannot disagree with them.

The spec is pure data — registering one never imports a simulator
module — so third-party policies can be declared before (or without)
constructing any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class PolicySpec:
    """One registered microarchitecture policy.

    ``scheduler`` and ``divergence`` are names in the
    :data:`~repro.core.policy.SCHEDULERS` and
    :data:`~repro.core.policy.DIVERGENCE` registries; they are resolved
    when a machine is constructed (or a capability below is read), not
    at registration, so a spec can reference a scheduler whose module
    has not been imported yet.
    """

    name: str
    scheduler: str
    divergence: str

    description: str = ""
    #: SMConfig field defaults applied by ``presets.by_name(name)``.
    preset: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("PolicySpec.name must be a non-empty string")
        # Freeze the preset mapping into a plain dict copy so a caller
        # mutating their dict later cannot skew registered defaults —
        # and fail on typo'd keys *now*, not at the first by_name().
        preset = dict(self.preset)
        import dataclasses

        from repro.timing.config import SMConfig

        valid = {f.name for f in dataclasses.fields(SMConfig)} - {"mode"}
        bad = sorted(set(preset) - valid)
        if bad:
            raise ValueError(
                "PolicySpec %r preset has unknown SMConfig fields %s "
                "('mode' is implied by the spec name); valid fields: %s"
                % (self.name, ", ".join(bad), ", ".join(sorted(valid)))
            )
        object.__setattr__(self, "preset", preset)

    # -- capabilities, read off the registered classes ------------------

    @property
    def issue_width(self) -> int:
        """Instructions the scheduler class may issue per cycle."""
        import repro.core.schedulers  # noqa: F401  (registers the built-ins)
        from repro.core.policy import SCHEDULERS

        return SCHEDULERS.get(self.scheduler).issue_width

    @property
    def hot_capacity(self) -> int:
        """Runnable warp-splits the divergence model exposes to
        fetch/decode (2 for the HCT's CPC1/CPC2 pair, else 1)."""
        from repro.core.policy import DIVERGENCE

        return DIVERGENCE.get(self.divergence).hot_capacity

    @property
    def uses_sbi(self) -> bool:
        """A second hot split is what the dual front-end co-issues."""
        return self.hot_capacity > 1

    def describe(self) -> str:
        return "%s: scheduler=%s divergence=%s issue=%d hot=%d%s" % (
            self.name,
            self.scheduler,
            self.divergence,
            self.issue_width,
            self.hot_capacity,
            " — %s" % self.description if self.description else "",
        )
