#!/usr/bin/env python
"""Registering a custom microarchitecture through the policy API.

The presets reproduce the paper's Table 2 machines, but the simulator
is pluggable: scheduler policies, divergence models and whole
"machines" (:class:`~repro.core.policy.PolicySpec`) are registry
entries, so a new design is *registered*, not patched in.  This
example builds one from scratch:

* a custom secondary arbiter for the cascaded (SWI) scheduler that
  prefers the *freshest* fetched instruction — a deliberately
  contrarian policy to measure against the paper's best-fit arbiter;
* a ``PolicySpec`` tying it to frontier reconvergence with the SWI
  preset geometry, registered as mode ``swi_fresh``.  The spec names a
  scheduler, a divergence model and a preset and declares nothing
  else: the pipeline reads the issue width off the scheduler class
  (inherited from ``CascadedScheduler`` here) and the fetch ways per
  warp off the divergence model class.

Once registered, the new mode is a first-class citizen: it sweeps
next to the built-ins through :class:`repro.api.SweepSpec`, appears in
``repro policies``, and is selectable as ``repro sweep --policy
swi_fresh`` (via ``--plugin`` naming this module).

Run:  python examples/custom_microarchitecture.py
"""

from repro.api import Engine, SweepSpec
from repro.core import policy
from repro.core.schedulers import CascadedScheduler
from repro.timing.masks import popcount


@policy.SCHEDULERS.register("cascaded_freshest")
class FreshestFirstScheduler(CascadedScheduler):
    """Secondary arbiter preferring the most recently fetched ready
    instruction (still best-fit on lane count first)."""

    def _secondary_key(self, warp, split, entry):
        return (popcount(split.mask), entry.fetch_cycle, warp.wid)


policy.register_policy(
    policy.PolicySpec(
        name="swi_fresh",
        scheduler="cascaded_freshest",
        divergence="frontier",
        description="SWI variant: freshest-first secondary arbiter",
        preset=dict(
            warp_count=16,
            warp_width=64,
            scheduler_latency=2,
            delivery_latency=1,
            scoreboard_kind="warp",
            lane_shuffle="xor_rev",
        ),
    )
)

#: The comparison set: paper machines + registry exploration policies
#: + the one registered above.
POLICIES = ("sbi_swi", "swi", "swi_greedy", "swi_rr", "dwr", "swi_fresh")


def main():
    print("custom policy study on mandelbrot + eigenvalues (tiny)\n")
    spec = SweepSpec(
        workloads=["mandelbrot", "eigenvalues"],
        configs=["baseline"],
        sizes="tiny",
    ).with_policies(POLICIES)
    rs = Engine(errors="collect").run(spec, verify=True)
    print(rs.to_text())
    print(
        "\nevery policy produced the verified result — registered"
        "\nmicroarchitectures change timing, never semantics."
        "\n(list them all: repro policies; sweep this one from the CLI:"
        "\n repro sweep --plugin examples.custom_microarchitecture"
        " --policy swi_fresh --workloads mandelbrot --size tiny)"
    )


if __name__ == "__main__":
    main()
