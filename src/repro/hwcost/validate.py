"""Cross-checks between observed analytics and the modeled hardware.

The cost model (:mod:`repro.hwcost.area`, Table 4) prices a policy's
front end by its modeled issue width: one decoupled scheduler slot for
the baseline, two for the SBI dual-issue machines.  A simulation that
*observes* more issues in a single SM-cycle than that width has issued
through hardware the cost model never paid for: the width is the
scheduler class's own ``issue_width``, so the scheduler has a bug.
The run's performance numbers are then not comparable to the paper's,
so :func:`validate_peak_issue` fails loudly instead of letting the
mismatch ride into a results table.

The observable comes from the ``origins`` aggregator
(:class:`repro.analytics.origins.OriginAggregator`), whose snapshot
carries ``peak_issues_per_cycle`` per SM.  Every cell a sweep runs with
that aggregator attached (``repro sweep --observer origins``, inline or
on ``--jobs N`` workers) runs this check in
:func:`repro.api.engine._build_and_simulate`, and a violation fails the
cell like any other error.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from repro.timing.config import GPUConfig, SMConfig


class PeakIssueViolation(ValueError):
    """An SM issued above the policy's modeled front-end width."""


def front_end_width(config: Union[SMConfig, GPUConfig]) -> int:
    """The modeled peak issues per SM-cycle of ``config``'s policy."""
    sm = config.sm if isinstance(config, GPUConfig) else config
    return int(sm.issue_width)


def validate_peak_issue(
    config: Union[SMConfig, GPUConfig],
    origins_snapshot: Mapping[str, object],
) -> Dict[str, int]:
    """Check an ``origins`` snapshot against the modeled issue width.

    Returns the per-SM peak map (keys as in the snapshot) when every
    SM stayed within the front-end width; raises
    :class:`PeakIssueViolation` naming the worst offender otherwise.
    """
    width = front_end_width(config)
    raw = origins_snapshot.get("peak_issues_per_cycle")
    if not isinstance(raw, Mapping):
        raise ValueError(
            "origins snapshot has no peak_issues_per_cycle map "
            "(got %r); pass OriginAggregator.snapshot()" % (raw,)
        )
    peaks = {str(sm): int(peak) for sm, peak in raw.items()}
    # The highest peak, ties to the first SM id in sorted order.
    sm, peak = max(sorted(peaks.items()), key=lambda item: item[1], default=("", 0))
    if peak > width:
        sm_config = config.sm if isinstance(config, GPUConfig) else config
        raise PeakIssueViolation(
            "SM %s issued %d instructions in one cycle but policy "
            "%r models a front-end width of %d — the cost model "
            "(Table 4) prices %d issue slot(s), so these timing "
            "numbers are not comparable"
            % (sm, peak, sm_config.mode, width, width)
        )
    return peaks
