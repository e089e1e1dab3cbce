"""Shared stall diagnostics for the SM and device run loops.

Both :meth:`repro.core.sm.StreamingMultiprocessor.run` and
:class:`repro.core.gpu.GPUDevice` raise
:class:`~repro.core.sm.SimulationError` on a deadlock (no scheduled
events while warps are live) or a cycle-limit overrun; the message
bodies are built here so the two loops cannot drift apart.  Deadlock
reports include each live warp's next split wake and each SM's next
event (:meth:`~repro.core.sm.StreamingMultiprocessor.next_event_cycle`)
— when a run wedges, the first question is always "what was the engine
waiting for".
"""

from __future__ import annotations

from typing import List


def overrun_report(kernel_name: str, limit: int, now: int, stats_like, sm_count: int = 0) -> str:
    """Cycle-limit message: progress counters plus a correct IPC.

    ``stats_like`` needs ``instructions_issued`` and
    ``thread_instructions`` (a :class:`~repro.timing.stats.Stats` or a
    device total); ``sm_count`` > 0 appends the device suffix.
    """
    cycles = max(now, 1)
    msg = (
        "kernel %s exceeded the %d-cycle limit at cycle %d: "
        "%d instructions issued, %d thread instructions so far "
        "(IPC %.2f, issue IPC %.3f)"
        % (
            kernel_name,
            limit,
            now,
            stats_like.instructions_issued,
            stats_like.thread_instructions,
            stats_like.thread_instructions / cycles,
            stats_like.instructions_issued / cycles,
        )
    )
    if sm_count:
        msg = "%s (%d SMs)" % (msg, sm_count)
    return msg


def deadlock_report(header: str, sms, now: int) -> str:
    """Per-SM warp states, each with its next wake, one SM per block."""
    lines: List[str] = [header]
    for sm in sms:
        # Also refreshes the ``wake_cache`` (read below) of warps with one.
        next_event = sm.next_event_cycle(now)
        for warp in sm.live_warps():
            splits = ", ".join(repr(s) for s in warp.model.all_splits())
            lines.append(
                "  warp %d (cta %d): %s; scoreboard=%d; next wake %s"
                % (
                    warp.wid,
                    warp.cta_id,
                    splits,
                    len(warp.scoreboard),
                    next((c for c in warp.wake_cache if c > now), "none"),
                )
            )
        lines.append(
            "  next event (SM %d): %s"
            % (sm.sm_id, "none" if next_event is None else next_event)
        )
    return "\n".join(lines)
