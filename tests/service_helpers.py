"""Helpers shared by the daemon's test files (not a test module)."""

import json

from repro.service.daemon import SweepService


def submit(service: SweepService, message: dict) -> dict:
    """Triage a ``submit`` envelope on ``service``; returns its ``ack``
    envelope — :meth:`SweepService.submit_line`'s line, decoded."""
    return json.loads(service.submit_line(message))
