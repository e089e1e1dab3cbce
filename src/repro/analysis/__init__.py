"""Analysis and reporting tools: pipeline traces (Figure 2) and table
formatting.  Experiment running lives in :mod:`repro.api` (the
deprecated ``repro.analysis.experiments`` shim has been removed).
"""

from repro.analysis.pipeline_trace import trace_kernel, render_trace, figure2_example
from repro.analysis.report import format_table, gmean

__all__ = [
    "figure2_example",
    "format_table",
    "gmean",
    "render_trace",
    "trace_kernel",
]
