"""Analytic models and result-table utilities.

- :func:`aggregation_time_model` / :func:`optimal_providers` — the
  Sec. III-E merge-and-download trade-off in closed form.
- :func:`format_table` / :func:`series_shape` — benchmark output helpers.
- :func:`diagnose_runs` — differential run diagnosis over manifest +
  profile pairs (``python -m repro.cli explain``).

The paper's figures are built in :mod:`repro.analysis.figures`, which
this package does not import: it needs the whole protocol stack.  The
closed-form delay and byte models (the non-merge download volume,
blockchain FL's round cost) are in :mod:`repro.analysis.delays`.
"""

from .diagnose import diagnose_runs
from .providers import aggregation_time_model, optimal_providers
from .results import format_table, series_shape

__all__ = [
    "aggregation_time_model",
    "diagnose_runs",
    "format_table",
    "optimal_providers",
    "series_shape",
]
