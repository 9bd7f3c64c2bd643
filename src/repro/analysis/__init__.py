"""Analytic models and result-table utilities.

- :func:`aggregation_time_model` / :func:`optimal_providers` — the
  Sec. III-E merge-and-download trade-off in closed form.
- :func:`aggregator_download_bytes` — the non-merge download volume.
- :func:`format_table` / :func:`series_shape` — benchmark output helpers.
- :func:`diagnose_runs` — differential run diagnosis over manifest +
  profile pairs (``python -m repro.cli explain``).

The paper's figures are built in :mod:`repro.analysis.figures`, which
this package does not import: it needs the whole protocol stack.
"""

from .diagnose import diagnose_runs
from .delays import aggregator_download_bytes
from .providers import aggregation_time_model, optimal_providers
from .results import format_table, series_shape
from .stats import percentile

__all__ = [
    "aggregation_time_model",
    "aggregator_download_bytes",
    "diagnose_runs",
    "format_table",
    "optimal_providers",
    "percentile",
    "series_shape",
]
