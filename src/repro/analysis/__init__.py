"""Analytic models and result-table utilities.

- :func:`aggregation_time_model` / :func:`optimal_providers` — the
  Sec. III-E merge-and-download trade-off in closed form.
- :func:`aggregator_download_bytes` / :func:`naive_aggregation_time` —
  non-merge delay predictions.
- :func:`format_table` / :func:`series_shape` — benchmark output helpers.
- :func:`diagnose_runs` / :class:`DiagnosisReport` — differential run
  diagnosis over manifest + profile pairs
  (``python -m repro.cli explain``).
"""

from .diagnose import (
    Attribution,
    DiagnosisReport,
    SubsystemShift,
    diagnose_runs,
)
from .delays import (
    aggregator_download_bytes,
    naive_aggregation_time,
    naive_collection_time,
    upload_time,
)
from .providers import (
    aggregation_time_model,
    optimal_providers,
    sweep_provider_model,
)
from .results import format_row, format_table, series_shape
from .stats import Summary, bootstrap_ci, percentile, summarize
from .sweeps import Sweep, SweepResults, grid

__all__ = [
    "Attribution",
    "DiagnosisReport",
    "SubsystemShift",
    "aggregation_time_model",
    "aggregator_download_bytes",
    "format_row",
    "format_table",
    "naive_aggregation_time",
    "naive_collection_time",
    "optimal_providers",
    "Summary",
    "Sweep",
    "SweepResults",
    "bootstrap_ci",
    "diagnose_runs",
    "grid",
    "percentile",
    "summarize",
    "series_shape",
    "sweep_provider_model",
    "upload_time",
]
