"""Parameter-sweep utilities for experiments.

A small declarative layer over "run the same experiment for every value
of X and collect a metric", shared by the CLI, benchmarks and notebooks:

>>> sweep = Sweep("providers", [1, 2, 4])
>>> results = sweep.run(lambda providers: providers * 2.0)
>>> results.values()
[2.0, 4.0, 8.0]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

from .results import format_table, series_shape

__all__ = ["Sweep", "SweepResults"]


@dataclass
class SweepResults:
    """Ordered (parameter value, result) pairs from one sweep."""

    parameter: str
    rows: List[Tuple[Any, Any]] = field(default_factory=list)

    def values(self) -> List[Any]:
        return [result for _, result in self.rows]

    def argmin(self, key: Callable[[Any], float] = lambda r: r) -> Any:
        """Parameter value minimizing ``key(result)``."""
        if not self.rows:
            raise ValueError("empty sweep")
        return min(self.rows, key=lambda row: key(row[1]))[0]

    def argmax(self, key: Callable[[Any], float] = lambda r: r) -> Any:
        if not self.rows:
            raise ValueError("empty sweep")
        return max(self.rows, key=lambda row: key(row[1]))[0]

    def shape(self, key: Callable[[Any], float] = lambda r: r) -> str:
        """'increasing' / 'decreasing' / 'u-shaped' / 'mixed' / 'flat'."""
        return series_shape([key(result) for _, result in self.rows])

    def table(self, result_label: str = "result",
              key: Callable[[Any], Any] = lambda r: r) -> str:
        return format_table(
            [self.parameter, result_label],
            [[value, key(result)] for value, result in self.rows],
        )


class Sweep:
    """One-dimensional parameter sweep."""

    def __init__(self, parameter: str, values: Sequence[Any]):
        if not values:
            raise ValueError("a sweep needs at least one value")
        self.parameter = parameter
        self.values = list(values)

    def run(self, experiment: Callable[[Any], Any]) -> SweepResults:
        """Call ``experiment(value)`` for each value, in order."""
        results = SweepResults(parameter=self.parameter)
        for value in self.values:
            results.rows.append((value, experiment(value)))
        return results
