"""Shared benchmark utilities.

Each benchmark regenerates one of the paper's figures: it runs the
simulated experiment once under pytest-benchmark timing, prints the
figure's rows as a table, writes the same table under
``benchmarks/results/`` and asserts the *shape* of the measured series
(who wins, where the optimum falls) — absolute numbers are testbed-
dependent and are not asserted.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_table(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
        handle.write(table + "\n")
    print("\n" + table)


@pytest.fixture
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
