"""Tests for the analytic models and result utilities."""

import math

import numpy as np
import pytest

from repro.analysis import (
    aggregation_time_model,
    format_table,
    optimal_providers,
    series_shape,
)
from repro.analysis.delays import (
    aggregator_download_bytes,
    blockchain_round_cost,
    naive_aggregation_time,
)
from repro.analysis.figures import FIG3_SERIES, fig3_table
from repro.core.partition import encode_partition
from repro.net import mbps
from repro.obs.profiling import FakeWallClock


# -- provider model ---------------------------------------------------------------


def test_tau_matches_paper_formula():
    tau = aggregation_time_model(
        num_trainers=16, partition_bytes=1.3e6, providers=4,
        node_bandwidth=1.25e6, aggregator_bandwidth=1.25e6,
    )
    expected = 1.3e6 * (16 / (1.25e6 * 4) + 4 / 1.25e6)
    assert tau == pytest.approx(expected)


def test_tau_minimized_at_sqrt():
    """tau(4) is the minimum over powers of two for 16 trainers at equal
    bandwidths (the paper's observation in Fig. 1)."""
    taus = {
        providers: aggregation_time_model(
            16, 1.3e6, providers, 1.25e6, 1.25e6
        )
        for providers in (1, 2, 4, 8, 16)
    }
    assert min(taus, key=taus.get) == 4


def test_optimal_providers_closed_form():
    assert optimal_providers(16) == pytest.approx(4.0)
    assert optimal_providers(16, node_bandwidth=1.0,
                             aggregator_bandwidth=4.0) == pytest.approx(8.0)
    # Derivative check: the optimum satisfies b*T/d = P^2.
    p_star = optimal_providers(25, node_bandwidth=2.0,
                               aggregator_bandwidth=3.0)
    assert p_star ** 2 == pytest.approx(3.0 * 25 / 2.0)


def test_tau_validation():
    with pytest.raises(ValueError):
        aggregation_time_model(16, 1e6, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        aggregation_time_model(0, 1e6, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        aggregation_time_model(16, -1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_providers(0)


def test_sweep_provider_model_u_shape():
    taus = [aggregation_time_model(16, 1.3e6, providers,
                                   node_bandwidth=1.25e6,
                                   aggregator_bandwidth=1.25e6)
            for providers in (1, 2, 4, 8, 16)]
    assert series_shape(taus) == "u-shaped"


# -- delay models -----------------------------------------------------------------------


def test_download_bytes_formula():
    # (|T_ij| + |A_i| - 1) * S
    assert aggregator_download_bytes(16, 1, 1.3e6) == 16 * 1.3e6
    assert aggregator_download_bytes(8, 2, 1.1e6) == 9 * 1.1e6
    with pytest.raises(ValueError):
        aggregator_download_bytes(-1, 1, 1.0)


def test_naive_aggregation_time():
    assert naive_aggregation_time(16, 1.25e6, 1.25e6) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        naive_aggregation_time(16, 1.0, 0.0)


# What the simulated blockchain FL session (miners gossiping every submit,
# a leader forging the block) measured for one round of SyntheticModel
# updates: end-to-end delay, network bytes delivered, miner storage.
@pytest.mark.parametrize("trainers, miners, params, bandwidth_mbps, delay, "
                         "network, storage", [
    (16, 4, 130_000, 10, 29.124115200000002, 86_331_672, 70_722_592),
    (8, 2, 1_000, 20, 0.05537600000000001, 203_528, 145_168),
    (6, 3, 5_000, 10, 0.449728, 1_043_792, 841_704),
    (4, 1, 2_000, 10, 0.1032704, 129_088, 80_552),
    (12, 4, 70_000, 100, 1.20992448, 35_288_952, 29_122_464),
])
def test_blockchain_round_cost_matches_the_simulated_round(
        trainers, miners, params, bandwidth_mbps, delay, network, storage):
    blob_bytes = len(encode_partition(np.zeros(params)))
    cost = blockchain_round_cost(trainers, miners, blob_bytes,
                                 mbps(bandwidth_mbps))
    assert cost[0] == pytest.approx(delay, rel=1e-12)
    assert cost[1:] == (network, storage)


@pytest.mark.parametrize("trainers, miners", [(0, 1), (4, 0), (6, 4)])
def test_blockchain_round_cost_validation(trainers, miners):
    with pytest.raises(ValueError):
        blockchain_round_cost(trainers, miners, 1_000, mbps(10.0))


# -- results utilities ---------------------------------------------------------------------


def test_format_table_alignment():
    table = format_table(
        ["providers", "delay"],
        [[1, 10.5], [16, 0.004]],
        title="Fig 1",
    )
    lines = table.splitlines()
    assert lines[0] == "Fig 1"
    assert "providers" in lines[2]
    assert len(lines) == 6


def test_format_table_handles_none_and_big_numbers():
    table = format_table(["x"], [[None], [123456.0], [1e-9]])
    assert "-" in table
    assert "e+" in table or "e-" in table


def test_series_shape_classification():
    assert series_shape([1, 2, 3]) == "increasing"
    assert series_shape([3, 2, 1]) == "decreasing"
    assert series_shape([3, 1, 2, 4]) == "u-shaped"
    assert series_shape([1, 3, 2]) == "mixed"
    assert series_shape([5]) == "flat"
    assert series_shape([5, 5, 5]) == "flat"


# -- figures ------------------------------------------------------------------------


def test_fig3_table_uses_the_injectable_wall_clock():
    clock = FakeWallClock(tick=0.5)
    rows, table = fig3_table([64], clock)
    # SHA-256 and the four Pedersen series each bracket with two reads.
    assert clock.reads == 10
    assert [rows[0][name] for name in ("sha256_s",) + FIG3_SERIES] \
        == [0.5] * 5
    # The last row extrapolates 0.5 s / 64 params to 5M params.
    assert [line.split() for line in table.splitlines()[4:]] == [
        ["64"] + ["0.500"] * 5 + ["1.000"],
        ["5000000", "-"] + ["3.906e+04"] * 4 + ["-"],
    ]
