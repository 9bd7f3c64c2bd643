"""Sec. III-E analytic model vs simulation: the provider-count optimum.

The paper derives tau(P) = S * (T/(dP) + P/b) with the optimum at
P* = sqrt(b*T/d).  This benchmark sweeps the simulator over provider
counts and checks that (a) the analytic tau curve is u-shaped with its
discrete argmin at round(P*), and (b) the simulated end-to-end delay's
argmin agrees with the analytic optimum.
"""

from _helpers import dummy_datasets, save_table

from repro.analysis import (
    aggregation_time_model,
    format_table,
    optimal_providers,
    series_shape,
)
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile, mbps, megabytes

NUM_TRAINERS = 16
PARTITION_PARAMS = 162_500  # ~1.3 MB
PROVIDER_COUNTS = [1, 2, 3, 4, 6, 8, 12, 16]
BANDWIDTH_MBPS = 10.0


def simulated_delay(providers: int,
                    aggregator_bandwidth_mbps=None) -> float:
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        merge_and_download=True,
        providers_per_aggregator=providers,
        update_mode="gradient",
        poll_interval=0.25,
    )
    session = FLSession(
        config,
        lambda: SyntheticModel(PARTITION_PARAMS),
        dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(
            num_ipfs_nodes=max(PROVIDER_COUNTS),
            bandwidth_mbps=BANDWIDTH_MBPS,
            aggregator_bandwidth_mbps=aggregator_bandwidth_mbps,
        ),
    )
    metrics = session.run_iteration()
    return metrics.end_to_end_delay


def test_provider_optimum_matches_analysis(benchmark):
    bandwidth = mbps(BANDWIDTH_MBPS)
    partition_bytes = megabytes(1.3)
    outcome = {}

    def experiment():
        outcome["simulated"] = {
            providers: simulated_delay(providers)
            for providers in PROVIDER_COUNTS
        }
        # The asymmetric case: a 4x faster aggregator (b = 4d) moves the
        # analytic optimum to sqrt(4*16) = 8 providers.
        outcome["asymmetric"] = {
            providers: simulated_delay(providers,
                                       aggregator_bandwidth_mbps=40.0)
            for providers in (2, 4, 8, 12, 16)
        }

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    simulated = outcome["simulated"]
    analytic = {
        providers: aggregation_time_model(
            NUM_TRAINERS, partition_bytes, providers, bandwidth, bandwidth
        )
        for providers in PROVIDER_COUNTS
    }

    table = save_rows = [
        [providers, analytic[providers], simulated[providers]]
        for providers in PROVIDER_COUNTS
    ]
    save_table("provider_model", format_table(
        ["providers", "analytic tau (s)", "simulated end-to-end (s)"],
        save_rows,
        title="Sec. III-E model vs simulation (16 trainers, 1.3MB, "
              "10 Mbps)",
    ))
    benchmark.extra_info["p_star"] = optimal_providers(
        NUM_TRAINERS, node_bandwidth=bandwidth,
        aggregator_bandwidth=bandwidth,
    )

    # The analytic optimum is sqrt(16) = 4 at equal bandwidths.
    p_star = optimal_providers(NUM_TRAINERS, node_bandwidth=bandwidth,
                               aggregator_bandwidth=bandwidth)
    assert round(p_star) == 4

    analytic_argmin = min(analytic, key=analytic.get)
    simulated_argmin = min(simulated, key=simulated.get)
    assert analytic_argmin == 4
    assert simulated_argmin in (3, 4, 6)  # adjacent sweep points allowed

    # Both curves are u-shaped in the provider count.
    assert series_shape([analytic[p] for p in PROVIDER_COUNTS]) == "u-shaped"
    simulated_series = [simulated[p] for p in PROVIDER_COUNTS]
    assert series_shape(simulated_series) in ("u-shaped", "decreasing")
    # The extremes are worse than the optimum in simulation too.
    best = min(simulated_series)
    assert simulated[1] > 1.5 * best
    assert simulated[16] > 1.05 * best

    # Bandwidth dependence: with b = 4d the simulated optimum moves to
    # the analytic sqrt(b*T/d) = 8.
    asymmetric = outcome["asymmetric"]
    p_star_asym = optimal_providers(NUM_TRAINERS, node_bandwidth=bandwidth,
                                    aggregator_bandwidth=4 * bandwidth)
    assert round(p_star_asym) == 8
    assert min(asymmetric, key=asymmetric.get) == 8
