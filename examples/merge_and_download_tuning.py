#!/usr/bin/env python
"""Tuning merge-and-download: how many IPFS providers per aggregator?

Reproduces the Fig. 1 trade-off interactively: sweeps |P_ij| for a
16-trainer task with 1.3 MB gradient partitions at 10 Mbps (the Fig. 1
scenario, ``repro.analysis.figures.fig1_session``) and compares the
simulated optimum with the paper's closed form

    |P_ij|* = sqrt(b * |T_ij| / d)  (= sqrt(16) = 4 at equal bandwidths).

Run:  python examples/merge_and_download_tuning.py
"""

from repro.analysis import (
    aggregation_time_model,
    format_table,
    optimal_providers,
)
from repro.analysis.figures import FIG1_PROVIDERS, fig1_session
from repro.net import mbps, megabytes

NUM_TRAINERS = 16
BANDWIDTH_MBPS = 10.0


def main():
    bandwidth = mbps(BANDWIDTH_MBPS)
    rows = []
    for providers in FIG1_PROVIDERS:
        metrics = fig1_session(providers).run_iteration()
        analytic = aggregation_time_model(
            NUM_TRAINERS, megabytes(1.3), providers, bandwidth, bandwidth
        )
        rows.append([
            providers,
            metrics.mean_upload_delay,
            metrics.aggregation_delay,
            metrics.end_to_end_delay,
            analytic,
        ])
    print(format_table(
        ["providers", "upload (s)", "aggregation (s)",
         "end-to-end (s)", "analytic tau (s)"],
        rows,
        title="merge-and-download provider sweep "
              f"({NUM_TRAINERS} trainers, 1.3MB, {BANDWIDTH_MBPS} Mbps)",
    ))
    best = min(rows, key=lambda row: row[3])[0]
    p_star = optimal_providers(NUM_TRAINERS, node_bandwidth=bandwidth,
                               aggregator_bandwidth=bandwidth)
    print()
    print(f"simulated optimum : {best} providers")
    print(f"analytic optimum  : sqrt(b*T/d) = {p_star:.1f} providers")


if __name__ == "__main__":
    main()
