"""Sec. V "Impact of verifiability on performance" — end-to-end view.

Four runs on the same deployment:

- ``plain``: an 8k-parameter model without verifiability,
- ``verifiable``: the same with real Pedersen commitments end to end
  (commit at trainers, accumulate at the directory, verify the update),
- ``verifiable + full-width cost``: additionally charging the measured
  Fig. 3 *full-width* slope (~167 us/param in pure Python: uniform Z_n
  exponents, the paper's regime) inside the *simulated* clock, so the
  iteration timeline shows commitment computation overtaking
  communication — the paper's bottleneck finding,
- ``verifiable + gradient cost``: charging the Fig. 3 *gradient* slope
  instead (~14 us/param: what a commitment to 16-bit fixed-point
  gradients costs once the multi-exponentiation works on centred
  scalars) — how far the bottleneck recedes for the traffic the
  protocol actually has.

The protocol reports the simulated seconds it charges for commitments;
the host seconds of the real commitments are timed here, around each
committer the sessions use.
"""

import time

import pytest
from _helpers import save_table

from repro.analysis import format_table
from repro.analysis.figures import marker_datasets
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

NUM_TRAINERS = 4
MODEL_PARAMS = 8_000  # kept small: the commitments are computed for real
FIG3_FULL_WIDTH_S_PER_PARAM = 167e-6
FIG3_GRADIENT_S_PER_PARAM = 14e-6


def timed_commits(session, spent):
    """Append the host seconds of every commitment ``session`` computes
    to ``spent``."""
    for committer in set(session.committers.values()):
        commit = committer.encode_and_commit

        def timed(values, counter=1.0, commit=commit):
            started = time.perf_counter()
            try:
                return commit(values, counter)
            finally:
                spent.append(time.perf_counter() - started)

        committer.encode_and_commit = timed
    return session


def make_session(verifiable: bool, commit_seconds_per_param=None):
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        verifiable=verifiable,
        fractional_bits=16,
        commit_seconds_per_param=commit_seconds_per_param,
        update_mode="gradient",
        poll_interval=0.25,
    )
    return FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        marker_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def test_verification_overhead(benchmark):
    outcome = {}
    host = {"verified": [], "charged": [], "lifted": []}

    def experiment():
        outcome["plain"] = make_session(verifiable=False).run_iteration()
        outcome["verified"] = timed_commits(
            make_session(verifiable=True), host["verified"],
        ).run_iteration()
        outcome["charged"] = timed_commits(make_session(
            verifiable=True,
            commit_seconds_per_param=FIG3_FULL_WIDTH_S_PER_PARAM,
        ), host["charged"]).run_iteration()
        outcome["lifted"] = timed_commits(make_session(
            verifiable=True,
            commit_seconds_per_param=FIG3_GRADIENT_S_PER_PARAM,
        ), host["lifted"]).run_iteration()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    plain, verified, charged, lifted = (
        outcome["plain"], outcome["verified"], outcome["charged"],
        outcome["lifted"],
    )

    crypto_seconds = sum(host["verified"])
    rows = [
        ["plain", plain.end_to_end_delay, 0.0, 0.0,
         len(plain.trainers_completed)],
        ["verifiable", verified.end_to_end_delay,
         sum(verified.commit_seconds.values()), crypto_seconds,
         len(verified.trainers_completed)],
        ["verifiable + full-width cost", charged.end_to_end_delay,
         sum(charged.commit_seconds.values()), sum(host["charged"]),
         len(charged.trainers_completed)],
        ["verifiable + gradient cost", lifted.end_to_end_delay,
         sum(lifted.commit_seconds.values()), sum(host["lifted"]),
         len(lifted.trainers_completed)],
    ]
    save_table("verification_overhead", format_table(
        ["mode", "end-to-end (sim s)", "commit charged (sim s)",
         "commit wall-clock (s)", "trainers done"],
        rows,
        title=f"Verifiability overhead ({NUM_TRAINERS} trainers, "
              f"{MODEL_PARAMS}-param model, 2 partitions, 10 Mbps)",
    ))
    benchmark.extra_info["crypto_seconds"] = round(crypto_seconds, 4)

    # Everyone completes in all modes; real crypto work was performed.
    for metrics in (plain, verified, charged, lifted):
        assert len(metrics.trainers_completed) == NUM_TRAINERS
    assert crypto_seconds > 0
    # The simulated charge is the cost model's, never host time.
    assert sum(verified.commit_seconds.values()) == 0.0
    assert sum(charged.commit_seconds.values()) == \
        pytest.approx(NUM_TRAINERS * FIG3_FULL_WIDTH_S_PER_PARAM
                      * (MODEL_PARAMS + 2))
    assert not verified.verification_failures
    # Verifiability adds protocol latency (commitments on the wire,
    # accumulated-commitment queries, directory verification download).
    assert verified.end_to_end_delay >= plain.end_to_end_delay
    # With the full-width Fig. 3 slope charged on the simulated clock,
    # commitment time dominates the iteration — the paper's bottleneck
    # observation.
    assert charged.end_to_end_delay > 3 * plain.end_to_end_delay
    expected_commit_delay = FIG3_FULL_WIDTH_S_PER_PARAM * (MODEL_PARAMS / 2)
    charged_overhead = charged.end_to_end_delay - verified.end_to_end_delay
    assert charged_overhead > expected_commit_delay
    # At the gradient slope the same protocol steps are charged; the
    # overhead shrinks at least by the ratio of the two slopes (at this
    # size it hides inside the 0.25 s poll interval altogether).
    lifted_overhead = lifted.end_to_end_delay - verified.end_to_end_delay
    assert lifted_overhead < charged_overhead / 5
