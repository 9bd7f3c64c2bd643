"""One trial of one workload, in this fresh interpreter.

Started by ``run.py`` — never more than one at a time — as::

    python child.py WORKLOAD SEED ROUNDS SPAWNED_AT [--traced | --setup-only]

and prints one JSON object on its last line.  ``SPAWNED_AT`` is the
parent's ``time.time()`` just before the spawn, so the set-up segment
covers interpreter start, ``import repro``, data/model build and
``FLSession(...)`` — everything a user waits for before round 0.

Every timed segment (set-up, each round) is reported as its wall time
plus the samples of a speed probe taken while it ran; see
``_SpeedProbe`` and README.md, "Interference".
"""

import signal
import sys
import time

_SPAWNED_AT = float(sys.argv[4])


class _SpeedProbe:
    """How fast is the machine right now?

    This box shares its cores: the same code runs up to twice as slow
    for stretches of 0.1 s to minutes, whatever this process does.
    Every 10 ms of wall time an alarm runs a fixed pure-Python spin
    (about 0.1 ms, so 1 % of the run) and records how long it took.  The
    parent turns the samples of a segment into the wall time the segment
    would have taken at the machine's quiet speed.  The spin touches a
    few cache lines and no simulator state, so neither its duration nor
    the simulated results depend on the program under test.
    """

    INTERVAL_S = 0.01
    SPIN = 1600

    def __init__(self):
        self._samples = []
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def _fire(self, _signum, _frame) -> None:
        started = time.perf_counter()
        x = 0
        for i in range(self.SPIN):
            x += i * i % 7
        self._samples.append(time.perf_counter() - started)

    def take(self) -> list:
        """The samples since the last take()."""
        samples, self._samples = self._samples, []
        return samples

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


_PROBE = _SpeedProbe()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import _bootstrap  # noqa: E402,F401

import numpy as np  # noqa: E402

from repro.obs import AnomalyWatchdog, CountersRegistry, FlightRecorder, \
    InvariantMonitors, MetricsRegistry  # noqa: E402

import workloads  # noqa: E402


def _digest(session, counters) -> str:
    """sha256 over everything simulated: the run's metrics minus the
    host-time field, the counters and the scenario fingerprint."""
    rounds = session.metrics.to_dict()["iterations"]
    for entry in rounds:
        entry.pop("commit_seconds")
    payload = json.dumps(
        {"metrics": rounds, "counters": counters.snapshot(),
         "fingerprint": session.fingerprint()},
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_outputs(workload, session, problems) -> None:
    trainers = {trainer.name: trainer for trainer in session.trainers}
    for metrics in session.metrics.iterations:
        missing = set(trainers) - set(metrics.degraded) \
            - set(metrics.trainers_completed)
        if missing:
            problems.append(f"round {metrics.iteration}: non-faulted "
                            f"trainers did not complete: {sorted(missing)}")
    if not workload.faulted:
        try:
            session.consensus_params()
        except AssertionError as exc:
            problems.append(str(exc))
        return
    survivors = session.metrics.latest().trainers_completed
    if not survivors:
        problems.append("no trainer completed the final round")
        return
    reference = trainers[survivors[0]].model.get_params()
    diverged = [name for name in survivors[1:]
                if not np.allclose(trainers[name].model.get_params(),
                                   reference, atol=1e-9)]
    if diverged:
        problems.append(f"surviving trainers diverged: {diverged}")


def main() -> None:
    workload = workloads.by_name(sys.argv[1])
    seed, rounds = int(sys.argv[2]), int(sys.argv[3])
    mode = sys.argv[5] if len(sys.argv) > 5 else ""

    session = workload.build(seed)
    bus = session.sim.bus
    # Subscription order as in `cli chaos`: the recorder first, so its
    # ring already holds a watchdog anomaly when the seal check runs.
    recorder = FlightRecorder(bus) if workload.watched else None
    monitors = InvariantMonitors(bus) if workload.watched else None
    counters = CountersRegistry(bus)
    registry = MetricsRegistry(bus, counters=counters) \
        if workload.watched else None
    watchdog = AnomalyWatchdog.for_session(session) \
        if workload.watched else None
    result = {"workload": workload.name, "seed": seed, "rounds": rounds,
              "setup": {"wall_s": time.time() - _SPAWNED_AT,
                        "probe_s": _PROBE.take()}}
    if mode == "--setup-only":
        print(json.dumps(result))
        return

    tracer = None
    if mode == "--traced":
        import trace
        tracer = trace.Tracer()
    timed = []
    for _ in range(rounds):
        _PROBE.take()
        started = time.perf_counter()
        if tracer is not None:
            tracer.enable()
        session.run_iteration()
        if workload.gc:
            session.collect_garbage(keep_iterations=1)
        if tracer is not None:
            tracer.disable()
        timed.append({"wall_s": time.perf_counter() - started,
                      "probe_s": _PROBE.take()})
    result["timed_rounds"] = timed
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    violations = []
    if workload.watched:
        watchdog.finalize()
        # As `cli chaos`: evict finished rounds first, so the leak check
        # flags only storage the protocol truly abandoned.
        session.collect_garbage(keep_iterations=0)
        violations = monitors.finalize()
        recorder.close()
        registry.close()
        if violations:
            problems.append(f"{len(violations)} invariant violation(s)")
        if "retry_storm" not in watchdog.kinds():
            problems.append("watchdog did not report retry_storm")
    _check_outputs(workload, session, problems)

    iterations = session.metrics.iterations
    trainer_rounds = len(session.trainers) * rounds
    verification_failures = sum(len(m.verification_failures)
                                for m in iterations)
    not_completed = trainer_rounds - sum(len(m.trainers_completed)
                                         for m in iterations)
    if session.config.verifiable:
        if verification_failures:
            problems.append(f"{verification_failures} verification "
                            "failure(s)")
        verified = int(counters.get("protocol.updates_verified"))
        if verified != session.config.num_partitions * rounds:
            problems.append(f"{verified} updates verified, expected "
                            "partitions x rounds")
    result.update(
        sim_round_s=session.metrics.mean_over_iterations(
            "end_to_end_delay"),
        agg_rx_mb=session.metrics.mean_over_iterations(
            "mean_bytes_received") / 1e6,
        fail_share=(not_completed + verification_failures
                    + len(violations)) / trainer_rounds,
        trainer_rounds=trainer_rounds,
        sim_digest=_digest(session, counters),
        problems=problems,
    )
    if tracer is not None:
        result["layers"] = tracer.fold()
        result["counts"] = trace.exact_counts(
            tracer, session, counters, registry, watchdog)
        result["partition_len"] = session.partitioner.partition_size(0)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    finally:
        # An alarm during interpreter shutdown would kill the process.
        _PROBE.stop()
