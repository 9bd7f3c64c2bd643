"""Per-function wall time of a `fig2_sync` round: timers, no profiler.

    python benchmarks/data_path_timers.py [--root CHECKOUT] [--seed 7] [--rounds 4]

Wraps the functions of the gradient data path (EXPERIMENTS.md, "Each byte
once") with ``perf_counter`` timers — self time: a wrapped callee is
subtracted from its wrapped caller on the same thread — builds the
benchmark's `fig2_sync` workload and runs its rounds as
``benchmarks/perf/child.py`` does (a `CountersRegistry`, which wants
`TrainingEvaluated`; `collect_garbage` after each round), discards one
round and reports milliseconds and calls per round over the next
``--rounds``.  ``--root`` points at another checkout (the parent commit)
so both sides are read by one script; names a checkout does not have are
skipped.  Information only: the claim is measured by the harness.

A chunked object's leaves are hashed on two lanes (the calling thread and
the helper thread of `repro.ipfs.block`), and each thread keeps its own
stack of open timers, so `compute_cid` sums the time of both lanes: it is
CPU time spent hashing, not a share of the round wall.
"""

import argparse
import importlib
import pathlib
import sys
import threading
import time

#: (module, owner class or None, function, label)
TARGETS = [
    ("repro.ipfs.cid", None, "compute_cid", "compute_cid (SHA-256)"),
    ("repro.ipfs.cid", "CID", "decode", "CID.decode"),
    ("repro.ipfs.block", None, "parse_manifest", "parse_manifest"),
    ("repro.ml.models", "SyntheticModel", "loss_and_gradient",
     "SyntheticModel.loss_and_gradient"),
    ("repro.ml.models", "SyntheticModel", "get_params", "get_params"),
    ("repro.ml.models", "SyntheticModel", "set_params", "set_params"),
    ("repro.core.trainer", "Trainer", "_install_update", "_install_update"),
    ("repro.core.partition", "ModelPartitioner", "join", "join"),
    ("repro.core.partition", None, "decode_partition", "decode_partition"),
    ("repro.core.partition", None, "_partition_view", "_partition_view"),
    ("repro.core.partition", None, "encode_partition", "encode_partition"),
    ("repro.core.partition", None, "sum_encoded_partitions",
     "sum_encoded_partitions"),
    ("repro.ipfs.merge", None, "sum_f64", "sum_f64"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(
        pathlib.Path(__file__).resolve().parent.parent))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args()
    sys.path[:0] = [args.root + "/src", args.root + "/benchmarks/perf"]
    import workloads

    seconds, calls = {}, {}
    lock, lanes = threading.Lock(), threading.local()

    def timed(function, label):
        def wrapper(*positional, **keywords):
            nested = vars(lanes).setdefault("nested", [])
            nested.append(0.0)
            started = time.perf_counter()
            try:
                return function(*positional, **keywords)
            finally:
                elapsed = time.perf_counter() - started
                own = elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
                with lock:
                    seconds[label] = seconds.get(label, 0.0) + own
                    calls[label] = calls.get(label, 0) + 1
        return wrapper

    for module_name, owner_name, name, label in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner).get(name)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(timed(raw.__func__, label)))
            continue
        replacement = timed(raw, label)
        setattr(owner, name, replacement)
        if owner_name is None:  # rebind every `from module import name`
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and vars(other).get(name) is raw:
                    setattr(other, name, replacement)

    from repro.obs import CountersRegistry

    session = workloads.by_name("fig2_sync").build(args.seed)
    CountersRegistry(session.sim.bus)
    walls = []
    for index in range(1 + args.rounds):
        started = time.perf_counter()
        session.run_iteration()
        session.collect_garbage(keep_iterations=1)
        walls.append(time.perf_counter() - started)
        if index == 0:  # the discarded round
            seconds.clear()
            calls.clear()
            walls.clear()
    print(f"round wall with timers, median of {args.rounds}: "
          f"{sorted(walls)[len(walls) // 2] * 1e3:.1f} ms")
    for label in sorted(seconds, key=seconds.get, reverse=True):
        print(f"{label:36s} {seconds[label] / args.rounds * 1e3:7.1f} ms "
              f"{calls[label] / args.rounds:7.0f} calls  per round")


if __name__ == "__main__":
    main()
