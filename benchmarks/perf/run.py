"""The repo's benchmark: end-to-end and per-layer, five workloads.

    python benchmarks/perf/run.py [--seed 7] [--trials 5] [--out FILE]
        every workload, `--trials` fresh child interpreters each
        (interleaved round-robin), then one traced run per workload and
        the layer probes; prints every metric and writes the results.
    python benchmarks/perf/run.py --smoke
        the same shape in under a minute: 1 trial, 1-2 rounds.
    python benchmarks/perf/run.py --compare BASE.json NEW.json
        direction- and bound-aware diff of two results files.
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload for about S seconds; the last line of output is the
        JSON object BENCHMARK.json's contract asks for.

Metric names, units, directions and bounds live in BENCHMARK.json and
nowhere else: a metric this file produces but BENCHMARK.json does not
declare (or the reverse) is an error.  README.md has the glossary.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from _bootstrap import HERE, ROOT

import numpy

import workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: Simulated statistics.  They must repeat exactly for a fixed seed, so
#: the suite gates them by equality (together with ``sim_digest``)
#: rather than by a bound; BENCHMARK.json lists them under ``per_layer``
#: because its bounded list is for measured, never-zero quantities.
EXACT = ("sim_round_s", "agg_rx_mb", "fail_share")

#: Set-up-only children per timed run, so ``setup_s`` is a median of at
#: least five fresh interpreters.
SETUP_ONLY_RUNS = 4
PROBE_REPEATS = 20
#: Probe repeats inside one ``--workload ... --trace 1`` run, which has
#: a time cap; ``--smoke`` runs each probe once.
QUICK_PROBE_REPEATS = 5

_CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# -- children ---------------------------------------------------------------------


def _spawn(script: str, *args) -> dict:
    """Run one child to completion and parse its last line.  Children
    run strictly one at a time: the box has two cores and the parent
    needs none while it waits."""
    command = [sys.executable, str(HERE / script), *map(str, args)]
    done = subprocess.run(command, env=_CHILD_ENV, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _trial(workload, seed: int, rounds: int, mode: str = "") -> dict:
    return _spawn("child.py", workload.name, seed, rounds, time.time(),
                  *([mode] if mode else []))


def _quiet_probe_s(runs) -> float:
    """The speed probe's duration when nothing interferes: the 5th
    percentile of every sample the given children took."""
    samples = sorted(
        sample for run in runs
        for segment in (run["setup"], *run.get("timed_rounds", ()))
        for sample in segment["probe_s"])
    return samples[len(samples) // 20]


def _at_quiet_speed(segment: dict, quiet: float) -> float:
    """A timed segment's wall seconds at the machine's quiet speed.

    While the probe takes ``p`` instead of ``quiet``, the program
    advances at ``quiet / p`` of its quiet rate; the samples are spread
    evenly over the segment's wall time, so the work done in it is
    ``wall * mean(quiet / p)`` quiet-seconds.  See README.md,
    "Interference".
    """
    probes = segment["probe_s"]
    if not probes:
        return segment["wall_s"]
    return segment["wall_s"] * statistics.fmean(quiet / p for p in probes)


def _round_wall_s(run: dict, quiet: float) -> float:
    return statistics.median(_at_quiet_speed(segment, quiet)
                             for segment in run["timed_rounds"])


def _trial_values(run: dict, quiet: float) -> dict:
    """One trial's own value of every end-to-end metric."""
    return {
        "round_wall_ms": _round_wall_s(run, quiet) * 1e3,
        "setup_s": _at_quiet_speed(run["setup"], quiet),
        "peak_rss_mb": run["peak_rss_mb"],
        **{name: run[name] for name in EXACT},
    }


def _summary(values) -> dict:
    ordered = sorted(values)
    q1, _, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                 else ordered * 3)
    return {"n": len(ordered), "median": statistics.median(ordered),
            "q1": q1, "q3": q3}


def _problems(runs) -> list:
    found = [problem for run in runs for problem in run["problems"]]
    if len({run["sim_digest"] for run in runs}) > 1:
        found.append("sim_digest differs between runs of one seed")
    return found


# -- per-layer metrics ------------------------------------------------------------


def _reconcile(counts: dict, probes: dict, partition_len: int) -> float:
    """Seconds the probes' unit costs predict for the counted work."""
    def cost(name):
        return statistics.median(probes[name]["samples"])

    flow = ("net.flow_us_n16" if counts["net.flows_per_recompute"] <= 64
            else "net.flow_us_n128")
    publish = ("obs.publish_ns_full" if counts["obs.telemetry_bytes"]
               else "obs.publish_ns_0sub")
    committed = partition_len + 1
    return (
        counts["sim.steps"] * cost("sim.step_us") * 1e-6
        + counts["sim.cancels"] * cost("sim.timeout_cancel_us") * 1e-6
        + counts["net.transfers"] * cost(flow) * 1e-6
        + counts["ipfs.bytes_stored"] / 1e6 / cost("ipfs.store_mb_s")
        + counts["ipfs.bytes_fetched"] / 1e6 / cost("ipfs.load_mb_s")
        + counts["crypto.commits"] * committed
        * cost("crypto.commit_us_per_param") * 1e-6
        + counts["crypto.verifies"] * committed
        * cost("crypto.verify_us_per_param") * 1e-6
        + counts["ml.train_calls"] * cost("ml.grad_us") * 1e-6
        + counts["obs.events_published"] * cost(publish) * 1e-9
    )


def _per_layer(trials, traced: dict, probes: dict, quiet: float) -> dict:
    """Every per-layer metric of one workload as name -> summary, from
    its traced run, its un-traced trials and the probes."""
    rounds = traced["rounds"]
    self_s = traced["layers"]["self_s"]
    profiled = sum(self_s.values())
    traced_wall = [segment["wall_s"] for segment in traced["timed_rounds"]]
    untraced_wall = statistics.median(_round_wall_s(run, quiet)
                                      for run in trials)
    raw_wall = statistics.median(
        statistics.median(segment["wall_s"]
                          for segment in run["timed_rounds"])
        for run in trials)
    values = {name: traced[name] for name in EXACT}
    values["host.round_wall_raw_ms"] = raw_wall * 1e3
    values["host.slowdown"] = raw_wall / untraced_wall
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds / rounds
        values[f"{layer}.share"] = seconds / profiled
        values[f"{layer}.calls_in"] = traced["layers"]["calls_in"][layer]
    values.update(traced["counts"])
    # Raw against raw: the tracer slows the speed probe's own bytecode,
    # so a traced run cannot be brought to quiet speed.
    values["trace.overhead_ratio"] = \
        statistics.median(traced_wall) / raw_wall
    values["trace.coverage"] = profiled / sum(traced_wall)
    values["reconcile.ratio"] = \
        _reconcile(traced["counts"], probes, traced["partition_len"]) \
        / (raw_wall * rounds)
    metrics = {name: _summary([value]) for name, value in values.items()}
    metrics.update((name, _summary(probe["samples"]))
                   for name, probe in probes.items())
    if set(metrics) != set(PER_LAYER):
        sys.exit("per-layer metrics differ from BENCHMARK.json: "
                 f"undeclared {sorted(set(metrics) - set(PER_LAYER))}, "
                 f"missing {sorted(set(PER_LAYER) - set(metrics))}")
    for name, probe in probes.items():
        if PER_LAYER[name]["unit"] != probe["unit"]:
            sys.exit(f"{name}: probe reports {probe['unit']}, "
                     f"BENCHMARK.json declares {PER_LAYER[name]['unit']}")
    return {name: {**metrics[name], "unit": PER_LAYER[name]["unit"]}
            for name in PER_LAYER}


# -- one workload for the driver --------------------------------------------------


def _measure(workload, seed: int, seconds: float, traced: bool) -> int:
    """BENCHMARK.json's contract: measure one workload for about
    ``seconds`` and print one JSON object as the last line."""
    if traced:
        runs = [_trial(workload, seed, workload.rounds),
                _trial(workload, seed, workload.rounds, "--traced")]
        probes = _spawn("probes.py", QUICK_PROBE_REPEATS)
        layers = _per_layer(runs[:1], runs[1], probes,
                            _quiet_probe_s(runs[:1]))
        metrics = {name: {"value": entry["median"], "unit": entry["unit"]}
                   for name, entry in layers.items()}
    else:
        started = time.monotonic()
        setups = [_trial(workload, seed, 0, "--setup-only")
                  for _ in range(SETUP_ONLY_RUNS)]
        runs = []
        # Whole trials of fixed size (the simulated statistics depend on
        # the round count), as many as fit: stop when one more of the
        # last trial's length would overrun.
        while True:
            began = time.monotonic()
            runs.append(_trial(workload, seed, workload.rounds))
            now = time.monotonic()
            if now - started + (now - began) > seconds:
                break
        quiet = _quiet_probe_s(setups + runs)
        values = [_trial_values(run, quiet) for run in runs]
        samples = {name: [value[name] for value in values]
                   for name in END_TO_END}
        samples["setup_s"] += [_at_quiet_speed(run["setup"], quiet)
                               for run in setups]
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": END_TO_END[name]["unit"]}
                   for name in END_TO_END}
    problems = _problems(runs)
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["rounds"] for run in runs),
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


# -- the whole suite --------------------------------------------------------------


def _environment(seed: int, trials: int, rounds: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown",
        "seed": seed,
        "trials": trials,
        "rounds": rounds,
    }


def _suite(seed: int, trials: int, smoke: bool, out: str) -> int:
    rounds = {w.name: w.smoke_rounds if smoke else w.rounds
              for w in workloads.WORKLOADS}
    runs = {w.name: [] for w in workloads.WORKLOADS}
    # Round-robin, so that a noisy-neighbour phase hits every workload
    # alike instead of all trials of one.
    for index in range(trials):
        for w in workloads.WORKLOADS:
            print(f"trial {index + 1}/{trials} {w.name}", file=sys.stderr)
            runs[w.name].append(_trial(w, seed, rounds[w.name]))
    traced = {}
    for w in workloads.WORKLOADS:
        print(f"traced {w.name}", file=sys.stderr)
        traced[w.name] = _trial(w, seed, rounds[w.name], "--traced")
    print("probes", file=sys.stderr)
    probes = _spawn("probes.py", 1 if smoke else PROBE_REPEATS)

    quiet = _quiet_probe_s([run for name in runs for run in runs[name]])
    # "claim" is the last key: this harness measures, it claims nothing.
    results = {"schema": 1, "env": _environment(seed, trials, rounds),
               "quiet_probe_us": quiet * 1e6, "workloads": {}, "claim": None}
    failed = False
    for w in workloads.WORKLOADS:
        values = [_trial_values(run, quiet) for run in runs[w.name]]
        end_to_end = {}
        for name in (*END_TO_END, *EXACT):
            spec = END_TO_END.get(name) or PER_LAYER[name]
            samples = [value[name] for value in values]
            end_to_end[name] = {
                **_summary(samples), "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec.get("bound", "exact"), "values": samples,
            }
        problems = _problems(runs[w.name] + [traced[w.name]])
        failed = failed or bool(problems)
        results["workloads"][w.name] = {
            "why": w.why,
            "rounds": rounds[w.name],
            "round_samples": rounds[w.name] * trials,
            "sim_digest": traced[w.name]["sim_digest"],
            "end_to_end": end_to_end,
            "per_layer": _per_layer(runs[w.name], traced[w.name], probes,
                                    quiet),
            "boundaries": traced[w.name]["layers"]["boundaries"],
            "problems": problems,
        }
    _print_report(results)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
        print(f"results -> {out}", file=sys.stderr)
    return 1 if failed else 0


def _print_report(results: dict) -> None:
    env = results["env"]
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu']} "
          f"x{env['nproc']}, commit {env['git_commit'][:12]}, "
          f"seed {env['seed']}, {env['trials']} trial(s)")
    for name, entry in results["workloads"].items():
        print(f"\n== {name}: {entry['rounds']} rounds/trial, "
              f"{entry['round_samples']} round samples, "
              f"sim_digest {entry['sim_digest'][:16]}")
        print(f"   {entry['why']}")
        for problem in entry["problems"]:
            print(f"   PROBLEM: {problem}")
        for section in ("end_to_end", "per_layer"):
            print(f"  -- {section}")
            for metric, m in entry[section].items():
                bound = m.get("bound")  # per-layer metrics have none
                gate = ("" if bound is None else "  exact"
                        if bound == "exact" else f"  bound {bound:.0%}")
                print(f"  {metric:32s} {m['median']:>16.6g} {m['unit']:<6s}"
                      f" q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                      f" n={m['n']}{gate}")


# -- comparing two results files --------------------------------------------------


def _verdict(base: dict, new: dict) -> str:
    sign = 1.0 if base["better"] == "lower" else -1.0
    if base["bound"] == "exact":
        worse_by = sign * (new["median"] - base["median"])
        return ("unchanged" if worse_by == 0
                else "worse" if worse_by > 0 else "better")
    reference = abs(base["median"])
    worse_by = sign * (new["median"] - base["median"]) / reference
    spread = max(base["q3"] - base["q1"], new["q3"] - new["q1"]) / reference
    threshold = max(base["bound"], spread)
    if worse_by > threshold:
        return "worse"
    if worse_by < -threshold:
        return "better"
    return "unresolved" if spread > base["bound"] else "unchanged"


def _compare(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    failed = False
    print(f"{'workload':16s} {'metric':16s} {'base':>14s} {'new':>14s} "
          f"{'change':>9s}  verdict")
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            print(f"{name:16s} missing from {new_path}")
            failed = True
            continue
        for metric, b in entry["end_to_end"].items():
            n = other["end_to_end"][metric]
            verdict = _verdict(b, n)
            failed = failed or verdict == "worse"
            change = ((n["median"] - b["median"]) / abs(b["median"])
                      if b["median"] else 0.0)
            print(f"{name:16s} {metric:16s} {b['median']:>14.6g} "
                  f"{n['median']:>14.6g} {change:>+9.2%}  {verdict}")
        same = entry["sim_digest"] == other["sim_digest"]
        failed = failed or not same
        print(f"{name:16s} {'sim_digest':16s} "
              f"{entry['sim_digest'][:14]:>14s} "
              f"{other['sim_digest'][:14]:>14s} {'':>9s}  "
              f"{'identical' if same else 'MISMATCH'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--out", default=str(HERE / "results" / "latest.json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--workload",
                        choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    # The build: byte-compile the program once, so that no child's
    # set-up time depends on whether it is the first in this checkout.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    if args.workload:
        return _measure(workloads.by_name(args.workload), args.seed,
                        args.seconds, bool(args.trace))
    return _suite(args.seed, 1 if args.smoke else args.trials, args.smoke,
                  args.out)


if __name__ == "__main__":
    sys.exit(main())
