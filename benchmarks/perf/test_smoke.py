"""Smoke test of the benchmark harness itself.

Not part of tier-1 (``testpaths = ["tests"]``); run it on purpose::

    python -m pytest -q benchmarks/perf/test_smoke.py

It runs ``run.py --smoke`` three times (about a minute each): twice with
one seed and once with another.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
END_TO_END = ["round_wall_ms", "setup_s", "peak_rss_mb",
              "sim_round_s", "agg_rx_mb", "fail_share"]
#: Per-layer metrics that are measured times or derived from them;
#: everything else per-layer must repeat exactly.
TIMED = re.compile(r"(\.self_s|\.share|_(us|ns|mb_s)(_\w+)?"
                   r"|^(trace|host)\.\w+|^reconcile\.ratio)$")


def _smoke(tmp_path, seed: int, tag: str) -> dict:
    out = tmp_path / f"smoke-{tag}.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                    "--seed", str(seed), "--out", str(out)],
                   check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("perf-smoke")
    return (_smoke(tmp_path, 7, "a"), _smoke(tmp_path, 7, "b"),
            _smoke(tmp_path, 8, "c"))


def test_every_metric_is_present_with_a_unit(runs):
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] \
        == list(runs[0]["workloads"])
    for entry in runs[0]["workloads"].values():
        assert not entry["problems"]
        assert list(entry["end_to_end"]) == END_TO_END
        assert list(entry["per_layer"]) == declared
        for section in ("end_to_end", "per_layer"):
            for name, metric in entry[section].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                assert metric["unit"] and metric["n"] >= 1
                assert metric["q1"] <= metric["median"] <= metric["q3"]
    assert list(runs[0])[-1] == "claim" and runs[0]["claim"] is None
    assert {"python", "numpy", "cpu", "nproc", "git_commit", "seed",
            "trials", "rounds"} <= set(runs[0]["env"])


def test_simulated_statistics_and_counts_repeat_exactly(runs):
    first, second, other = runs
    for name, entry in first["workloads"].items():
        again = second["workloads"][name]
        assert entry["sim_digest"] == again["sim_digest"]
        assert entry["sim_digest"] != other["workloads"][name]["sim_digest"]
        for metric in ("sim_round_s", "agg_rx_mb", "fail_share"):
            assert entry["end_to_end"][metric]["median"] \
                == again["end_to_end"][metric]["median"]
        for metric, value in entry["per_layer"].items():
            if not TIMED.search(metric):
                assert value["median"] == again["per_layer"][metric][
                    "median"], metric
        assert entry["boundaries"] == again["boundaries"]


def test_workloads_separate_the_layers(runs):
    layers = {name: entry["per_layer"]
              for name, entry in runs[0]["workloads"].items()}
    assert layers["exact_n96"]["net.share"]["median"] >= 0.5
    assert layers["verifiable_mlp"]["net.share"]["median"] <= 0.05
    assert layers["verifiable_mlp"]["crypto.share"]["median"] >= 0.8
    for name, entry in runs[0]["workloads"].items():
        fail_share = entry["end_to_end"]["fail_share"]["median"]
        if name != "verifiable_mlp":
            assert layers[name]["crypto.share"]["median"] == 0
        assert (fail_share > 0) == (name == "churn_watched")


def test_compare_accepts_a_run_against_itself(runs, tmp_path):
    path = tmp_path / "self.json"
    path.write_text(json.dumps(runs[0]))
    done = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--compare", str(path), str(path)],
                          stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0
    assert "worse" not in done.stdout and "MISMATCH" not in done.stdout
