"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.util import run_bundle

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_train_defaults():
    args = build_parser().parse_args(["train"])
    assert args.trainers == 8
    assert not args.verifiable


def test_train_small_run(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "2",
        "--features", "6", "--samples", "120",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "identical global model" in out


def test_train_verifiable_run(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "2",
        "--features", "6", "--samples", "120", "--verifiable",
    ])
    assert code == 0
    assert "verifiable" in capsys.readouterr().out


def test_train_non_iid_merge(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "4",
        "--features", "6", "--samples", "200",
        "--non-iid", "--merge-and-download", "--providers", "2",
    ])
    assert code == 0
    assert "merge-and-download" in capsys.readouterr().out


def test_reproduce_prints_the_committed_fig1_table(capsys):
    committed = (RESULTS / "fig1_providers.txt").read_text(encoding="utf-8")
    assert main(["reproduce", "--figures", "fig1"]) == 0
    assert capsys.readouterr().out == committed


SMALL_SESSION = [
    "--trainers", "2", "--rounds", "1", "--partitions", "1",
    "--ipfs-nodes", "2", "--params", "2000",
]


@pytest.mark.parametrize("gone", [
    "trace", "timeline", "critical-path", "metrics", "audit",
    "incidents", "chaos", "profile", "compare", "scale",
])
def test_parser_rejects_the_subcommands_run_replaced(gone, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([gone])
    assert "invalid choice" in capsys.readouterr().err


def test_status_is_not_a_subcommand(capsys):
    # `explain` is the one reader of a bundle; nothing is left to poll.
    with pytest.raises(SystemExit) as exit_info:
        main(["status", "x"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'status'" in capsys.readouterr().err


def test_timeline_writes_a_loadable_perfetto_trace(tmp_path):
    import json
    run = run_bundle(SMALL_SESSION, tmp_path)
    assert run.code == 0
    trace = json.loads((tmp_path / "timeline.perfetto.json").read_text())
    slices = [record for record in trace["traceEvents"]
              if record["ph"] == "X"]
    assert slices and all("ts" in r and "dur" in r and "tid" in r
                          for r in slices)
    assert {record["name"] for record in slices} >= {
        "iteration", "upload", "collect", "publish_update",
    }
    # Simulated time only: a host-time track would break the replay.
    assert {record["pid"] for record in trace["traceEvents"]} == {1}
    assert "ui.perfetto.dev" in run.out


def test_timeline_streams_to_stdout(tmp_path):
    """What streams to stdout is the report, and ``report.txt`` is
    exactly that; the timeline (like every other artifact) is a file
    the report names, never output."""
    run = run_bundle(SMALL_SESSION, tmp_path)
    assert run.code == 0
    assert run.out == (tmp_path / "report.txt").read_text()
    assert "1 iteration(s) -> timeline.perfetto.json" in run.out
    assert "traceEvents" not in run.out
    assert run.out.rstrip().endswith("run clean")


def test_critical_path_prints_the_decomposition(tmp_path):
    run = run_bundle(SMALL_SESSION, tmp_path)
    assert run.code == 0
    assert "iteration 0 critical path" in run.out
    assert "upload" in run.out and "publish_update" in run.out
    assert "stragglers (threshold 0.000 s)" in run.out
    assert "<-- straggler" in run.out


# -- the exit-code rule -------------------------------------------------------------

AUDIT_SESSION = [
    "--trainers", "4", "--rounds", "1", "--partitions", "1",
    "--ipfs-nodes", "4", "--params", "64",
]

#: Every directory request times out at once: retry budgets run out on
#: honest infrastructure, within a few simulated seconds.
EXHAUSTED = SMALL_SESSION + ["--request-timeout", "1e-6"]


def test_audit_honest_run_exits_zero(tmp_path):
    run = run_bundle(AUDIT_SESSION + ["--verifiable"], tmp_path)
    assert run.code == 0
    assert "run clean" in run.out


def test_audit_injected_drop_exits_nonzero(drop_bundle):
    assert drop_bundle.code == 1
    assert "run FAILED" in drop_bundle.out
    assert "1 verification failure(s)" in drop_bundle.out
    assert "classification: dropped" in drop_bundle.out
    assert "aggregator-0" in drop_bundle.out
    assert list((drop_bundle.path / "incidents").glob("incident-*.json"))


def test_audit_warn_only_reports_but_exits_zero(tmp_path):
    run = run_bundle(EXHAUSTED + ["--warn-only"], tmp_path)
    assert run.code == 0
    assert "run FAILED" in run.out


def test_audit_inject_forces_verifiable(drop_bundle):
    # No --verifiable on the command line; detection still works.
    import json
    assert "forces --verifiable" in drop_bundle.err
    manifest = json.loads((drop_bundle.path / "manifest.json").read_text())
    assert manifest["fingerprint"]["verifiable"] is True


def test_run_bundle_holds_the_six_entries(drop_bundle):
    """Each entry answers one of a run's four questions: where simulated
    time went, where host time went, whether it was correct, and how it
    differs from another run."""
    assert sorted(p.name for p in drop_bundle.path.iterdir()) == [
        "incidents", "manifest.json", "profile.json", "report.txt",
        "timeline.perfetto.json", "trace.jsonl"]
    assert (drop_bundle.path / "incidents").is_dir()


def test_incidents_writes_loadable_bundles(drop_bundle):
    import json
    bundles = sorted((drop_bundle.path / "incidents").glob("*.json"))
    assert [path.name for path in bundles] == [
        "incident-00-i0-verification_failed.json"]
    loaded = json.loads(bundles[0].read_text())
    assert loaded["blame"]["classification"] == "dropped"
    assert loaded["blame"]["aggregator"] == "aggregator-0"
    assert "trainer-2" in loaded["blame"]["dropped_trainers"]


def test_run_overwrites_the_incidents_of_an_earlier_run(tmp_path):
    stale = tmp_path / "incidents" / "incident-07-i3-anomaly_detected.json"
    stale.parent.mkdir()
    stale.write_text("{}")
    assert run_bundle(SMALL_SESSION, tmp_path).code == 0
    assert not list((tmp_path / "incidents").iterdir())


@pytest.mark.parametrize("case, code, said", [
    ("honest", 0, "run clean"),
    ("drop", 1, "1 verification failure(s)"),
    ("churn plan, both of its kinds expected", 0, "run clean"),
    ("fault plan, its kind expected", 0, "run clean"),
    ("fault plan, its kind omitted", 1,
     "run FAILED: unexpected anomaly kind(s): throughput_collapse\n"),
    ("an expected kind that never fired", 1,
     "run FAILED: expected anomaly kind(s) not detected: retry_storm\n"),
    ("retries exhausted without a plan", 1,
     "3 retry budget(s) exhausted with no fault plan"),
    ("warn-only", 0, "3 retry budget(s) exhausted with no fault plan"),
])
def test_run_exit_code_is_one_rule(case, code, said, request, tmp_path):
    if case == "drop":
        run = request.getfixturevalue("drop_bundle")
    elif case.startswith("churn plan"):
        run = request.getfixturevalue("churn_bundle")
    elif case.startswith("fault plan"):
        expected, omitted = request.getfixturevalue("flap_bundles")
        run = omitted if "omitted" in case else expected
    else:
        run = run_bundle({
            "honest": SMALL_SESSION,
            "an expected kind that never fired":
                SMALL_SESSION + ["--expect-anomaly", "retry_storm"],
            "retries exhausted without a plan": EXHAUSTED,
            "warn-only": EXHAUSTED + ["--warn-only"],
        }[case], tmp_path)
    assert run.code == code
    assert said in run.out


@pytest.fixture(scope="module")
def verifiable_bundles(tmp_path_factory):
    """One small verifiable session run twice: its commitments' events
    carry simulated seconds, so nothing host-timed reaches the bundle."""
    return [run_bundle(SMALL_SESSION + ["--verifiable"],
                       tmp_path_factory.mktemp("verifiable"))
            for _ in range(2)]


@pytest.mark.parametrize("pair, expected_incidents", [
    ("flap_bundles", ["incident-00-i0-anomaly_detected.json"]),
    ("verifiable_bundles", []),
], ids=["flap", "verifiable"])
def test_run_replay_is_byte_identical(request, pair, expected_incidents):
    """The determinism check: everything in a bundle but the report's
    host-profile table and ``profile.json`` is a pure function of seed +
    configuration."""
    first, second = (run.path for run in request.getfixturevalue(pair))
    for name in ("manifest.json", "trace.jsonl", "timeline.perfetto.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    incidents = sorted(p.name for p in (first / "incidents").iterdir())
    assert incidents == sorted(
        p.name for p in (second / "incidents").iterdir())
    assert incidents == expected_incidents
    for name in incidents:
        assert (first / "incidents" / name).read_bytes() == \
            (second / "incidents" / name).read_bytes()


def test_run_failing_mid_round_exits_1_and_every_file_parses(
        tmp_path, monkeypatch):
    import json
    from repro.core import FLSession
    from repro.obs import HostProfile, RunManifest
    from repro.obs.events import IterationStarted

    def exploding_run(self, rounds):
        self.sim.bus.publish(IterationStarted(at=0.0, iteration=0))
        raise RuntimeError("mid-round crash")

    monkeypatch.setattr(FLSession, "run", exploding_run)
    run = run_bundle(SMALL_SESSION, tmp_path)
    assert run.code == 1
    assert "run failed" in run.err and "mid-round crash" in run.err
    assert "run FAILED: the run raised RuntimeError" in run.out
    assert RunManifest.load(tmp_path / "manifest.json").fingerprint["digest"]
    assert HostProfile.load(tmp_path / "profile.json").dispatches == 0
    assert json.loads((tmp_path / "timeline.perfetto.json").read_text())
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    assert (tmp_path / "report.txt").read_text() == run.out
    assert (tmp_path / "incidents").is_dir()


# -- the watchdog is always attached -------------------------------------------


CLEAN_RUN = ["--rounds", "1", "--trainers", "4", "--params", "2000"]


def test_chaos_expect_anomaly_implies_watch_and_fails_when_absent(
        tmp_path):
    # A clean run cannot produce a retry storm, so the expectation fails.
    run = run_bundle(CLEAN_RUN + ["--expect-anomaly", "retry_storm"],
                     tmp_path)
    assert run.code == 1
    assert "expected anomaly kind(s) not detected: retry_storm" in run.out
    assert "watchdog: no anomalies" in run.out


def test_chaos_forbid_anomalies_passes_on_a_clean_run(tmp_path):
    # Any anomaly nobody expected fails a run; a clean one has none.
    run = run_bundle(CLEAN_RUN, tmp_path)
    assert run.code == 0
    assert "watchdog: no anomalies" in run.out
    assert "run clean" in run.out


def test_expect_anomaly_rejects_an_unknown_kind(capsys):
    # A typo, and a kind the watchdog no longer has.
    for kind in ("retry_strom", "sim_stall"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--artifacts", "x", "--expect-anomaly", kind])
        assert "invalid choice" in capsys.readouterr().err


# -- the host profile ----------------------------------------------------------


PROFILED = [
    "--trainers", "4", "--rounds", "1", "--partitions", "2",
    "--ipfs-nodes", "4", "--params", "2000", "--verifiable",
]


def test_profile_prints_the_hotspot_report(tmp_path):
    run = run_bundle(PROFILED, tmp_path)
    assert run.code == 0
    assert "host-cost profile:" in run.out
    assert "sim-s/wall-s" in run.out
    assert "shares:" in run.out
    assert "crypto" in run.out


def test_profile_writes_artifacts_and_shares_sum_to_one(tmp_path):
    import json

    assert run_bundle(PROFILED, tmp_path).code == 0
    data = json.loads((tmp_path / "profile.json").read_text())
    assert data["version"] == 2
    assert sum(data["shares"].values()) == pytest.approx(1.0)
    assert "obs" in data["shares"]  # the observer stack is priced too
    assert "kernel" not in data["shares"]
    assert data["dispatches"] > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert data["fingerprint"] == manifest["fingerprint"]
