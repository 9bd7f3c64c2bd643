"""Tests for differential run diagnosis (``python -m repro.cli explain``)."""

import json

import pytest

from repro.analysis import diagnose_runs
from repro.analysis.diagnose import Attribution, DiagnosisReport
from repro.cli import main
from repro.obs import HostProfile, RunManifest
from repro.obs.profiling import ScopeStat


def scope(subsystem, self_seconds, phase="core", actor="step"):
    return ScopeStat(subsystem=subsystem, phase=phase, actor=actor,
                     calls=100, self_seconds=self_seconds,
                     total_seconds=self_seconds)


def fast_profile():
    return HostProfile(
        fingerprint={"digest": "abc", "trainers": 4},
        wall_seconds=2.0, sim_seconds=1200.0, dispatches=1000,
        scopes=(scope("sim", 0.5), scope("net", 0.4)),
    )


def slow_profile():
    # net blew up 0.4s -> 3.4s; sim barely moved.
    return HostProfile(
        fingerprint={"digest": "abc", "trainers": 4},
        wall_seconds=5.0, sim_seconds=1200.0, dispatches=1000,
        scopes=(scope("net", 3.4), scope("sim", 0.6)),
    )


def manifest(counters=None, gauges=None, fingerprint=None):
    return RunManifest(
        fingerprint=fingerprint or {"digest": "abc", "trainers": 4},
        counters=dict(counters or {}), gauges=dict(gauges or {}),
    )


# -- diagnose_runs ---------------------------------------------------------------
#
# A test about the manifests alone passes an identical profile pair (every
# shift zero, so nothing to attribute), and one about the profiles alone
# an identical manifest pair.


def test_profile_pair_names_the_regressing_subsystem():
    report = diagnose_runs(manifest(), manifest(), fast_profile(),
                           slow_profile())
    top = report.attributions[0]
    assert top.kind == "subsystem"
    assert top.subject == "net"
    assert top.magnitude == pytest.approx(3.0)
    assert "+750%" in top.detail
    assert report.slowdown == pytest.approx(2.5)
    # Shifts are sorted by grown self-seconds, worst first.
    assert [s.subsystem for s in report.subsystem_shifts[:2]] \
        == ["net", "sim"]


def test_anomaly_differential_is_attributed_by_kind():
    base = manifest(counters={"obs.anomaly.detected": 0.0})
    current = manifest(counters={
        "obs.anomaly.detected": 3.0,
        "obs.anomaly.detected.retry_storm": 2.0,
        "obs.anomaly.detected.throughput_collapse": 1.0,
    })
    report = diagnose_runs(base, current, fast_profile(), fast_profile())
    assert report.anomalies_base == {}
    assert report.anomalies_current == {"retry_storm": 2,
                                         "throughput_collapse": 1}
    anomaly_attrs = [a for a in report.attributions
                     if a.kind == "anomaly"]
    assert [a.subject for a in anomaly_attrs] \
        == ["retry_storm", "throughput_collapse"]  # by count delta
    assert "fired 2x in current run only" in anomaly_attrs[0].detail


def test_config_drift_flags_fingerprint_mismatch():
    base = manifest(fingerprint={"digest": "abc", "trainers": 4})
    current = manifest(fingerprint={"digest": "xyz", "trainers": 8})
    report = diagnose_runs(base, current, fast_profile(), fast_profile())
    assert not report.fingerprint_matches
    assert report.config_changes == {"trainers": (4, 8)}
    assert any(a.kind == "config" and a.subject == "trainers"
               for a in report.attributions)
    assert "WARNING: different config fingerprints" in report.format()
    # The ignored digest key never shows up as a config change.
    assert "digest" not in report.config_changes


def test_metric_regressions_rank_in_the_attribution_list():
    base = manifest(counters={"net.transfers_aborted": 2.0,
                              "dht.lookups": 100.0})
    current = manifest(counters={"net.transfers_aborted": 10.0,
                                 "dht.lookups": 101.0})
    report = diagnose_runs(base, current, fast_profile(), fast_profile())
    metric_attrs = [a for a in report.attributions if a.kind == "metric"]
    assert [a.subject for a in metric_attrs] == ["net.transfers_aborted"]
    assert metric_attrs[0].magnitude == pytest.approx(4.0)
    assert report.metrics.unchanged == 1  # dht.lookups within threshold


def test_fused_report_ranks_subsystems_before_anomalies_and_metrics():
    base = manifest(counters={"x": 1.0})
    current = manifest(counters={
        "x": 5.0, "obs.anomaly.detected.throughput_collapse": 1.0})
    report = diagnose_runs(
        base_manifest=base, current_manifest=current,
        base_profile=fast_profile(), current_profile=slow_profile())
    kinds = [a.kind for a in report.attributions]
    assert kinds.index("subsystem") < kinds.index("anomaly") \
        < kinds.index("metric")


def test_identical_runs_have_nothing_to_attribute():
    report = diagnose_runs(manifest(counters={"x": 1.0}),
                           manifest(counters={"x": 1.0}),
                           fast_profile(), fast_profile())
    assert report.attributions == []
    assert "no differences worth attributing" in report.format()


def test_report_to_dict_is_json_serializable():
    report = diagnose_runs(
        base_manifest=manifest(counters={"x": 1.0}),
        current_manifest=manifest(
            counters={"x": 9.0, "obs.anomaly.detected.retry_storm": 1.0}),
        base_profile=fast_profile(), current_profile=slow_profile())
    payload = json.loads(json.dumps(report.to_dict(), default=str))
    assert payload["slowdown"] == pytest.approx(2.5)
    assert payload["anomalies"]["current"] == {"retry_storm": 1}
    assert payload["attributions"][0]["subject"] == "net"
    assert payload["metrics"]["regressions"]


def test_top_attribution_of_empty_report_is_none():
    assert DiagnosisReport().attributions == []
    assert Attribution("net", "subsystem", "grew").to_dict()["kind"] \
        == "subsystem"


# -- the explain CLI -------------------------------------------------------------


def write_bundle(directory, run_manifest, profile):
    """The two files of a run bundle that ``explain`` reads."""
    directory.mkdir()
    run_manifest.write(directory / "manifest.json")
    profile.write(directory / "profile.json")
    return str(directory)


def test_explain_cli_names_the_regressing_subsystem(tmp_path, capsys):
    base = write_bundle(tmp_path / "base", manifest(), fast_profile())
    current = write_bundle(tmp_path / "current", manifest(),
                           slow_profile())
    assert main(["explain", base, current]) == 0
    out = capsys.readouterr().out
    assert "attribution (most suspicious first)" in out
    assert "1. [subsystem] net:" in out
    assert "wall clock: 2.50x base" in out


def test_explain_cli_json_output_round_trips(tmp_path, capsys):
    base = write_bundle(tmp_path / "base", manifest(counters={"x": 1.0}),
                        fast_profile())
    current = write_bundle(tmp_path / "current", manifest(counters={
        "x": 1.0, "obs.anomaly.detected.retry_storm": 2.0,
    }), fast_profile())
    assert main(["explain", base, current, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fingerprint_matches"] is True
    assert payload["attributions"][0]["subject"] == "retry_storm"


def test_explain_cli_mixes_manifests_with_profile_flags(tmp_path, capsys):
    """One bundle per side carries both artifacts (there are no
    per-artifact flags any more): the manifest pair and the profile
    pair land in one ranked report."""
    base = write_bundle(tmp_path / "base", manifest(counters={"x": 1.0}),
                        fast_profile())
    current = write_bundle(tmp_path / "current", manifest(counters={
        "x": 2.0}), slow_profile())
    assert main(["explain", base, current]) == 0
    out = capsys.readouterr().out
    assert "[subsystem] net:" in out
    assert "[metric] x:" in out
    assert out.index("[subsystem] net:") < out.index("[metric] x:")


def test_explain_cli_rejects_manifest_as_profile_flag(tmp_path, capsys):
    """A bundle whose ``profile.json`` is not a HostProfile (here: a
    manifest) is refused, not diffed."""
    base = write_bundle(tmp_path / "base", manifest(), fast_profile())
    current = write_bundle(tmp_path / "current", manifest(),
                           fast_profile())
    manifest().write(tmp_path / "current" / "profile.json")
    assert main(["explain", base, current]) == 1
    assert "explain: unsupported profile version" in \
        capsys.readouterr().err


def test_explain_cli_fails_cleanly_on_missing_file(tmp_path, capsys):
    assert main(["explain", str(tmp_path / "nope"),
                 str(tmp_path / "nope2")]) == 1
    assert "explain:" in capsys.readouterr().err
    # A directory that holds something other than a bundle, likewise.
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "manifest.json").write_text("[1, 2, 3")
    assert main(["explain", str(tmp_path / "junk"),
                 str(tmp_path / "junk")]) == 1
    assert "explain:" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("manifest.json", "[1, 2]"),
    ("profile.json", '"x"'),
])
def test_explain_cli_refuses_a_non_object_bundle_file(tmp_path, capsys,
                                                      name, content):
    """A bundle file holding valid JSON that is not an object is one
    ``explain:`` line and exit 1, not a traceback."""
    base = write_bundle(tmp_path / "base", manifest(), fast_profile())
    current = write_bundle(tmp_path / "current", manifest(),
                           fast_profile())
    (tmp_path / "current" / name).write_text(content)
    assert main(["explain", base, current]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("explain: ")
    assert captured.err.count("\n") == 1


def test_explain_churn_vs_control_names_the_anomaly_kinds(
        churn_bundle, tmp_path, capsys):
    """The CI chaos job's diagnosis: the control run against the churn
    run, both read as bundle directories."""
    from tests.util import run_bundle

    control = run_bundle(["--rounds", "2", "--request-timeout", "5"],
                         tmp_path / "control")
    assert control.code == 0
    churn = churn_bundle
    assert main(["explain", str(control.path), str(churn.path),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["anomalies"] == {
        "base": {}, "current": {"retry_storm": 1, "throughput_collapse": 1}}
    blamed = {a["subject"] for a in report["attributions"]
              if a["kind"] == "anomaly"}
    assert blamed == {"retry_storm", "throughput_collapse"}
    assert report["subsystem_shifts"]  # profile.json was read too
    assert not report["fingerprint_matches"]
