"""Differential run diagnosis: *why* is run B worse than run A?

:func:`repro.obs.manifest.compare_manifests` answers *whether* metrics
moved; this module answers *what to blame*.  Given two runs' artifacts
— the :class:`~repro.obs.manifest.RunManifest` and
:class:`~repro.obs.profiling.HostProfile` of each run bundle —
:func:`diagnose_runs` builds a :class:`DiagnosisReport` that fuses four
signals into one ranked attribution list:

1. **Subsystem shifts** (profiles): per-subsystem attributed
   self-seconds and share deltas; a subsystem whose wall cost grew is
   the strongest causal lead, so these rank first.
2. **Anomaly differentials** (manifests): ``obs.anomaly.detected.*``
   counters — an anomaly kind that fired in one run but not the other
   names the degradation in watchdog vocabulary.
3. **Metric regressions** (manifests): the ordinary manifest diff,
   worst relative change first.
4. **Config drift** (manifest fingerprints): keys whose values differ,
   flagged loudly when the digests differ — an apples-to-oranges
   comparison should say so before anything else is believed.

Exposed as ``python -m repro.cli explain A B [--json]`` over two
``run --artifacts`` bundle directories; the report schema is documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.manifest import ManifestDiff, RunManifest, compare_manifests
from ..obs.profiling import HostProfile

__all__ = [
    "Attribution",
    "DiagnosisReport",
    "SubsystemShift",
    "diagnose_runs",
]

#: Counter prefix the watchdog's per-kind detections land under.
_ANOMALY_PREFIX = "obs.anomaly.detected."

#: Fingerprint keys that never explain a regression.
_FINGERPRINT_IGNORED = ("digest",)

#: Metric regressions reported in the attribution ranking (the full
#: list stays available on :attr:`DiagnosisReport.metrics`).
_TOP_METRICS = 5


@dataclass(frozen=True)
class Attribution:
    """One ranked finding: a subject and why it is suspected."""

    #: What is blamed: a subsystem name, an anomaly kind, a metric
    #: name, or a config key.
    subject: str
    #: "subsystem" | "anomaly" | "metric" | "config".
    kind: str
    #: Human-readable evidence sentence.
    detail: str
    #: Sort key within the finding's kind (bigger = more suspicious):
    #: grown self-seconds, anomaly-count delta, or relative change.
    magnitude: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SubsystemShift:
    """One subsystem's attributed-cost movement between two profiles."""

    subsystem: str
    base_seconds: float
    current_seconds: float
    base_share: float
    current_share: float

    @property
    def delta_seconds(self) -> float:
        return self.current_seconds - self.base_seconds

    @property
    def delta_share(self) -> float:
        return self.current_share - self.base_share

    def to_dict(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        record["delta_seconds"] = self.delta_seconds
        record["delta_share"] = self.delta_share
        return record


@dataclass
class DiagnosisReport:
    """Everything :func:`diagnose_runs` concluded, ranked."""

    #: False when the manifests describe different scenarios.
    fingerprint_matches: bool = True
    #: Config key -> (base value, current value), differing keys only.
    config_changes: Dict[str, Tuple[Any, Any]] = field(
        default_factory=dict)
    #: The plain manifest diff (None without both manifests).
    metrics: Optional[ManifestDiff] = None
    #: Anomaly kind -> detection count, per side.
    anomalies_base: Dict[str, int] = field(default_factory=dict)
    anomalies_current: Dict[str, int] = field(default_factory=dict)
    #: Per-subsystem profile movement (empty without both profiles).
    subsystem_shifts: List[SubsystemShift] = field(default_factory=list)
    #: Wall-clock ratio current/base (None without both profiles).
    slowdown: Optional[float] = None
    #: Ranked findings, most suspicious first.
    attributions: List[Attribution] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        metrics = None
        if self.metrics is not None:
            metrics = {
                "regressions": [dataclasses.asdict(e)
                                for e in self.metrics.regressions],
                "improvements": [dataclasses.asdict(e)
                                 for e in self.metrics.improvements],
                "unchanged": self.metrics.unchanged,
                "added": list(self.metrics.added),
                "removed": list(self.metrics.removed),
            }
        return {
            "fingerprint_matches": self.fingerprint_matches,
            "config_changes": {
                key: {"base": base, "current": current}
                for key, (base, current) in self.config_changes.items()
            },
            "metrics": metrics,
            "anomalies": {
                "base": dict(self.anomalies_base),
                "current": dict(self.anomalies_current),
            },
            "subsystem_shifts": [shift.to_dict()
                                 for shift in self.subsystem_shifts],
            "slowdown": self.slowdown,
            "attributions": [a.to_dict() for a in self.attributions],
        }

    def format(self) -> str:
        """The human-readable report."""
        lines: List[str] = []
        if not self.fingerprint_matches:
            lines.append(
                "WARNING: different config fingerprints — the runs are "
                "not the same scenario; config drift is listed below")
        if self.config_changes:
            lines.append("config changes:")
            for key, (base, current) in sorted(
                    self.config_changes.items()):
                lines.append(f"  {key}: {base!r} -> {current!r}")
        if self.slowdown is not None:
            lines.append(f"wall clock: {self.slowdown:.2f}x base")
        if self.subsystem_shifts:
            lines.append("subsystem shifts (attributed self-seconds):")
            for shift in self.subsystem_shifts:
                lines.append(
                    f"  {shift.subsystem}: "
                    f"{shift.base_seconds:.3f}s -> "
                    f"{shift.current_seconds:.3f}s "
                    f"(share {shift.base_share * 100:.1f}% -> "
                    f"{shift.current_share * 100:.1f}%)")
        if self.anomalies_base or self.anomalies_current:
            lines.append("anomalies (base -> current):")
            for kind in sorted(set(self.anomalies_base)
                               | set(self.anomalies_current)):
                lines.append(
                    f"  {kind}: {self.anomalies_base.get(kind, 0)} -> "
                    f"{self.anomalies_current.get(kind, 0)}")
        if self.metrics is not None:
            lines.append(
                f"metrics: {len(self.metrics.regressions)} "
                f"regression(s), {len(self.metrics.improvements)} "
                f"improvement(s), {self.metrics.unchanged} within "
                "threshold")
        if self.attributions:
            lines.append("attribution (most suspicious first):")
            for rank, attribution in enumerate(self.attributions, 1):
                lines.append(f"  {rank}. [{attribution.kind}] "
                             f"{attribution.subject}: "
                             f"{attribution.detail}")
        else:
            lines.append("no differences worth attributing")
        return "\n".join(lines)


def _anomaly_counts(manifest: Optional[RunManifest]) -> Dict[str, int]:
    if manifest is None:
        return {}
    return {
        name[len(_ANOMALY_PREFIX):]: int(value)
        for name, value in manifest.counters.items()
        if name.startswith(_ANOMALY_PREFIX)
    }


def _config_changes(base: RunManifest, current: RunManifest,
                    ) -> Dict[str, Tuple[Any, Any]]:
    changes: Dict[str, Tuple[Any, Any]] = {}
    keys = set(base.fingerprint) | set(current.fingerprint)
    for key in sorted(keys):
        if key in _FINGERPRINT_IGNORED:
            continue
        before = base.fingerprint.get(key)
        after = current.fingerprint.get(key)
        if before != after:
            changes[key] = (before, after)
    return changes


def _subsystem_shifts(base: HostProfile, current: HostProfile,
                      ) -> List[SubsystemShift]:
    base_seconds = base.subsystem_seconds()
    current_seconds = current.subsystem_seconds()
    base_shares = base.shares()
    current_shares = current.shares()
    shifts = [
        SubsystemShift(
            subsystem=subsystem,
            base_seconds=base_seconds.get(subsystem, 0.0),
            current_seconds=current_seconds.get(subsystem, 0.0),
            base_share=base_shares.get(subsystem, 0.0),
            current_share=current_shares.get(subsystem, 0.0),
        )
        for subsystem in sorted(set(base_seconds) | set(current_seconds))
    ]
    shifts.sort(key=lambda s: -s.delta_seconds)
    return shifts


def diagnose_runs(
    base_manifest: Optional[RunManifest] = None,
    current_manifest: Optional[RunManifest] = None,
    base_profile: Optional[HostProfile] = None,
    current_profile: Optional[HostProfile] = None,
    threshold: float = 0.10,
) -> DiagnosisReport:
    """Build the differential diagnosis from whatever artifacts exist.

    Any subset of artifacts works — each signal degrades independently
    to absent — but at least one *pair* (both manifests, or both
    profiles) is required for a differential.
    """
    have_manifests = (base_manifest is not None
                      and current_manifest is not None)
    have_profiles = (base_profile is not None
                     and current_profile is not None)
    if not have_manifests and not have_profiles:
        raise ValueError(
            "diagnosis needs two manifests or two profiles")

    report = DiagnosisReport()
    attributions: List[Attribution] = []

    if have_profiles:
        report.subsystem_shifts = _subsystem_shifts(
            base_profile, current_profile)
        if base_profile.wall_seconds > 0:
            report.slowdown = (current_profile.wall_seconds
                               / base_profile.wall_seconds)
        for shift in report.subsystem_shifts:
            if shift.delta_seconds <= 0:
                continue
            growth = (shift.delta_seconds / shift.base_seconds * 100.0
                      if shift.base_seconds > 0 else float("inf"))
            growth_text = ("new" if growth == float("inf")
                           else f"+{growth:.0f}%")
            attributions.append(Attribution(
                subject=shift.subsystem, kind="subsystem",
                magnitude=shift.delta_seconds,
                detail=(
                    f"self time {shift.base_seconds:.3f}s -> "
                    f"{shift.current_seconds:.3f}s ({growth_text}), "
                    f"share {shift.base_share * 100:.1f}% -> "
                    f"{shift.current_share * 100:.1f}%"),
            ))

    if have_manifests:
        report.metrics = compare_manifests(
            base_manifest, current_manifest, threshold=threshold)
        report.fingerprint_matches = report.metrics.fingerprint_matches
        report.config_changes = _config_changes(
            base_manifest, current_manifest)
        report.anomalies_base = _anomaly_counts(base_manifest)
        report.anomalies_current = _anomaly_counts(current_manifest)
        anomaly_kinds = sorted(set(report.anomalies_base)
                               | set(report.anomalies_current))
        anomaly_attributions = []
        for kind in anomaly_kinds:
            before = report.anomalies_base.get(kind, 0)
            after = report.anomalies_current.get(kind, 0)
            if after == before:
                continue
            if after > before and before == 0:
                detail = (f"fired {after}x in current run only")
            elif after > before:
                detail = f"detections grew {before} -> {after}"
            else:
                detail = (f"fired {before}x in base run only"
                          if after == 0 else
                          f"detections fell {before} -> {after}")
            anomaly_attributions.append(Attribution(
                subject=kind, kind="anomaly",
                magnitude=abs(after - before), detail=detail,
            ))
        anomaly_attributions.sort(key=lambda a: -a.magnitude)
        attributions.extend(anomaly_attributions)
        for entry in report.metrics.regressions[:_TOP_METRICS]:
            change = entry.relative_change
            attributions.append(Attribution(
                subject=entry.metric, kind="metric", magnitude=change,
                detail=(
                    f"{entry.base:g} -> {entry.current:g} "
                    + ("(new nonzero)" if change == float("inf")
                       else f"({change * 100:+.1f}%)")),
            ))
        for key, (before, after) in report.config_changes.items():
            attributions.append(Attribution(
                subject=key, kind="config", magnitude=0.0,
                detail=f"{before!r} -> {after!r}",
            ))

    report.attributions = attributions
    return report
