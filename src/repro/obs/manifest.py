"""The run manifest: one JSON artifact describing a run's shape.

A :class:`RunManifest` is the durable, diffable record every perf PR
needs: the configuration fingerprint (so two manifests are only
compared when they describe the same scenario), the counters, the
histogram summaries (count/sum/min/max/mean and exact p50/p95/p99) and
the resource-series digests.  ``python -m repro.cli run`` writes one
per run (``manifest.json``); :func:`compare_manifests` diffs two with
per-metric relative-change thresholds, which ``cli explain`` ranks.

The manifest stores *summaries*, not raw events — the JSONL trace is
the raw record; this is the comparable one.  Nothing in it depends on
wall-clock time, so manifests from the same scenario are bit-identical
across machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

from .metrics import MetricsRegistry

MANIFEST_VERSION = 1


def config_fingerprint(config, **extra: Any) -> Dict[str, Any]:
    """A stable description + digest of a (dataclass) configuration.

    ``extra`` carries deployment shape the config does not know
    (trainer count, node count, bandwidth).  The ``digest`` key is a
    SHA-256 over the canonical JSON of everything else, so equality of
    digests means "same scenario".
    """
    if dataclasses.is_dataclass(config):
        described = dataclasses.asdict(config)
    else:
        described = dict(config)
    described.update(extra)
    canonical = json.dumps(described, sort_keys=True, default=str)
    described["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    return described


@dataclass
class RunManifest:
    """Counters, histogram summaries and series digests of one run."""

    fingerprint: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def collect(cls, registry: MetricsRegistry,
                fingerprint: Optional[Dict[str, Any]] = None,
                ) -> "RunManifest":
        """Snapshot ``registry`` into a manifest.

        Folds the registry's self-accounting in as gauges
        (``obs.telemetry.bytes`` / ``obs.telemetry.peak_bytes`` /
        ``obs.events.observed``) so the manifest diff sees
        observability-cost regressions alongside protocol metrics.  All three are
        deterministic functions of the event stream and the memory
        model, never of wall-clock time, so manifest byte-identity
        across replays is preserved.
        """
        gauges = dict(sorted(registry.counters.gauges().items()))
        gauges["obs.telemetry.bytes"] = float(registry.telemetry_bytes())
        gauges["obs.telemetry.peak_bytes"] = \
            float(registry.peak_telemetry_bytes)
        gauges["obs.events.observed"] = float(registry.events_observed)
        return cls(
            fingerprint=dict(fingerprint or {}),
            counters=dict(sorted(registry.counters.counters().items())),
            gauges=gauges,
            histograms={
                name: histogram.summary()
                for name, histogram in sorted(registry.histograms().items())
                if histogram.count
            },
            series={
                series.key(): series.digest()
                for series in registry.series()
            },
        )

    # -- (de)serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True, default=str) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a run manifest is a JSON object, not "
                             f"{type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in raw.items() if k in known})

    def write(self, destination: Union[str, "os.PathLike[str]", IO[str]],
              ) -> None:
        if hasattr(destination, "write"):
            destination.write(self.to_json())
        else:
            with open(os.fspath(destination), "w", encoding="utf-8") as f:
                f.write(self.to_json())

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "RunManifest":
        with open(os.fspath(path), encoding="utf-8") as f:
            return cls.from_json(f.read())

    # -- flattening for comparison -----------------------------------------------

    #: Which summary statistics of each artifact family are compared.
    _HISTOGRAM_STATS = ("mean", "p95")
    _SERIES_STATS = ("mean", "max")

    def comparable_metrics(self) -> Dict[str, float]:
        """A flat ``metric -> value`` view used by :func:`compare_manifests`."""
        flat: Dict[str, float] = dict(self.counters)
        flat.update(self.gauges)
        for name, summary in self.histograms.items():
            for stat in self._HISTOGRAM_STATS:
                if stat in summary:
                    flat[f"{name}.{stat}"] = summary[stat]
        for name, digest in self.series.items():
            for stat in self._SERIES_STATS:
                if stat in digest:
                    flat[f"{name}.{stat}"] = digest[stat]
        return flat


@dataclass(frozen=True)
class DiffEntry:
    """One compared metric."""

    metric: str
    base: float
    current: float
    threshold: float

    @property
    def relative_change(self) -> float:
        if self.base == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return (self.current - self.base) / abs(self.base)


@dataclass
class ManifestDiff:
    """The outcome of comparing two manifests.

    Higher is treated as worse for every metric: the manifest tracks
    delays, sizes, loads and storage, where growth is the
    regression direction.  A change below ``-threshold`` is reported as
    an improvement but never fails the comparison.
    """

    regressions: List[DiffEntry] = field(default_factory=list)
    improvements: List[DiffEntry] = field(default_factory=list)
    unchanged: int = 0
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    fingerprint_matches: bool = True

    def format(self) -> str:
        from ..analysis import format_table

        rows = []
        for verdict, entries in (("REGRESSION", self.regressions),
                                 ("improvement", self.improvements)):
            for entry in entries:
                change = entry.relative_change
                rows.append([
                    entry.metric, entry.base, entry.current,
                    "inf" if change == float("inf")
                    else f"{change * 100:+.1f}%",
                    verdict,
                ])
        lines = []
        if not self.fingerprint_matches:
            lines.append("WARNING: manifests have different config "
                         "fingerprints; the comparison may be "
                         "apples-to-oranges")
        if rows:
            lines.append(format_table(
                ["metric", "base", "current", "change", "verdict"], rows,
            ))
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{self.unchanged} within threshold, "
            f"{len(self.added)} added, {len(self.removed)} removed"
        )
        return "\n".join(lines)


def compare_manifests(
    base: RunManifest,
    current: RunManifest,
    threshold: float = 0.10,
) -> ManifestDiff:
    """Diff two manifests metric by metric.

    ``threshold`` is the relative-change tolerance of every metric.
    Metrics present in only one manifest are listed as added/removed,
    never as regressions.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    base_metrics = base.comparable_metrics()
    current_metrics = current.comparable_metrics()
    diff = ManifestDiff(
        added=sorted(set(current_metrics) - set(base_metrics)),
        removed=sorted(set(base_metrics) - set(current_metrics)),
        fingerprint_matches=(
            base.fingerprint.get("digest") == current.fingerprint.get("digest")
        ),
    )
    for metric in sorted(set(base_metrics) & set(current_metrics)):
        entry = DiffEntry(metric=metric, base=base_metrics[metric],
                          current=current_metrics[metric],
                          threshold=threshold)
        change = entry.relative_change
        if change > threshold:
            diff.regressions.append(entry)
        elif change < -threshold:
            diff.improvements.append(entry)
        else:
            diff.unchanged += 1
    diff.regressions.sort(key=lambda e: -e.relative_change)
    diff.improvements.sort(key=lambda e: e.relative_change)
    return diff
