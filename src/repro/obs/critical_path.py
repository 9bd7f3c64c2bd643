"""Critical-path decomposition of the per-iteration aggregation delay.

The paper's delay figures (Figs. 1-2) sum phase totals; this module
walks one iteration's :class:`~repro.obs.spans.SpanTree` *backwards*
from the last global-update registration to the upload wave that bounded
it, producing the slowest causal chain:

    upload -> gradient registration -> collect (wait / download /
    aggregate) -> sync -> publish_update

Each :class:`CriticalStep` is a contiguous segment of that chain, so the
step durations telescope: their sum equals the path length exactly, and
the ``collect.download`` segment is directly comparable to the
closed forms in :mod:`repro.analysis.delays` (the golden test pins them
float-equal on the Fig. 1 configuration).

:class:`StragglerReport` ranks every trainer, content provider and
aggregator by *slack* — how long before the phase's last finisher it
finished.  Slack 0 is the straggler that bounded the phase; anything
within ``threshold`` sim-seconds of it is flagged as near-critical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from .spans import Span, SpanTree


@dataclass(frozen=True)
class CriticalStep:
    """One contiguous segment of the critical chain."""

    name: str
    node: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The slowest causal chain of one iteration.

    Steps are contiguous (each starts where the previous ended), so
    ``sum(step.duration) == length``.
    """

    iteration: int
    steps: List[CriticalStep] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.steps[0].start

    @property
    def end(self) -> float:
        return self.steps[-1].end

    @property
    def length(self) -> float:
        return self.end - self.start

    def segment(self, name: str) -> Optional[CriticalStep]:
        """The first step with this name, if it is on the path."""
        for step in self.steps:
            if step.name == name:
                return step
        return None

    def format(self) -> str:
        """A human-readable table of the chain."""
        lines = [
            f"iteration {self.iteration} critical path "
            f"({self.length:.3f} s):"
        ]
        for step in self.steps:
            lines.append(
                f"  {step.name:<18} {step.node:<14} "
                f"{step.start:>10.3f} -> {step.end:>10.3f}  "
                f"(+{step.duration:.3f} s)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class StragglerEntry:
    """One participant's finishing position within its phase."""

    name: str
    role: str  # "trainer" | "provider" | "aggregator"
    finished_at: float
    slack: float
    is_straggler: bool


@dataclass(frozen=True)
class StragglerReport:
    """Per-role slack ranking for one iteration.

    Entries are sorted by slack ascending: the phase-bounding
    participant (slack 0) first.
    """

    iteration: int
    threshold: float
    entries: List[StragglerEntry] = field(default_factory=list)

    @property
    def stragglers(self) -> List[StragglerEntry]:
        return [entry for entry in self.entries if entry.is_straggler]

    def format(self) -> str:
        lines = [
            f"iteration {self.iteration} stragglers "
            f"(threshold {self.threshold:.3f} s):"
        ]
        for entry in self.entries:
            marker = " <-- straggler" if entry.is_straggler else ""
            lines.append(
                f"  {entry.role:<10} {entry.name:<14} "
                f"finished {entry.finished_at:>10.3f}  "
                f"slack {entry.slack:>8.3f}{marker}"
            )
        return "\n".join(lines)


class CriticalPathAnalyzer:
    """Derives critical paths and straggler rankings from span trees.

    ``source`` is a single :class:`SpanTree` or a mapping
    ``iteration -> SpanTree`` (:func:`~repro.obs.spans.span_trees`).
    Analysis is read-only and repeatable.
    """

    def __init__(self, source: Union[SpanTree, Mapping[int, SpanTree]]):
        self._trees = ({source.iteration: source}
                       if isinstance(source, SpanTree) else source)

    def tree(self, iteration: int) -> Optional[SpanTree]:
        return self._trees.get(iteration)

    def iterations(self) -> List[int]:
        return sorted(self._trees)

    # -- critical path -----------------------------------------------------

    def analyze(self, iteration: int) -> Optional[CriticalPath]:
        """The slowest causal chain of ``iteration`` (None if the round
        left no aggregation spans)."""
        tree = self.tree(iteration)
        if tree is None:
            return None

        sink = self._sink(tree)
        if sink is None:
            return None
        aggregator = sink.node
        collect = self._collect_of(tree, aggregator)

        steps: List[CriticalStep] = []
        cursor: Optional[float] = None

        register = self._binding_register(tree, collect)
        if register is not None:
            upload = register.parent
            if upload is not None and upload.name == "upload":
                steps.append(CriticalStep(
                    "upload", upload.node, upload.start, register.end
                ))
            cursor = register.end
        elif collect is not None:
            cursor = collect.start

        if collect is not None:
            cursor = self._expand_collect(steps, collect, cursor)

        sync = self._sync_of(tree, aggregator)
        if sync is not None and cursor is not None and sync.end > cursor:
            steps.append(CriticalStep("sync", aggregator, cursor, sync.end))
            cursor = sync.end

        if sink.name == "publish_update":
            start = sink.start if cursor is None else cursor
            if sink.end > start:
                steps.append(CriticalStep(
                    "publish_update", aggregator, start, sink.end
                ))

        if not steps:
            return None
        return CriticalPath(iteration=iteration, steps=steps)

    # -- stragglers --------------------------------------------------------

    def straggler_report(self, iteration: int,
                         threshold: float = 0.0
                         ) -> Optional[StragglerReport]:
        """Slack ranking of trainers, providers and aggregators.

        ``threshold`` is in simulated seconds: a participant is flagged
        when it finished within ``threshold`` of its phase's last
        finisher (the bounding participant always has slack 0).
        """
        tree = self.tree(iteration)
        if tree is None:
            return None
        entries: List[StragglerEntry] = []
        entries += self._rank(
            "trainer",
            self._last_by(tree.named("register"),
                          key=lambda span: span.node),
            threshold,
        )
        # Providers are ranked by the gradient fetches they served (the
        # collection phase); update downloads to trainers are excluded.
        collect_fetches = [
            span for span in tree.named("fetch")
            if span.parent is not None and span.parent.name == "collect"
        ]
        entries += self._rank(
            "provider",
            self._last_by(collect_fetches,
                          key=lambda span: str(span.meta.get("provider"))),
            threshold,
        )
        entries += self._rank(
            "aggregator",
            self._last_by(tree.named("collect"),
                          key=lambda span: span.node),
            threshold,
        )
        entries.sort(key=lambda entry: (entry.slack, entry.role, entry.name))
        return StragglerReport(
            iteration=iteration, threshold=threshold, entries=entries
        )

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _sink(tree: SpanTree) -> Optional[Span]:
        """The chain's endpoint: the last global-update registration,
        falling back to the last collection when no update published."""
        publishes = tree.named("publish_update")
        if publishes:
            return max(publishes, key=lambda span: span.end)
        collects = tree.named("collect")
        if collects:
            return max(collects, key=lambda span: span.end)
        return None

    @staticmethod
    def _collect_of(tree: SpanTree, aggregator: str) -> Optional[Span]:
        collects = tree.spans(name="collect", node=aggregator)
        if not collects:
            return None
        return max(collects, key=lambda span: span.end)

    @staticmethod
    def _sync_of(tree: SpanTree, aggregator: str) -> Optional[Span]:
        syncs = tree.spans(name="sync", node=aggregator)
        if not syncs:
            return None
        return max(syncs, key=lambda span: span.end)

    @staticmethod
    def _binding_register(tree: SpanTree,
                          collect: Optional[Span]) -> Optional[Span]:
        """The registration the collection actually waited for: the
        latest one of the collect's partition not after its end."""
        registers = tree.named("register")
        if collect is not None:
            if collect.partition_id is not None:
                registers = [
                    span for span in registers
                    if span.partition_id == collect.partition_id
                ]
            registers = [
                span for span in registers if span.end <= collect.end
            ]
        if not registers:
            return None
        return max(registers, key=lambda span: span.end)

    @staticmethod
    def _expand_collect(steps: List[CriticalStep], collect: Span,
                        cursor: Optional[float]) -> float:
        """Split the collect hop on its binding download, appending
        ``collect.wait`` / ``collect.download`` / ``collect.aggregate``
        segments (zero-length segments are elided)."""
        prev = collect.start if cursor is None else cursor
        fetches = [
            child for child in collect.children
            if child.name == "fetch" and child.end <= collect.end
        ]
        binding = (max(fetches, key=lambda span: span.end)
                   if fetches else None)
        if binding is None:
            if collect.end > prev:
                steps.append(CriticalStep(
                    "collect", collect.node, prev, collect.end
                ))
            return max(prev, collect.end)
        download_start = max(prev, binding.start)
        if download_start > prev:
            steps.append(CriticalStep(
                "collect.wait", collect.node, prev, download_start
            ))
        if binding.end > download_start:
            steps.append(CriticalStep(
                "collect.download", collect.node, download_start, binding.end
            ))
        tail = max(download_start, binding.end)
        if collect.end > tail:
            steps.append(CriticalStep(
                "collect.aggregate", collect.node, tail, collect.end
            ))
        return max(tail, collect.end)

    @staticmethod
    def _last_by(spans: List[Span], key) -> Dict[str, float]:
        last: Dict[str, float] = {}
        for span in spans:
            name = key(span)
            if name not in last or span.end > last[name]:
                last[name] = span.end
        return last

    @staticmethod
    def _rank(role: str, finished: Dict[str, float],
              threshold: float) -> List[StragglerEntry]:
        if not finished:
            return []
        latest = max(finished.values())
        return [
            StragglerEntry(
                name=name, role=role, finished_at=at,
                slack=latest - at,
                is_straggler=(latest - at) <= threshold,
            )
            for name, at in finished.items()
        ]
