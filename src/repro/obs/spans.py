"""Causal spans over the event bus.

The bus answers *what happened*; this module reconstructs *what caused
what*.  A :class:`Span` is a named interval of simulated time on one
node; spans nest into a per-iteration :class:`SpanTree` (Dapper-style)
whose root is the iteration itself and whose children are the phases of
Algorithm 1 — upload waves, gradient collection, the |A_i| > 1 sync
exchange, global-update publication, trainer installs — with individual
content fetches and registration instants nested below them.

Causality is reconstructed from the correlation keys stamped onto
events (``iteration``, ``partition_id``, node name, ``started_at``):
no producer knows about spans, and the reconstruction is a pure
function over the event list (:func:`build_span_tree`), so it works
identically on a live bus (via :class:`SpanCollector`) and on replayed
event streams.

Span taxonomy (see ``docs/OBSERVABILITY.md``):

===================  ========================  ==============================
name                 node                      interval
===================  ========================  ==============================
``iteration``        ``session``               round start -> round end
``upload``           trainer                   first partition put -> all acks
``register``         trainer                   instant: directory accepted
``collect``          aggregator                collection start -> aggregated
``fetch``            any client                one content retrieval
``sync``             aggregator                partial-update exchange
``publish_update``   aggregator                global update put -> registered
``install``          trainer                   upload done -> model installed
``commit``           participant               instant: commitment computed
``partial_update``   aggregator                instant: partial registered
``takeover``         aggregator                instant: covered a silent peer
``verify_failed``    scope                     instant: a check failed
``snapshot``         directory                 instant: map sealed to IPFS
===================  ========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .bus import EventBus, Subscription
from .events import (
    BlockFetched,
    CommitmentComputed,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    PROTOCOL_EVENTS,
    PartialUpdateRegistered,
    SnapshotSealed,
    SyncPhaseEnded,
    SyncPhaseStarted,
    TakeoverPerformed,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
    VerificationFailed,
)

__all__ = ["Span", "SpanTree", "SpanCollector", "build_span_tree",
           "SPAN_EVENTS"]

#: Everything the span reconstruction consumes.
SPAN_EVENTS = PROTOCOL_EVENTS + (
    SyncPhaseStarted,
    PartialUpdateRegistered,
    SnapshotSealed,
    BlockFetched,
)

#: Synthetic node name of the per-iteration root span.
SESSION_NODE = "session"


@dataclass
class Span:
    """A named interval of simulated time on one node.

    ``partition_id`` is the protocol correlation key (None when the span
    covers several partitions, e.g. a trainer's whole upload wave).
    ``meta`` carries span-specific extras (bytes moved, provider name,
    deadlines, ...).
    """

    name: str
    node: str
    start: float
    end: float
    iteration: int
    partition_id: Optional[int] = None
    parent: Optional["Span"] = field(default=None, repr=False)
    children: List["Span"] = field(default_factory=list, repr=False)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def add_child(self, child: "Span") -> "Span":
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # compact: trees get large
        partition = (f" p{self.partition_id}"
                     if self.partition_id is not None else "")
        return (f"<Span {self.name} {self.node}{partition} "
                f"[{self.start:.4f}, {self.end:.4f}]>")


class SpanTree:
    """One iteration's spans, rooted at the ``iteration`` span."""

    def __init__(self, root: Span):
        self.root = root

    @property
    def iteration(self) -> int:
        return self.root.iteration

    def __iter__(self) -> Iterator[Span]:
        return self.root.walk()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.walk())

    def spans(self, name: Optional[str] = None,
              node: Optional[str] = None) -> List[Span]:
        """All spans, optionally filtered by taxonomy name and/or node."""
        return [
            span for span in self.root.walk()
            if (name is None or span.name == name)
            and (node is None or span.node == node)
        ]

    def named(self, name: str) -> List[Span]:
        return self.spans(name=name)

    def nodes(self) -> List[str]:
        """Every node that owns at least one span, root first."""
        seen: Dict[str, None] = {}
        for span in self.root.walk():
            seen.setdefault(span.node, None)
        return list(seen)

    def by_node(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = {}
        for span in self.root.walk():
            grouped.setdefault(span.node, []).append(span)
        return grouped


# -- reconstruction ----------------------------------------------------------------


def _enclosing(candidates: Sequence[Span], node: str,
               at: float) -> Optional[Span]:
    """The tightest phase span of ``node`` whose interval contains ``at``."""
    best: Optional[Span] = None
    for span in candidates:
        if span.node != node or not (span.start <= at <= span.end):
            continue
        if best is None or span.duration < best.duration:
            best = span
    return best


def build_span_tree(events: Iterable[tuple]) -> Optional[SpanTree]:
    """Reconstruct one iteration's span tree from its event list.

    A pure function: ``events`` is every bus event of a single iteration
    (in publish order; infrastructure events may be interleaved).
    Returns None when the list has no :class:`IterationStarted`.
    """
    events = list(events)
    started: Optional[IterationStarted] = None
    finished_at: Optional[float] = None
    for event in events:
        if isinstance(event, IterationStarted) and started is None:
            started = event
        elif isinstance(event, IterationFinished):
            finished_at = event.at
    if started is None:
        return None
    iteration = started.iteration
    end = finished_at if finished_at is not None else max(
        (event.at for event in events), default=started.at
    )
    root = Span(
        name="iteration", node=SESSION_NODE, start=started.at, end=end,
        iteration=iteration,
        meta={key: value for key, value in
              (("t_train", started.t_train), ("t_sync", started.t_sync))
              if value is not None},
    )

    # Pass 1 — phase spans (direct children of the root).
    phases: List[Span] = []
    upload_of: Dict[str, Span] = {}
    upload_done_at: Dict[str, float] = {}
    sync_started_at: Dict[str, float] = {}
    for event in events:
        if isinstance(event, UploadCompleted):
            span = root.add_child(Span(
                name="upload", node=event.trainer,
                start=(event.started_at if event.started_at is not None
                       else event.at),
                end=event.at, iteration=iteration,
                meta={"mean_put_delay": event.delay},
            ))
            phases.append(span)
            upload_of[event.trainer] = span
            upload_done_at[event.trainer] = event.at
        elif isinstance(event, GradientsAggregated):
            partition = (event.partition_id
                         if event.partition_id >= 0 else None)
            phases.append(root.add_child(Span(
                name="collect", node=event.aggregator,
                start=(event.started_at if event.started_at is not None
                       else root.start),
                end=event.at, iteration=iteration, partition_id=partition,
            )))
        elif isinstance(event, SyncPhaseStarted):
            sync_started_at[event.aggregator] = event.at
        elif isinstance(event, SyncPhaseEnded):
            start = sync_started_at.get(
                event.aggregator, event.at - event.duration
            )
            partition = (event.partition_id
                         if event.partition_id >= 0 else None)
            phases.append(root.add_child(Span(
                name="sync", node=event.aggregator, start=start,
                end=event.at, iteration=iteration, partition_id=partition,
            )))
        elif isinstance(event, UpdateRegistered):
            phases.append(root.add_child(Span(
                name="publish_update", node=event.aggregator,
                start=(event.started_at if event.started_at is not None
                       else event.at),
                end=event.at, iteration=iteration,
                partition_id=event.partition_id,
            )))
        elif isinstance(event, TrainerCompleted):
            phases.append(root.add_child(Span(
                name="install", node=event.trainer,
                start=upload_done_at.get(event.trainer, root.start),
                end=event.at, iteration=iteration,
            )))

    # Pass 2 — instants and fetches, nested under the tightest phase.
    for event in events:
        if isinstance(event, GradientRegistered):
            parent = upload_of.get(event.uploader, root)
            parent.add_child(Span(
                name="register", node=event.uploader, start=event.at,
                end=event.at, iteration=iteration,
                partition_id=event.partition_id,
            ))
        elif isinstance(event, BlockFetched):
            start = (event.started_at if event.started_at is not None
                     else event.at)
            # Attach by midpoint: a fetch ending exactly at its phase's
            # boundary must not fall into the adjacent (tighter) phase.
            parent = _enclosing(
                phases, event.client, (start + event.at) / 2.0
            ) or root
            parent.add_child(Span(
                name="fetch", node=event.client, start=start, end=event.at,
                iteration=iteration,
                meta={"provider": event.node, "bytes": event.size,
                      "cid": (str(event.cid)
                              if event.cid is not None else None)},
            ))
        elif isinstance(event, PartialUpdateRegistered):
            parent = _enclosing(phases, event.aggregator, event.at) or root
            parent.add_child(Span(
                name="partial_update", node=event.aggregator,
                start=event.at, end=event.at, iteration=iteration,
                partition_id=event.partition_id,
            ))
        elif isinstance(event, TakeoverPerformed):
            parent = _enclosing(phases, event.aggregator, event.at) or root
            parent.add_child(Span(
                name="takeover", node=event.aggregator, start=event.at,
                end=event.at, iteration=iteration,
                meta={"peer": event.peer},
            ))
        elif isinstance(event, CommitmentComputed):
            parent = _enclosing(phases, event.participant, event.at) or root
            parent.add_child(Span(
                name="commit", node=event.participant, start=event.at,
                end=event.at, iteration=iteration,
                meta={"seconds": event.seconds},
            ))
        elif isinstance(event, VerificationFailed):
            root.add_child(Span(
                name="verify_failed", node=event.scope, start=event.at,
                end=event.at, iteration=iteration,
                meta={"label": event.label},
            ))
        elif isinstance(event, SnapshotSealed):
            root.add_child(Span(
                name="snapshot", node=event.node, start=event.at,
                end=event.at, iteration=iteration,
                partition_id=event.partition_id,
                meta={"cid": event.cid},
            ))
    return SpanTree(root)


class SpanCollector:
    """Buffers bus events per iteration and builds one tree per round.

    Iteration-scoped events route by their ``iteration`` field;
    infrastructure events (fetches) are attributed to the currently open
    iteration, matching the sequential rounds a session runs.  Trees
    appear in :attr:`trees` as their :class:`IterationFinished` lands.
    """

    def __init__(self, bus: EventBus):
        #: iteration -> completed SpanTree.
        self.trees: Dict[int, SpanTree] = {}
        self._buffer: List[tuple] = []
        self._open: Optional[int] = None
        self._subscription: Subscription = bus.subscribe(
            self._handle, *SPAN_EVENTS
        )

    def close(self) -> None:
        """Stop collecting (already-built trees stay available)."""
        self._subscription.cancel()

    def tree(self, iteration: int) -> Optional[SpanTree]:
        return self.trees.get(iteration)

    def latest(self) -> Optional[SpanTree]:
        if not self.trees:
            return None
        return self.trees[max(self.trees)]

    def _handle(self, event: tuple) -> None:
        if isinstance(event, IterationStarted):
            self._open = event.iteration
            self._buffer = [event]
            return
        if self._open is None:
            return  # stale event from a closed round: drop, like telemetry
        iteration = getattr(event, "iteration", self._open)
        if iteration != self._open:
            return
        self._buffer.append(event)
        if isinstance(event, IterationFinished):
            tree = build_span_tree(self._buffer)
            if tree is not None:
                self.trees[tree.iteration] = tree
            self._buffer = []
            self._open = None
