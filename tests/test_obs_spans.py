"""Span-tree reconstruction from bus events (repro.obs.spans)."""

from repro.obs.spans import build_span_tree, span_trees
from repro.obs.events import (
    BlockFetched,
    CommitmentComputed,
    DirectoryRequest,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    PartialUpdateRegistered,
    SnapshotSealed,
    SyncPhaseEnded,
    SyncPhaseStarted,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)


def one_round_events(iteration=3):
    """A hand-built round exercising every span kind."""
    return [
        IterationStarted(at=0.0, iteration=iteration, t_train=600.0,
                         t_sync=1200.0),
        CommitmentComputed(at=0.1, iteration=iteration,
                           participant="trainer-0", seconds=0.01),
        GradientRegistered(at=1.5, iteration=iteration,
                           uploader="trainer-0", partition_id=0),
        UploadCompleted(at=2.0, iteration=iteration, trainer="trainer-0",
                        delay=1.5, started_at=0.5),
        BlockFetched(at=4.0, client="aggregator-0", node="ipfs-1",
                     cid="cid-grad", size=1000, started_at=2.5),
        GradientsAggregated(at=4.5, iteration=iteration,
                            aggregator="aggregator-0", partition_id=0,
                            started_at=0.2),
        SyncPhaseStarted(at=4.5, iteration=iteration,
                         aggregator="aggregator-0", partition_id=0),
        PartialUpdateRegistered(at=4.8, iteration=iteration,
                                aggregator="aggregator-0", partition_id=0),
        SyncPhaseEnded(at=5.0, iteration=iteration,
                       aggregator="aggregator-0", duration=0.5,
                       partition_id=0),
        UpdateRegistered(at=6.0, iteration=iteration,
                         aggregator="aggregator-0", partition_id=0,
                         started_at=5.0),
        SnapshotSealed(at=6.1, iteration=iteration, partition_id=0,
                       node="ipfs-0", cid="cid-snap"),
        BlockFetched(at=6.8, client="trainer-0", node="ipfs-0",
                     cid="cid-upd", size=1000, started_at=6.1),
        TrainerCompleted(at=7.0, iteration=iteration, trainer="trainer-0"),
        IterationFinished(at=7.0, iteration=iteration),
    ]


# -- build_span_tree -------------------------------------------------------------


def test_tree_root_covers_the_iteration():
    tree = build_span_tree(one_round_events())
    assert tree.iteration == 3
    assert tree.root.name == "iteration"
    assert tree.root.node == "session"
    assert (tree.root.start, tree.root.end) == (0.0, 7.0)
    assert tree.root.meta == {"t_train": 600.0, "t_sync": 1200.0}


def test_phase_spans_take_their_bounds_from_correlation_keys():
    tree = build_span_tree(one_round_events())
    [upload] = tree.named("upload")
    assert (upload.node, upload.start, upload.end) == ("trainer-0", 0.5, 2.0)
    [collect] = tree.named("collect")
    assert (collect.start, collect.end) == (0.2, 4.5)
    assert collect.partition_id == 0
    [sync] = tree.named("sync")
    assert (sync.start, sync.end) == (4.5, 5.0)
    [publish] = tree.named("publish_update")
    assert (publish.start, publish.end) == (5.0, 6.0)
    [install] = tree.named("install")
    # Install runs from the trainer's upload completion to its finish.
    assert (install.node, install.start, install.end) == \
        ("trainer-0", 2.0, 7.0)


def test_instants_nest_under_the_enclosing_phase_of_their_node():
    tree = build_span_tree(one_round_events())
    [register] = tree.named("register")
    assert register.is_instant and register.end == 1.5
    assert register.parent.name == "upload"
    [partial] = tree.named("partial_update")
    assert partial.parent.name == "sync"  # 4.8 inside the sync window
    [commit] = tree.named("commit")
    # 0.1 precedes every trainer-0 phase, so it hangs off the root.
    assert commit.parent is tree.root
    [snapshot] = tree.named("snapshot")
    assert snapshot.parent is tree.root
    assert snapshot.meta["cid"] == "cid-snap"


def test_fetches_attach_by_midpoint_and_record_provider():
    tree = build_span_tree(one_round_events())
    gradient_fetch, update_fetch = tree.named("fetch")
    assert gradient_fetch.parent.name == "collect"
    assert gradient_fetch.meta["provider"] == "ipfs-1"
    assert gradient_fetch.meta["cid"] == "cid-grad"
    assert update_fetch.parent.name == "install"


def test_boundary_fetch_stays_in_the_phase_it_spans():
    # A fetch ending exactly when the collect phase ends must belong to
    # collect, not to the zero-width-adjacent publish phase that starts
    # at the same instant.
    events = [
        IterationStarted(at=0.0, iteration=0),
        BlockFetched(at=4.0, client="aggregator-0", node="ipfs-0",
                     cid="c", size=10, started_at=1.0),
        GradientsAggregated(at=4.0, iteration=0, aggregator="aggregator-0",
                            partition_id=0, started_at=0.0),
        UpdateRegistered(at=5.0, iteration=0, aggregator="aggregator-0",
                         partition_id=0, started_at=4.0),
        IterationFinished(at=5.0, iteration=0),
    ]
    tree = build_span_tree(events)
    [fetch] = tree.named("fetch")
    assert fetch.parent.name == "collect"


def test_missing_correlation_keys_degrade_gracefully():
    # Producers that never stamp started_at / partition_id (baselines)
    # still yield a tree: phases collapse to instants or root-anchored
    # windows rather than crashing.
    events = [
        IterationStarted(at=0.0, iteration=0),
        UploadCompleted(at=2.0, iteration=0, trainer="trainer-0",
                        delay=1.0),
        GradientsAggregated(at=4.0, iteration=0, aggregator="aggregator-0"),
        UpdateRegistered(at=5.0, iteration=0, aggregator="aggregator-0",
                         partition_id=0),
        IterationFinished(at=5.0, iteration=0),
    ]
    tree = build_span_tree(events)
    [upload] = tree.named("upload")
    assert upload.is_instant and upload.end == 2.0
    [collect] = tree.named("collect")
    assert (collect.start, collect.end) == (0.0, 4.0)
    assert collect.partition_id is None
    [publish] = tree.named("publish_update")
    assert publish.is_instant


def test_no_iteration_started_means_no_tree():
    assert build_span_tree([]) is None
    assert build_span_tree(one_round_events()[1:]) is None


def test_tree_query_helpers():
    tree = build_span_tree(one_round_events())
    assert len(tree) == len(list(tree))
    assert tree.nodes()[0] == "session"
    by_node = tree.by_node()
    assert set(by_node) == set(tree.nodes())
    assert tree.spans(name="fetch", node="trainer-0")[0].meta["provider"] \
        == "ipfs-0"


# -- the fold over a whole stream ------------------------------------------------


def test_fold_builds_one_tree_per_finished_iteration():
    # A trace holds every event type; only the span events count.
    other = DirectoryRequest(at=0.05, kind="lookup")
    trees = span_trees([other] + one_round_events(iteration=0)
                       + [other] + one_round_events(iteration=1))
    assert sorted(trees) == [0, 1]
    assert trees[1].iteration == 1
    assert len(trees[0]) == len(build_span_tree(one_round_events(0)))


def test_fold_attributes_infra_events_to_the_open_iteration():
    trees = span_trees([
        IterationStarted(at=0.0, iteration=7),
        GradientsAggregated(at=3.0, iteration=7, aggregator="aggregator-0",
                            partition_id=0, started_at=0.0),
        # BlockFetched carries no iteration; it lands in the open round 7.
        BlockFetched(at=2.0, client="aggregator-0", node="ipfs-0",
                     cid="c", size=10, started_at=1.0),
        IterationFinished(at=4.0, iteration=7),
    ])
    [fetch] = trees[7].named("fetch")
    assert fetch.iteration == 7 and fetch.parent.name == "collect"


def test_fold_drops_events_outside_any_open_iteration():
    trees = span_trees([
        # Before any round and with a stale iteration number: both dropped.
        BlockFetched(at=0.5, client="x", node="ipfs-0", cid="c", size=10),
        IterationStarted(at=1.0, iteration=1),
        TrainerCompleted(at=1.5, iteration=0, trainer="trainer-9"),
        IterationFinished(at=2.0, iteration=1),
    ])
    assert trees[1].named("fetch") == [] and trees[1].named("install") == []


def test_fold_builds_no_tree_for_a_round_that_never_finished():
    # A run that died mid-round: its open round leaves no tree, and a
    # restarted round discards what the unfinished one buffered.
    unfinished = one_round_events(iteration=0)[:-1]
    assert span_trees(unfinished) == {}
    trees = span_trees(unfinished + one_round_events(iteration=1))
    assert sorted(trees) == [1]
    assert len(trees[1]) == len(build_span_tree(one_round_events(1)))
