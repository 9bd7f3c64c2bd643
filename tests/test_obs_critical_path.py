"""Critical-path decomposition and straggler ranking (repro.obs).

The golden test pins the simulator's critical path to the closed forms
in :mod:`repro.analysis.delays` on the paper's Fig. 1 configuration.
"""

import numpy as np
import pytest

from repro.analysis.delays import naive_aggregation_time, naive_collection_time
from repro.core import FLSession, ProtocolConfig
from repro.core.partition import encode_partition
from repro.ipfs.node import CID_WIRE_SIZE, REQUEST_OVERHEAD
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile, mbps
from repro.obs import CriticalPathAnalyzer, SpanCollector, build_span_tree
from repro.obs.events import (
    BlockFetched,
    GradientRegistered,
    GradientsAggregated,
    IterationFinished,
    IterationStarted,
    SyncPhaseEnded,
    SyncPhaseStarted,
    UpdateRegistered,
    UploadCompleted,
)


def chain_events():
    """Two trainers, two providers, one aggregator, a sync phase."""
    return [
        IterationStarted(at=0.0, iteration=0),
        GradientRegistered(at=1.0, iteration=0, uploader="trainer-0",
                           partition_id=0),
        UploadCompleted(at=1.2, iteration=0, trainer="trainer-0",
                        delay=1.0, started_at=0.2),
        GradientRegistered(at=1.5, iteration=0, uploader="trainer-1",
                           partition_id=0),
        UploadCompleted(at=1.7, iteration=0, trainer="trainer-1",
                        delay=1.4, started_at=0.3),
        BlockFetched(at=3.0, client="aggregator-0", node="ipfs-0",
                     cid="c0", size=100, started_at=2.0),
        BlockFetched(at=3.5, client="aggregator-0", node="ipfs-1",
                     cid="c1", size=100, started_at=2.0),
        GradientsAggregated(at=4.0, iteration=0, aggregator="aggregator-0",
                            partition_id=0, started_at=0.1),
        SyncPhaseStarted(at=4.0, iteration=0, aggregator="aggregator-0",
                         partition_id=0),
        SyncPhaseEnded(at=5.0, iteration=0, aggregator="aggregator-0",
                       duration=1.0, partition_id=0),
        UpdateRegistered(at=5.8, iteration=0, aggregator="aggregator-0",
                         partition_id=0, started_at=5.0),
        IterationFinished(at=6.0, iteration=0),
    ]


def analyzer_for(events):
    return CriticalPathAnalyzer(build_span_tree(events))


# -- the chain -------------------------------------------------------------------


def test_critical_path_walks_the_binding_chain():
    path = analyzer_for(chain_events()).analyze(0)
    assert [step.name for step in path.steps] == [
        "upload", "collect.wait", "collect.download", "collect.aggregate",
        "sync", "publish_update",
    ]
    # The binding trainer is the *latest* registration (trainer-1), the
    # binding download the latest-ending fetch (ipfs-1).
    upload = path.segment("upload")
    assert (upload.node, upload.start, upload.end) == ("trainer-1", 0.3, 1.5)
    assert path.segment("collect.wait").duration == pytest.approx(0.5)
    download = path.segment("collect.download")
    assert (download.start, download.end) == (2.0, 3.5)
    assert path.segment("collect.aggregate").duration == pytest.approx(0.5)
    assert path.segment("sync").end == 5.0
    assert path.segment("publish_update").end == 5.8


def test_steps_are_contiguous_and_telescope_to_the_length():
    path = analyzer_for(chain_events()).analyze(0)
    for previous, current in zip(path.steps, path.steps[1:]):
        assert previous.end == current.start
    assert sum(step.duration for step in path.steps) == \
        pytest.approx(path.length, rel=1e-12)
    assert sum(step.duration for step in path.steps) == \
        pytest.approx(path.length, rel=1e-12)
    assert (path.start, path.end) == (0.3, 5.8)


def test_path_without_publish_ends_at_the_collect():
    events = [event for event in chain_events()
              if not isinstance(event, UpdateRegistered)]
    path = analyzer_for(events).analyze(0)
    assert path.steps[-1].name == "sync"  # sync still outlasts collect
    events = [event for event in events
              if not isinstance(event, (SyncPhaseStarted, SyncPhaseEnded))]
    path = analyzer_for(events).analyze(0)
    assert path.steps[-1].name == "collect.aggregate"
    assert path.end == 4.0


def test_no_aggregation_means_no_path():
    analyzer = analyzer_for([
        IterationStarted(at=0.0, iteration=0),
        IterationFinished(at=1.0, iteration=0),
    ])
    assert analyzer.analyze(0) is None
    assert analyzer.analyze(42) is None  # unknown iteration


def test_format_mentions_every_step():
    path = analyzer_for(chain_events()).analyze(0)
    text = path.format()
    for step in path.steps:
        assert step.name in text


# -- stragglers ------------------------------------------------------------------


def test_straggler_report_ranks_by_slack():
    report = analyzer_for(chain_events()).straggler_report(0)
    trainers = [e for e in report.entries if e.role == "trainer"]
    assert [(entry.name, entry.slack) for entry in trainers] == [
        ("trainer-1", 0.0), ("trainer-0", 0.5),
    ]
    providers = [e for e in report.entries if e.role == "provider"]
    assert [(entry.name, entry.slack) for entry in providers] == [
        ("ipfs-1", 0.0), ("ipfs-0", 0.5),
    ]
    [aggregator] = [e for e in report.entries if e.role == "aggregator"]
    assert aggregator.slack == 0.0
    # Entries come slack-ascending; the binding participants lead.
    assert [entry.slack for entry in report.entries] == \
        sorted(entry.slack for entry in report.entries)


def test_straggler_threshold_flags_near_critical_participants():
    analyzer = analyzer_for(chain_events())
    tight = analyzer.straggler_report(0, threshold=0.0)
    assert {entry.name for entry in tight.stragglers} == \
        {"trainer-1", "ipfs-1", "aggregator-0"}
    loose = analyzer.straggler_report(0, threshold=0.5)
    assert {entry.name for entry in loose.stragglers} == \
        {"trainer-0", "trainer-1", "ipfs-0", "ipfs-1", "aggregator-0"}
    assert "slack" in loose.format()


def test_analyzer_accepts_a_tree_mapping():
    tree = build_span_tree(chain_events())
    analyzer = CriticalPathAnalyzer({0: tree})
    assert analyzer.iterations() == [0]
    assert analyzer.analyze(0).length == pytest.approx(5.5)


# -- golden test vs analysis.delays (Fig. 1 configuration) -----------------------


NUM_TRAINERS = 16
PARTITION_PARAMS = 162_500  # ~1.3 MB of float64, as in Fig. 1
BANDWIDTH_MBPS = 10.0


def fig1_naive_session():
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        update_mode="gradient",
        poll_interval=0.25,
        merge_and_download=False,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(NUM_TRAINERS)
    ]
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(PARTITION_PARAMS),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=8,
                               bandwidth_mbps=BANDWIDTH_MBPS, latency=0.0,
                               dht_lookup_delay=0.0),
    )


def test_critical_path_matches_closed_form_on_fig1_config():
    """The download wave on the critical path equals the analytic
    collection time to float precision.

    In the symmetric naive configuration every get is issued at one
    instant and the aggregator's access link is the binding resource
    throughout, so max-min fairness degenerates to exact serialization
    of the request and response wire bytes.
    """
    session = fig1_naive_session()
    collector = SpanCollector(session.sim.bus)
    session.run(rounds=1)
    path = CriticalPathAnalyzer(collector).analyze(0)
    assert path is not None

    blob_bytes = len(encode_partition(np.zeros(PARTITION_PARAMS), 1.0))
    bandwidth = mbps(BANDWIDTH_MBPS)
    expected = naive_collection_time(
        NUM_TRAINERS,
        gradient_wire_bytes=blob_bytes + REQUEST_OVERHEAD,
        aggregator_bandwidth=bandwidth,
        request_wire_bytes=REQUEST_OVERHEAD + CID_WIRE_SIZE,
    )
    download = path.segment("collect.download")
    assert download is not None
    assert download.duration == pytest.approx(expected, rel=1e-9)
    # The wire-exact value refines the paper's back-of-envelope model.
    assert download.duration == pytest.approx(
        naive_aggregation_time(NUM_TRAINERS, blob_bytes + REQUEST_OVERHEAD,
                               bandwidth),
        rel=1e-3,
    )
    # Telescoping invariant holds on real simulator output too.
    assert sum(step.duration for step in path.steps) == \
        pytest.approx(path.length, rel=1e-12)


def test_straggler_report_on_fig1_config_is_symmetric():
    # 16 trainers, 2 per storage node, identical links: everyone lands
    # together, so every trainer is tied at slack 0.
    session = fig1_naive_session()
    collector = SpanCollector(session.sim.bus)
    session.run(rounds=1)
    report = CriticalPathAnalyzer(collector).straggler_report(0)
    trainers = [e for e in report.entries if e.role == "trainer"]
    assert len(trainers) == NUM_TRAINERS
    assert all(entry.slack == pytest.approx(0.0, abs=1e-9)
               for entry in trainers)
    assert len([e for e in report.entries if e.role == "provider"]) == 8
    assert len([e for e in report.entries if e.role == "aggregator"]) == 1
