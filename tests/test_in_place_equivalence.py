"""Dispatching in place moves nothing simulated: generated sessions.

``Simulator.dispatch_in_place`` runs an event inside the step whose
callbacks triggered it — a finished flow's completion, a reply's keyed
getter and the reply, the directory's next request — at the place the
queue would have given it, or queues it when an event of the instant
comes first.  So a session must come out the same when the seam is
forced onto the queue (``Event.succeed``): here small generated sessions
run both ways, over the protocol's options, latency, a directory
processing delay and the fault kinds that lose messages, crash
participants or serialise the directory, and their digests (the
benchmark's: metrics minus the host-time field, the counters and the
scenario fingerprint) must be equal.  Forced, the kernel takes exactly
the steps it took before the seam existed, less the settles the flow
scheduler skips for an empty network (a pinned count), which shows the
switch reaches every in-place site.
"""

import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan, FLSession, NetworkProfile, ProtocolConfig
from repro.core import DirectoryProfile
from repro.faults import RetryPolicy
from repro.ml import Dataset, SyntheticModel
from repro.obs import CountersRegistry
from repro.sim import Simulator
from tests.util import set_ipfs_timeout

#: The fault plans a session may run: a trainer's link dies mid-round
#: (messages lost, requests retried), the directory browns out (requests
#: queue behind a serialised server), a trainer crashes.
PLANS = {
    None: None,
    "link_down": {"at": 0.02, "duration": 0.4, "kind": "link_down",
                  "target": "trainer-1"},
    "directory_brownout": {"at": 0.01, "duration": 0.3,
                           "kind": "directory_brownout",
                           "processing_delay": 0.05},
    "crash_trainer": {"at": 0.03, "duration": 100.0,
                      "kind": "crash_trainer", "target": "trainer-0"},
}


@contextmanager
def _queued():
    """Every in-place dispatch goes onto the queue instead."""
    with mock.patch.object(
            Simulator, "dispatch_in_place",
            lambda self, event, value=None: event.succeed(value)):
        yield


def _session(trainers=4, partitions=2, aggregators=1, merge=False,
             batch=False, mode="gradient", poll=0.25, latency=0.0,
             delay=0.0, plan=None, seed=5):
    config = ProtocolConfig(
        num_partitions=partitions, aggregators_per_partition=aggregators,
        merge_and_download=merge, batch_registration=batch,
        update_mode=mode, poll_interval=poll, t_train=4.0, t_sync=8.0,
        takeover_grace=1.0, seed=seed)
    datasets = [Dataset(np.full((1, 1), float(seed * 100 + index + 1)),
                        np.zeros(1)) for index in range(trainers)]
    faulted = PLANS[plan] is not None
    network = NetworkProfile(
        num_ipfs_nodes=3, bandwidth_mbps=10.0, latency=latency,
        directory_request_timeout=0.5 if faulted else None,
        retry=RetryPolicy() if faulted else None)
    session = FLSession(
        config, lambda: SyntheticModel(600), datasets, network=network,
        directory=DirectoryProfile(processing_delay=delay),
        faults=FaultPlan.from_dict({"specs": [PLANS[plan]], "seed": seed})
        if faulted else None)
    set_ipfs_timeout(session, 1.0)
    return session


def _digest(**options) -> str:
    session = _session(**options)
    counters = CountersRegistry(session.sim.bus)
    session.run(rounds=2)
    rounds = session.metrics.to_dict()["iterations"]
    for entry in rounds:
        entry.pop("commit_seconds")
    return json.dumps({"metrics": rounds, "counters": counters.snapshot(),
                       "fingerprint": session.fingerprint()},
                      sort_keys=True, default=repr)


#: The options :func:`_session` is generated over.
sessions = st.fixed_dictionaries({
    "trainers": st.integers(2, 8),
    "partitions": st.integers(1, 3),
    "aggregators": st.integers(1, 2),
    "merge": st.booleans(),
    "batch": st.booleans(),
    "mode": st.sampled_from(["params", "gradient"]),
    "poll": st.sampled_from([0.05, 0.25]),
    "latency": st.sampled_from([0.0, 0.004]),
    "delay": st.sampled_from([0.0, 0.003]),
    "plan": st.sampled_from(sorted(PLANS, key=str)),
    "seed": st.integers(0, 3),
})


@settings(max_examples=40, deadline=None)
@given(sessions)
def test_a_session_is_the_same_with_every_dispatch_queued(options):
    shipped = _digest(**options)
    with _queued():
        queued = _digest(**options)
    assert json.loads(shipped)["metrics"]  # the rounds ran
    assert shipped == queued


def test_queued_the_kernel_takes_the_steps_it_took_before_the_seam():
    """One fixed session (the link-down plan, 2 rounds) takes 2 356
    kernel steps on a kernel that dispatches nothing in place; forced
    onto the queue it takes exactly as many less the 122 settles the flow
    scheduler no longer arms for an empty network, 2 234 (as shipped
    1 496; 1 618 while those settles ran)."""
    steps = []
    step = Simulator.step

    def counting_step(self):
        steps.append(None)
        step(self)

    options = dict(trainers=5, partitions=2, aggregators=2, delay=0.003,
                   plan="link_down")
    with mock.patch.object(Simulator, "step", counting_step):
        with _queued():
            queued = _digest(**options)
        queued_steps, steps[:] = len(steps), []
        shipped = _digest(**options)
    assert shipped == queued
    assert queued_steps == 2234
    assert len(steps) == 1496


def test_no_reply_getter_outlives_a_lost_message():
    """A request or reply a dead link ate leaves the requester's keyed
    getter behind for a reply that never comes; it is dropped once
    nothing but the request's deadline waits on it."""
    session = _session(trainers=5, aggregators=2, plan="link_down")
    session.run(rounds=2)
    transport = session.testbed.transport
    assert transport.dropped > 0
    assert {name: list(endpoint.inbox._keyed)
            for name, endpoint in transport._endpoints.items()
            if endpoint.inbox._keyed} == {}
