"""Regenerate the flow completion-time golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/capture_flow_golden.py

The scenario drives a bare :class:`~repro.net.bandwidth.FlowScheduler`
through 200 seeded flows: same-instant bursts, staggered singles, one
``abort_flows``, one capacity mutation + ``rates_changed`` and one
infinite-capacity link shared by a third of the flows.  The file checked
in was produced by the recompute-per-change scheduler (one solve per
start / finish); the once-per-instant scheduler must reproduce every
finish time exactly (see tests/test_net_settle.py).
"""

import json
import math
import os
import random

from repro.net.bandwidth import FlowScheduler, Link
from repro.sim import Simulator

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "flow_completion_golden.json")

NUM_FLOWS = 200
SEED = 20220710


def completion_scenario():
    """``[flow_id, finish_time, aborted]`` rows in completion order."""
    rng = random.Random(SEED)
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    uplinks = [Link(f"up{i}", 1.25e6 * rng.choice((1, 2))) for i in range(12)]
    downlinks = [Link(f"down{i}", 1.25e6 * rng.choice((1, 2, 4)))
                 for i in range(6)]
    directory = Link("directory/down", math.inf)
    rows = []

    def start():
        flow_id = scheduler._next_id
        links = [rng.choice(uplinks)]
        if rng.random() < 0.35:
            links.append(directory)  # couples nothing: never a bottleneck
        else:
            links.append(rng.choice(downlinks))
        done = scheduler.start_flow(tuple(links), rng.uniform(2e4, 3e6))
        done.defused()  # aborts are part of the scenario
        done._add_callback(
            lambda event: rows.append([flow_id, sim.now, not event._ok]))

    def driver():
        started = 0
        step = 0
        while started < NUM_FLOWS:
            burst = min(NUM_FLOWS - started,
                        rng.choice((1, 1, 2, 8, 24, 40)))
            for _ in range(burst):
                start()
            started += burst
            step += 1
            if step == 4:
                scheduler.abort_flows([downlinks[1], uplinks[3]])
            if step == 7:
                downlinks[0].capacity = 0.4e6
                uplinks[5].capacity = 5e6
                scheduler.rates_changed([downlinks[0], uplinks[5]])
            yield sim.timeout(rng.choice((0.0, 0.05, 0.4, 1.5)))

    sim.process(driver())
    sim.run()
    assert not scheduler._flows and len(rows) == NUM_FLOWS
    return rows


if __name__ == "__main__":
    with open(OUT, "w") as handle:
        json.dump(completion_scenario(), handle, indent=0)
        handle.write("\n")
    print(f"wrote {OUT}")
