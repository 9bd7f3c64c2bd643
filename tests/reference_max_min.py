"""The max-min solver as it was before it became a bottleneck queue: the
progressive-filling scan that re-reads every link once per bottleneck.
Kept as the reference the production :func:`repro.net.bandwidth.max_min_rates`
must equal bit for bit (``tests/test_net_incremental.py``); nothing under
``src/`` may import it.
"""

import math
from typing import Dict, Optional, Sequence, Set

from repro.net.bandwidth import Flow, Link


def max_min_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Compute the max-min fair rate allocation for ``flows``.

    Classic progressive filling: repeatedly find the most-contended link,
    give every unfrozen flow crossing it that link's equal share, freeze
    those flows, subtract their rates from the other links they cross.
    Links with infinite capacity never bottleneck; a flow crossing only
    infinite links gets an infinite rate (delivered instantaneously).
    """
    rates: Dict[Flow, float] = {}
    active: Set[Flow] = set(flows)
    residual: Dict[Link, float] = {}
    load: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.links:
            residual.setdefault(link, link.capacity)
            load[link] = load.get(link, 0) + 1

    while active:
        bottleneck: Optional[Link] = None
        bottleneck_share = math.inf
        for link, count in load.items():
            if count <= 0:
                continue
            share = residual[link] / count
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck = link
        if bottleneck is None or math.isinf(bottleneck_share):
            # Every remaining flow crosses only uncontended infinite links.
            for flow in active:
                rates[flow] = math.inf
            break
        frozen = [flow for flow in active if bottleneck in flow.links]
        for flow in frozen:
            rates[flow] = bottleneck_share
            active.remove(flow)
            for link in flow.links:
                # Clamp: across many freeze rounds the subtraction drifts
                # and can leave a residual slightly below zero, handing
                # later flows a negative share.  Capacity can never be
                # negative, so floor at exact 0.0.
                remaining = residual[link] - bottleneck_share
                residual[link] = remaining if remaining > 0.0 else 0.0
                load[link] -= 1
        residual[bottleneck] = 0.0
    return rates
