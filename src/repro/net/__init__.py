"""Flow-level network emulator (mininet substitute).

Public surface:

- :class:`Network` / :class:`Host` — hosts with up/down link capacities,
  byte transfers under max-min fair sharing.
- :class:`Transport` / :class:`Endpoint` / :class:`Message` — mailbox-based
  message passing with request/response correlation.
- :func:`build_testbed` — the paper's uniform-bandwidth deployments.
- unit helpers: :func:`mbps`, :func:`megabytes`, ...
"""

from .bandwidth import Flow, FlowScheduler, Link, TransferAbortedError, \
    max_min_rates
from .network import Host, Network
from .profile import NetworkProfile
from .topology import Testbed, build_testbed
from .trace import TransferRecord, TransferTrace
from .transport import Endpoint, Message, Transport
from .units import gbps, kib, kilobytes, mbps, megabytes, mib

__all__ = [
    "Endpoint",
    "Flow",
    "FlowScheduler",
    "Host",
    "Link",
    "Message",
    "Network",
    "NetworkProfile",
    "Testbed",
    "TransferAbortedError",
    "TransferRecord",
    "TransferTrace",
    "Transport",
    "build_testbed",
    "gbps",
    "kib",
    "kilobytes",
    "max_min_rates",
    "mbps",
    "megabytes",
    "mib",
]
