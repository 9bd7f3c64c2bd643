"""Flow-level network emulator (mininet substitute).

Public surface:

- :class:`Network` — hosts with up/down link capacities, byte transfers
  under max-min fair sharing.
- :class:`Transport` / :class:`Endpoint` / :class:`Message` — mailbox-based
  message passing with request/response correlation.
- :func:`build_testbed` — the paper's uniform-bandwidth deployments.
- unit helpers: :func:`mbps`, :func:`megabytes`, ...
"""

from .bandwidth import FlowScheduler, Link, TransferAbortedError, \
    max_min_rates
from .network import Network
from .profile import NetworkProfile
from .topology import Testbed, build_testbed
from .trace import TransferTrace
from .transport import Endpoint, Message, Transport
from .units import mbps, megabytes

__all__ = [
    "Endpoint",
    "FlowScheduler",
    "Link",
    "Message",
    "Network",
    "NetworkProfile",
    "Testbed",
    "TransferAbortedError",
    "TransferTrace",
    "Transport",
    "build_testbed",
    "max_min_rates",
    "mbps",
    "megabytes",
]
