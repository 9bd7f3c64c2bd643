"""Baseline systems the paper compares against or builds upon.

- :class:`DirectIPLSSession` — the original IPLS with direct p2p links
  (the "direct" series of Fig. 1).
- :class:`CentralizedSession` — classic server-mediated FedAvg: the
  direct IPLS with one partition and one aggregator (the server), the
  reference of the Sec. V convergence claim.

Blockchain FL's per-round bytes and delay (Sec. I) are the closed form
:func:`repro.analysis.delays.blockchain_round_cost`.
"""

from .centralized import CentralizedSession
from .ipls_direct import DirectIPLSSession

__all__ = [
    "CentralizedSession",
    "DirectIPLSSession",
]
