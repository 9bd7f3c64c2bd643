"""repro — reproduction of "Towards Efficient Decentralized Federated
Learning" (Pappas et al., ICDCS 2022).

A decentralized federated-learning system where participants communicate
*indirectly* through a (simulated) IPFS storage network, with verifiable
aggregation via homomorphic Pedersen vector commitments and the
merge-and-download provider-side pre-aggregation optimization.

The four entry points live right here: a session, its task
parameters, a network and a churn plan::

    from repro import FLSession, ProtocolConfig, NetworkProfile, FaultPlan

Everything else is imported from its subpackage.

Subpackages
-----------
- :mod:`repro.sim` — discrete-event simulation kernel.
- :mod:`repro.net` — flow-level network emulator (mininet substitute).
- :mod:`repro.ipfs` — simulated IPFS: CIDs, DHT, nodes, pub/sub,
  replication, merge-and-download.
- :mod:`repro.crypto` — secp256k1/secp256r1, multi-exponentiation,
  Pedersen vector commitments (from scratch).
- :mod:`repro.ml` — models, federated datasets, local training, FedAvg.
- :mod:`repro.core` — the protocol: directory service, trainers,
  aggregators, bootstrapper, verification, adversaries, sessions.
- :mod:`repro.faults` — deterministic fault injection and churn.
- :mod:`repro.obs` — typed event bus, telemetry, counters, monitors,
  flight recorder, run manifests.
- :mod:`repro.baselines` — IPLS-direct, centralized FL.
- :mod:`repro.analysis` — analytic delay/provider models (blockchain FL's
  round cost among them) and result tables.

Quickstart
----------
>>> from repro import FLSession, NetworkProfile, ProtocolConfig
>>> from repro.ml import LogisticRegression, make_classification, split_iid
>>> data = make_classification(num_samples=320, num_features=10)
>>> shards = split_iid(data, 4)
>>> session = FLSession(
...     ProtocolConfig(num_partitions=2, t_train=300, t_sync=900),
...     model_factory=lambda: LogisticRegression(num_features=10),
...     datasets=shards,
...     network=NetworkProfile(bandwidth_mbps=10.0),
... )
>>> _ = session.run(rounds=1)
"""

from .core import FLSession, ProtocolConfig
from .faults import FaultPlan
from .net import NetworkProfile

__version__ = "1.0.0"

__all__ = [
    "FLSession",
    "FaultPlan",
    "NetworkProfile",
    "ProtocolConfig",
    "__version__",
]
