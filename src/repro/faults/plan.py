"""Pure-data fault plans.

A :class:`FaultPlan` is a seeded, serialisable schedule of
:class:`FaultSpec` entries; it performs no side effects itself — the
:class:`~repro.faults.injector.FaultInjector` interprets it against a live
session.  Keeping the plan pure data makes chaos scenarios reviewable,
diffable, and loadable from JSON (or YAML when available) on the CLI.

Fault taxonomy (``FaultSpec.kind``):

``crash_trainer`` / ``crash_aggregator``
    Interrupt the participant's running round at ``at``.  With a
    ``duration`` the participant stays down (skipped at round start) until
    ``at + duration`` — a late-join; without one it only loses the round
    in flight.
``crash_ipfs``
    Take the named IPFS node process down at ``at``; with
    ``lose_storage=True`` the blockstore is wiped too (disk loss), else
    blocks survive and are re-provided to the DHT on restart at
    ``at + duration``.
``link_down``
    Hard outage of the named host's links for ``duration`` seconds;
    in-flight transfers crossing them abort with ``TransferAborted``.
``degrade_link``
    Scale the host's link capacities by ``factor`` (or pin them to
    ``bandwidth_mbps``) for ``duration`` seconds.
``directory_brownout``
    Elevate the directory service's ``processing_delay`` to
    ``processing_delay`` seconds for ``duration`` seconds.
``message_loss``
    Drop each pubsub delivery independently with ``probability`` for
    ``duration`` seconds (seeded from the plan seed and spec index).

``directory_brownout`` and ``message_loss`` act on the whole service
(the one directory server, every pubsub delivery) and take no
``target``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

#: Fault kinds and the spec fields each requires beyond ``kind``/``at``.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "crash_trainer": ("target",),
    "crash_aggregator": ("target",),
    "crash_ipfs": ("target", "duration"),
    "link_down": ("target", "duration"),
    "degrade_link": ("target", "duration"),
    "directory_brownout": ("processing_delay", "duration"),
    "message_loss": ("probability", "duration"),
}

#: Fault kinds that act on a whole service and so name no ``target``.
_UNTARGETED = ("directory_brownout", "message_loss")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  See the module docstring for the taxonomy."""

    kind: str
    at: float
    target: Optional[str] = None
    duration: Optional[float] = None
    factor: Optional[float] = None
    bandwidth_mbps: Optional[float] = None
    processing_delay: Optional[float] = None
    probability: Optional[float] = None
    lose_storage: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError("fault time `at` must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault `duration` must be positive")
        for required in FAULT_KINDS[self.kind]:
            if getattr(self, required) is None:
                raise ValueError(
                    f"{self.kind} fault requires the {required!r} field"
                )
        if self.kind in _UNTARGETED and self.target is not None:
            raise ValueError(
                f"{self.kind} fault takes no `target` (got {self.target!r})"
            )
        if self.kind == "degrade_link":
            if self.factor is None and self.bandwidth_mbps is None:
                raise ValueError(
                    "degrade_link requires `factor` or `bandwidth_mbps`"
                )
            if self.factor is not None and not 0.0 < self.factor:
                raise ValueError("degrade_link `factor` must be positive")
            if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
                raise ValueError(
                    "degrade_link `bandwidth_mbps` must be positive"
                )
        if self.probability is not None \
                and not 0.0 <= self.probability <= 1.0:
            raise ValueError("`probability` must be in [0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        """Spec as a plain dict, defaults elided (stable for JSON diffs)."""
        raw = dataclasses.asdict(self)
        return {
            key: value for key, value in raw.items()
            if value is not None and (key != "lose_storage" or value)
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults.  Pure data; executed by FaultInjector.

    The ``seed`` drives every stochastic fault effect (currently pubsub
    message loss), so the same plan against the same session configuration
    replays byte-identically.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"{spec!r} is not a FaultSpec")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        unknown = set(raw) - {"seed", "specs"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        specs = tuple(
            FaultSpec.from_dict(entry) for entry in raw.get("specs", ())
        )
        return cls(specs=specs, seed=int(raw.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def write(self, path: Union[str, "os.PathLike[str]"]) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "FaultPlan":
        """Load a plan from a ``.json`` (always) or ``.yaml``/``.yml``
        (when PyYAML is importable) file."""
        name = os.fspath(path)
        with open(name, encoding="utf-8") as handle:
            text = handle.read()
        if name.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env dependent
                raise RuntimeError(
                    "YAML fault plans need PyYAML; install it or use JSON"
                ) from exc
            return cls.from_dict(yaml.safe_load(text) or {})
        return cls.from_json(text)

    # -- queries -------------------------------------------------------------

    def targets(self) -> Sequence[str]:
        """Distinct named targets, in first-appearance order."""
        seen: Dict[str, None] = {}
        for spec in self.specs:
            if spec.target is not None:
                seen.setdefault(spec.target)
        return list(seen)
