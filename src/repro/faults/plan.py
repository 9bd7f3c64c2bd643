"""Pure-data fault plans.

A :class:`FaultPlan` is a schedule of :class:`FaultSpec` entries; it
performs no side effects itself — the
:class:`~repro.faults.injector.FaultInjector` interprets it against a live
session.  Keeping the plan pure data makes chaos scenarios reviewable,
diffable, and loadable from a JSON file on the CLI.

Fault taxonomy (``FaultSpec.kind``):

``crash_trainer`` / ``crash_aggregator``
    Interrupt the participant's running round at ``at``.  With a
    ``duration`` the participant stays down (skipped at round start) until
    ``at + duration`` — a late-join; without one it only loses the round
    in flight.
``link_down``
    Hard outage of the named host's links for ``duration`` seconds;
    in-flight transfers crossing them abort with ``TransferAborted``.
``directory_brownout``
    Elevate the directory service's ``processing_delay`` to
    ``processing_delay`` seconds for ``duration`` seconds.  It acts on
    the one directory server and takes no ``target``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

#: Fault kinds and the spec fields each requires beyond ``kind``/``at``.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "crash_trainer": ("target",),
    "crash_aggregator": ("target",),
    "link_down": ("target", "duration"),
    "directory_brownout": ("processing_delay", "duration"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  See the module docstring for the taxonomy."""

    kind: str
    at: float
    target: Optional[str] = None
    duration: Optional[float] = None
    processing_delay: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; {_vocabulary()}"
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
        if self.kind == "directory_brownout" and self.target is not None:
            raise ValueError(
                f"{self.kind} fault takes no `target` (got {self.target!r})"
            )

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSpec":
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown FaultSpec fields: {sorted(unknown)}; "
                f"{_vocabulary()}"
            )
        return cls(**raw)


def _vocabulary() -> str:
    """What a spec may say, for the errors that reject one."""
    fields = [f.name for f in dataclasses.fields(FaultSpec)]
    return f"a spec takes {fields}, its kind one of {sorted(FAULT_KINDS)}"


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of faults.  Pure data; executed by FaultInjector.

    ``seed`` seeds nothing: no fault kind draws a random number.  Plans
    carry it (``examples/plans/churn.json``), and the run report prints
    it.
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

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        unknown = set(raw) - {"seed", "specs"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        specs = tuple(
            FaultSpec.from_dict(entry) for entry in raw.get("specs", ())
        )
        return cls(specs=specs, seed=int(raw.get("seed", 0)))

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "FaultPlan":
        """Load a plan from a ``.json`` file."""
        name = os.fspath(path)
        if not name.endswith(".json"):
            raise ValueError(f"a fault plan is a .json file, not {name!r}")
        with open(name, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
