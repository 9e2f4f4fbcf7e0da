"""Task model, arrival generation and admission control.

Tasks are classified along three dimensions: nature (mission/security),
priority (high/low) and arrival pattern (periodic/aperiodic).  Resource
demand is a normalized usage vector over the scenario's resource types
(default: CPU, FPGA).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Nature(str, Enum):
    MISSION = "mission"
    SECURITY = "security"


class Priority(str, Enum):
    HIGH = "high"
    LOW = "low"


class InstanceState(str, Enum):
    QUEUED = "queued"
    ADMITTED = "admitted"
    COMPLETED = "completed"
    DROPPED = "dropped"
    MISSED = "missed"


# Members bound once for the per-slot code, which compares by identity:
# a class-attribute lookup on an Enum costs several times a module global.
# ``TaskSpec`` stores its priority as a member, so ``is`` is exact there.
_HIGH = Priority.HIGH
_QUEUED, _ADMITTED = InstanceState.QUEUED, InstanceState.ADMITTED
_COMPLETED, _DROPPED = InstanceState.COMPLETED, InstanceState.DROPPED


@dataclass(frozen=True)
class Arrival:
    """Arrival pattern: ``periodic`` with an interval or ``aperiodic`` with a rate."""

    kind: str  # "periodic" | "aperiodic"
    interval: int = 0  # slots, periodic only
    rate: float = 0.0  # tasks/slot, aperiodic only

    def __post_init__(self):
        if self.kind not in ("periodic", "aperiodic"):
            raise ValueError(f"kind must be 'periodic' or 'aperiodic', got {self.kind!r}")
        if self.kind == "periodic" and self.interval < 1:
            raise ValueError(f"interval must be >= 1 slot for a periodic arrival, got {self.interval}")
        if not 0.0 <= self.rate < math.inf:  # NaN fails too
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class TaskSpec:
    """Schedulable unit type.

    ``demand`` is the per-resource usage fraction while active, a float
    tuple for the scheduler's per-slot arithmetic, ``power_weight`` the
    normalized power draw,
    ``processing`` the total service slots required and
    ``relative_deadline`` the slots allowed
    between request and completion.  ``mean_demand`` is the
    activation-requirement factor used by the stability constraint
    (defaults to ``processing``, so rate x mean_demand is the required
    time-average service fraction).
    """

    id: str
    nature: Nature
    priority: Priority
    arrival: Arrival
    demand: tuple[float, ...]
    power_weight: float
    processing: int
    relative_deadline: int
    firm_deadline: bool = False
    mean_demand: float | None = None

    def __post_init__(self):
        # a member, not its string value, so the scheduler can test ``is``
        object.__setattr__(self, "priority", Priority(self.priority))
        object.__setattr__(self, "demand", tuple(map(float, self.demand)))
        # each check passes only valid values, so NaN fails it
        if not all(0.0 <= d <= 1.0 for d in self.demand):
            raise ValueError(f"demand components of task {self.id} must lie in [0,1], got {self.demand}")
        if self.processing < 1:
            raise ValueError(f"processing of task {self.id} must be >= 1 slot, got {self.processing}")
        if self.relative_deadline < self.processing:
            raise ValueError(
                f"relative_deadline of task {self.id}: {self.relative_deadline} < "
                f"processing {self.processing} is permanently unschedulable"
            )
        if not 0.0 <= self.power_weight < math.inf:
            raise ValueError(f"power_weight of task {self.id} must be finite and >= 0, got {self.power_weight}")
        if self.mean_demand is None:
            object.__setattr__(self, "mean_demand", float(self.processing))
        elif not 0.0 <= self.mean_demand < math.inf:
            raise ValueError(f"mean_demand of task {self.id} must be finite and >= 0, got {self.mean_demand}")

    @property
    def stability_fraction(self) -> float:
        """Required time-average service fraction (0 for periodic specs)."""
        if self.arrival.kind != "aperiodic" or self.nature != Nature.MISSION:
            return 0.0
        return self.arrival.rate * float(self.mean_demand)


@dataclass(slots=True)
class TaskInstance:
    """One released job of a spec.

    ``req`` is the request slot, also the earliest start, and
    ``deadline`` the absolute deadline slot (work finishing in slot t is
    on time iff t <= deadline).  The fields are slots: an episode builds
    thousands of instances and the per-slot code reads them often.
    """

    uid: int
    spec: TaskSpec
    req: int
    deadline: int = field(init=False)
    remaining: int = field(init=False)
    state: InstanceState = InstanceState.QUEUED
    service: int = 0  # slots of service received

    def __post_init__(self):
        self.deadline = self.req + self.spec.relative_deadline
        self.remaining = self.spec.processing

    @property
    def active(self) -> bool:
        """Queued or admitted: the instance still holds or awaits capacity."""
        state = self.state
        return state is _QUEUED or state is _ADMITTED

    def run_one_slot(self) -> None:
        run_slot((self,))


def run_slot(instances) -> list[TaskInstance]:
    """Give each instance one slot of service, in order, and return those
    it completes.  An instance with no work left raises ``RuntimeError``."""
    completed = []
    for inst in instances:
        if inst.remaining <= 0:
            raise RuntimeError(f"instance {inst.uid} ran with no remaining work")
        inst.remaining -= 1
        inst.service += 1
        if not inst.remaining:
            inst.state = _COMPLETED
            completed.append(inst)
    return completed


def generate_arrivals(specs: list[TaskSpec], horizon: int, seed) -> list[TaskInstance]:
    """Release instances for every spec over ``horizon`` slots.

    Periodic specs release at 0, interval, 2*interval, ...; aperiodic
    specs release a Poisson count per slot with the spec's mean rate.
    The stream is sorted by request slot, ties broken high-priority
    first then by spec id; it is reproducible given (specs, horizon,
    seed).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    releases: list[tuple[int, int, str, TaskSpec]] = []
    # Per-spec draws keep the stream stable under spec-list reordering.
    for spec in sorted(specs, key=lambda s: s.id):
        if spec.arrival.kind == "periodic":
            for t in range(0, horizon, spec.arrival.interval):
                releases.append((t, 0 if spec.priority is _HIGH else 1, spec.id, spec))
        else:
            if spec.arrival.rate <= 0:
                continue
            counts = rng.poisson(spec.arrival.rate, size=horizon)
            for t in np.flatnonzero(counts):
                for _ in range(int(counts[t])):
                    releases.append((int(t), 0 if spec.priority is _HIGH else 1, spec.id, spec))
    releases.sort(key=lambda r: (r[0], r[1], r[2]))
    return [
        TaskInstance(uid=i, spec=spec, req=t)
        for i, (t, _, _, spec) in enumerate(releases)
    ]


def admit(inst: TaskInstance, t: int) -> InstanceState:
    """Admission check: the instance must be able to finish by its deadline.

    Admitted iff deadline - t >= remaining; otherwise dropped.  Calling
    this on a non-queued instance is a contract violation.
    """
    if inst.state is not _QUEUED:
        raise ValueError(f"admit() called on instance in state {inst.state}")
    state = inst.state = _ADMITTED if inst.deadline - t >= inst.remaining else _DROPPED
    return state

