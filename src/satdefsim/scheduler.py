"""Defender-side scheduling: detection utility, the greedy slot solver
and receding-horizon planning.

Per-slot hard constraints: capacity on every resource type (PS) and a
normalized power budget (PC).  Scans run in fixed-length consecutive
blocks (SD) that must fit inside the current window.  Aperiodic mission
specs carry a time-average service quota (TS).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, attrgetter, sub

import numpy as np

from .workload import Priority, TaskInstance

_EPS = 1e-9
_CAP = 1.0 + _EPS  # per-resource capacity with the feasibility tolerance
_EDF_KEY = attrgetter("deadline", "uid")
# priority members bound once: a class-attribute lookup on an Enum costs
# several times a module global, and the slot solver makes two per instance
_HIGH, _LOW = Priority.HIGH, Priority.LOW


def try_fit(usage: tuple, power: float, demand: tuple, w: float, budget: float) -> tuple | None:
    """``usage + demand`` when it fits every resource and ``power + w``
    fits the power budget, else None.

    Usage and demand are float tuples, one entry per resource type: plain
    float arithmetic is the same IEEE addition numpy would do, without the
    per-call array overhead on vectors of length 2.  It is the one
    capacity and power check: the fcfs rule, the high-priority step and,
    through the memoized ``_fill_chain``, the low-priority fill use it.
    """
    new = tuple(map(add, usage, demand))
    return new if max(new) <= _CAP and power + w <= budget + _EPS else None


_CHAIN_MAX = 32  # states per fill chain


@lru_cache(maxsize=256)
def _fill_chain(demand: tuple, w: float, usage: tuple, power: float, budget: float) -> tuple:
    """The ``(usage, power)`` states that adding instances of one spec
    (``demand``, power ``w``) one at a time reaches from ``(usage, power)``
    under ``try_fit``, up to the first that does not fit or ``_CHAIN_MAX``
    states.

    A chain is a function of its arguments alone, so one is computed per
    spec and start state and then read by every slot that starts there.
    The cache holds at most 256 chains of at most ``_CHAIN_MAX`` states.
    """
    chain = []
    while len(chain) < _CHAIN_MAX:
        usage = try_fit(usage, power, demand, w, budget)
        if usage is None:
            break
        power += w
        chain.append((usage, power))
    return tuple(chain)


@dataclass(frozen=True)
class UtilityParams:
    """Weights of the scheduling objective.

    Reward is detect_reward * y^2, scanning costs scan_cost per active
    slot, and load_penalty * y^2 * (1 - z) discourages scanning into a
    congested system.  ``steepness``/``midpoint`` shape the saturating
    detection curve, ``ceiling`` its maximum.
    """

    detect_reward: float = 10.0
    scan_cost: float = 0.5
    load_penalty: float = 2.0
    steepness: float = 0.5
    midpoint: float = 0.5
    ceiling: float = 1.0

    def __post_init__(self):
        for name in ("detect_reward", "scan_cost", "load_penalty", "steepness", "midpoint", "ceiling"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class ScanTask:
    """The schedulable detection scan: demand (a float tuple), block
    length and power draw."""

    demand: tuple[float, ...]
    duration: int
    power_weight: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "demand", tuple(map(float, self.demand)))
        # each check passes only valid values, so NaN fails it
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1 slot, got {self.duration}")
        if not 0.0 <= self.power_weight < math.inf:
            raise ValueError(f"power_weight (the scan power) must be finite and >= 0, got {self.power_weight}")
        if not all(0.0 <= d <= 1.0 for d in self.demand):
            raise ValueError(f"demand components of the scan must lie in [0,1], got {self.demand}")


@dataclass(frozen=True)
class SchedulerConfig:
    scan: ScanTask
    power_budget: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.power_budget < math.inf:  # NaN fails too
            raise ValueError(f"power_budget (the per-slot power budget) must be finite and > 0, got {self.power_budget}")


def detection_performance(scan_freq: float, scan_duration: int, p: UtilityParams) -> float:
    """Saturating detection curve in the total scan effort f*d_s."""
    effort = scan_freq * scan_duration
    return p.ceiling / (1.0 + math.exp(-p.steepness * (effort - p.midpoint)))


def slot_utility(y: float, scan_on: bool | int, z: float, p: UtilityParams) -> float:
    """One slot's utility: reward minus scan cost minus load-adaptive penalty."""
    x = 1.0 if scan_on else 0.0
    return p.detect_reward * y * y - p.scan_cost * x * x - p.load_penalty * y * y * (1.0 - z)


@dataclass
class SlotDecision:
    t: int
    running: list[int]  # instance uids scheduled this slot
    scan_on: bool
    z: float  # idle capacity after all allocations
    events: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass
class HorizonPlan:
    """One window's decisions and realized planning quantities."""

    start: int
    length: int
    scan_on: np.ndarray  # int {0,1} per slot
    running: list[list[int]]  # uids per slot
    z: np.ndarray
    scan_freq: float
    z_avg: float
    objective: float
    events: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def has_scan(self) -> bool:
        return bool(self.scan_on.any())



class GreedyPlanner:
    """Window-scoped greedy slot solver.

    Per slot: (1) high-priority work first, earliest deadline first;
    (2) conditionally start a scan block when the marginal utility is
    positive, capacity allows and no stability quota would be displaced;
    (3) fill remaining capacity with low-priority work, earliest
    deadline first.

    The low-priority queue is filled by runs: consecutive instances (in
    earliest-deadline-first order) of one spec.  A run takes as many
    instances as its spec's memoized fill chain from the current usage
    and power allows (``_fill_chain``, bounded in entries and length), so
    a slot costs one cache read per run instead of one capacity check
    per instance, with the same sums in the same order.
    """

    def __init__(
        self,
        utility: UtilityParams,
        config: SchedulerConfig,
        window_start: int,
        window_len: int,
        stability_targets: dict[str, float] | None = None,
    ):
        self.utility = utility
        self.config = config
        self.window_start = window_start
        self.window_len = window_len
        self.window_end = window_start + window_len
        self.stability_targets = stability_targets or {}
        self.scan_slots_committed = 0  # total scan slots this window (past + committed)
        self.scan_active_until = window_start  # exclusive
        self.served_in_window: dict[str, int] = {}

    # -- marginal utility -------------------------------------------------
    def _scan_margin(self, z_now: float, z_scan: float) -> float:
        p, cfg = self.utility, self.config
        w = self.window_len
        d_s = cfg.scan.duration
        f0 = self.scan_slots_committed / w
        f1 = (self.scan_slots_committed + d_s) / w
        y0 = detection_performance(f0, d_s, p)
        y1 = detection_performance(f1, d_s, p)
        gain = w * (p.detect_reward * (y1 * y1 - y0 * y0) - p.scan_cost * (f1 - f0))
        penalty = w * p.load_penalty * (y1 * y1 * (1.0 - z_scan) - y0 * y0 * (1.0 - z_now))
        return gain - penalty

    # -- fill helpers ------------------------------------------------------
    def _fill_low(self, runs: list[list[TaskInstance]], usage: tuple, power: float):
        """Fill in the given (earliest-deadline-first) order, given as runs
        of one spec; returns the chosen instances, final usage and power,
        and served counts per spec."""
        chosen = []
        counts: dict[str, int] = {}
        budget = self.config.power_budget
        # Usage and power only grow during the fill, so a spec that did not
        # fit once cannot fit later in it (keyed by identity: every spec is
        # alive in ``runs`` for the whole call).
        rejected: set[int] = set()
        for run in runs:
            spec = run[0].spec
            key = id(spec)
            if key in rejected:
                continue
            demand, w = spec.demand, spec.power_weight
            n = len(run)
            taken = 0
            while True:  # a run longer than one chain goes on from its end
                chain = _fill_chain(demand, w, usage, power, budget)
                k = min(n - taken, len(chain))
                if k:
                    usage, power = chain[k - 1]
                    taken += k
                if taken == n or k < _CHAIN_MAX:
                    break
            if taken:
                chosen.extend(run if taken == n else run[:taken])
                counts[spec.id] = counts.get(spec.id, 0) + taken
            if taken < n:
                rejected.add(key)
        return chosen, usage, power, counts

    def _quota_displaced(self, t: int, runs: list[list[TaskInstance]], usage: tuple, power: float):
        """Would the scan displace work needed by a behind-quota spec?

        Returns the answer and, when both fills were computed, the one
        that matches it (with the scan if not displaced, else without),
        so the caller can reuse it as its low-priority fill.
        """
        behind = set()
        elapsed = t - self.window_start + 1
        for spec_id, frac in self.stability_targets.items():
            if frac <= 0:
                continue
            if self.served_in_window.get(spec_id, 0) + _EPS < frac * elapsed:
                behind.add(spec_id)
        if not behind:
            return False, None
        scan = self.config.scan
        fill_scan = self._fill_low(runs, tuple(map(add, usage, scan.demand)), power + scan.power_weight)
        fill_idle = self._fill_low(runs, usage, power)
        with_scan, without = fill_scan[3], fill_idle[3]
        if any(with_scan.get(s, 0) < without.get(s, 0) for s in behind):
            return True, fill_idle
        return False, fill_scan

    # -- the slot solver ---------------------------------------------------
    def schedule_slot(self, queue: list[TaskInstance], t: int, forced_scan: bool | None = None) -> SlotDecision:
        """Decide one slot.  ``queue`` holds admitted instances eligible at t.

        ``forced_scan`` executes a pre-committed scan pattern (the scan
        activation step is skipped); the scan demand is still reserved
        ahead of everything else.
        """
        cfg = self.config
        scan = cfg.scan
        scan_d = scan.demand
        budget = cfg.power_budget
        usage = (0.0,) * len(scan_d)
        power = 0.0
        events: list[tuple[int, str, str]] = []
        chosen: list[TaskInstance] = []

        # one earliest-deadline-first order for both priority classes; the
        # low-priority instances in runs of one spec (high-priority ones
        # between two instances of a low spec do not split its run)
        high: list[TaskInstance] = []
        runs: list[list[TaskInstance]] = []
        run_spec = None
        for inst in sorted(queue, key=_EDF_KEY):
            spec = inst.spec
            if spec is run_spec:
                run.append(inst)
            elif spec.priority is _HIGH:
                high.append(inst)
            elif spec.priority is _LOW:
                run_spec = spec
                run = [inst]
                runs.append(run)

        if forced_scan is not None:
            scan_on = bool(forced_scan)
        else:
            scan_on = t < self.scan_active_until
        if scan_on:  # mid-flight or committed block: demand reserved first
            usage = tuple(map(add, usage, scan_d))
            power += scan.power_weight

        # Step 1: high-priority work, earliest deadline first.
        for inst in high:
            spec = inst.spec
            new = try_fit(usage, power, spec.demand, spec.power_weight, budget)
            if new is not None:
                usage = new
                power += spec.power_weight
                chosen.append(inst)
            elif scan_on and try_fit(
                tuple(map(sub, usage, scan_d)), power - scan.power_weight,
                spec.demand, spec.power_weight, budget,
            ) is not None:
                events.append((t, "deferred-high-priority", spec.id))
            else:
                events.append((t, "infeasible-slot", spec.id))

        z_now = 1.0 - max(usage)

        # Step 2: conditional scan activation.
        fill = None
        if (
            forced_scan is None
            and not scan_on
            and t + scan.duration <= self.window_end
            and z_now >= max(scan_d) - _EPS
            and power + scan.power_weight <= budget + _EPS
        ):
            z_scan = min(1.0 - u - s for u, s in zip(usage, scan_d))
            if self._scan_margin(z_now, z_scan) > 0:
                displaced, fill = self._quota_displaced(t, runs, usage, power)
                if not displaced:
                    scan_on = True
                    usage = tuple(map(add, usage, scan_d))
                    power += scan.power_weight
                    self.scan_active_until = t + scan.duration
                    self.scan_slots_committed += scan.duration

        # Step 3: fill with low-priority work.
        if fill is None:
            fill = self._fill_low(runs, usage, power)
        low_chosen, usage, power, counts = fill
        served = self.served_in_window
        for spec_id, c in counts.items():
            served[spec_id] = served.get(spec_id, 0) + c
        targets = self.stability_targets
        for inst in chosen:  # high priority so far
            spec_id = inst.spec.id
            if spec_id in targets:
                served[spec_id] = served.get(spec_id, 0) + 1
        chosen.extend(low_chosen)

        z = 1.0 - max(usage)  # = min(1 - usage): rounding is monotone
        return SlotDecision(t=t, running=[i.uid for i in chosen], scan_on=bool(scan_on), z=z, events=events)


def stability_targets_of(specs) -> dict[str, float]:
    """The service quota of each spec that has one: its id and its
    ``stability_fraction`` where that is positive."""
    return {s.id: s.stability_fraction for s in specs if s.stability_fraction > 0}


def _project_aperiodic(spec, window_start: int, window_len: int, uid_base: int) -> list[TaskInstance]:
    """Deterministic evenly spaced stand-ins for an aperiodic stream."""
    rate = spec.arrival.rate
    n = int(math.floor(rate * window_len + 0.5))
    out = []
    for i in range(n):
        t = window_start + int(math.floor((i + 0.5) / rate)) if rate > 0 else window_start
        t = min(t, window_start + window_len - 1)
        out.append(TaskInstance(uid=uid_base + i, spec=spec, req=t, start_after=t))
    return out


def plan_horizon(
    queue: list[TaskInstance],
    window_start: int,
    window_len: int,
    utility: UtilityParams,
    config: SchedulerConfig,
    specs=None,
    stability_targets: dict[str, float] | None = None,
) -> HorizonPlan:
    """Plan one window by applying the greedy slot solver against the
    current backlog plus arrivals projected from ``specs`` (periodic
    exact, aperiodic at the expected rate).  Re-solved every window by the
    caller (receding horizon); deterministic for fixed inputs.  The
    window is simulated on a map of remaining work, so the caller's
    instances are left untouched.
    """
    if stability_targets is None:
        stability_targets = stability_targets_of(specs or ())

    sim = [inst for inst in queue if inst.active]
    uid_base = -1_000_000  # projected instances use negative uids
    if specs:
        for spec in sorted(specs, key=lambda s: s.id):
            if spec.arrival.kind == "periodic":
                first = window_start + (-window_start) % spec.arrival.interval
                for t in range(first, window_start + window_len, spec.arrival.interval):
                    sim.append(TaskInstance(uid=uid_base, spec=spec, req=t, start_after=t))
                    uid_base -= 1
            elif spec.arrival.rate > 0:
                proj = _project_aperiodic(spec, window_start, window_len, uid_base)
                sim.extend(proj)
                uid_base -= len(proj)

    planner = GreedyPlanner(utility, config, window_start, window_len, stability_targets)
    scan_on: list[int] = []
    zs: list[float] = []
    running: list[list[int]] = []
    events: list[tuple[int, str, str]] = []
    left = {i.uid: i.remaining for i in sim}

    for t in range(window_start, window_start + window_len):
        eligible = [
            i for i in sim
            if i.start_after <= t and not (i.spec.firm_deadline and t > i.deadline)
        ]
        dec = planner.schedule_slot(eligible, t)
        scan_on.append(int(dec.scan_on))
        zs.append(dec.z)
        running.append(dec.running)
        events.extend(dec.events)
        finished = False
        for uid in dec.running:
            left[uid] -= 1
            finished = finished or left[uid] == 0
        if finished:  # sim holds only instances with work left
            sim = [i for i in sim if left[i.uid]]

    f = sum(scan_on) / window_len  # exact: an integer count over the length
    y = detection_performance(f, config.scan.duration, utility)
    objective = 0.0  # a plain loop: from Python 3.12 on, sum() of floats is compensated
    for x, z in zip(scan_on, zs):
        objective += slot_utility(y, x, z, utility)
    z_arr = np.array(zs)
    return HorizonPlan(
        start=window_start,
        length=window_len,
        scan_on=np.array(scan_on, dtype=int),
        running=running,
        z=z_arr,
        scan_freq=f,
        z_avg=float(np.mean(z_arr)),  # numpy's summation, not Python's
        objective=objective,
        events=events,
    )
