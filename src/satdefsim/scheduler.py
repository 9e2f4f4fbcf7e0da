"""Defender-side scheduling: detection utility, the greedy slot solver,
receding-horizon planning, an exact brute-force solver for small
instances, and the constraint checker.

Per-slot hard constraints: capacity on every resource type (PS) and a
normalized power budget (PC).  Scans run in fixed-length consecutive
blocks (SD) that must fit inside the current window.  Aperiodic mission
specs carry a time-average service quota (TS).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add, attrgetter, sub

import numpy as np

from .workload import InstanceState, Priority, TaskInstance

_EPS = 1e-9
_CAP = 1.0 + _EPS  # per-resource capacity with the feasibility tolerance
_EDF_KEY = attrgetter("deadline", "uid")


def try_fit(usage: tuple, power: float, demand: tuple, w: float, budget: float) -> tuple | None:
    """``usage + demand`` when it fits every resource and ``power + w``
    fits the power budget, else None.

    Usage and demand are float tuples, one entry per resource type: plain
    float arithmetic is the same IEEE addition numpy would do, without the
    per-call array overhead on vectors of length 2.
    """
    new = tuple(map(add, usage, demand))
    return new if max(new) <= _CAP and power + w <= budget + _EPS else None


class InstanceTooLargeError(ValueError):
    """Brute-force decision space exceeds the configured bound."""


class InfeasibleScheduleError(RuntimeError):
    """No decision sequence satisfies the hard constraints."""


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ScanTask:
    """The schedulable detection scan: demand vector, power draw, block length."""

    demand: np.ndarray
    power_weight: float
    duration: int
    demand_tuple: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "demand", np.asarray(self.demand, dtype=float))
        object.__setattr__(self, "demand_tuple", tuple(map(float, self.demand)))
        if self.duration < 1:
            raise ValueError("scan duration must be >= 1 slot")
        if not np.all((self.demand >= 0) & (self.demand <= 1)):  # NaN fails too
            raise ValueError("scan demand components must lie in [0,1]")


@dataclass(frozen=True)
class SchedulerConfig:
    scan: ScanTask
    power_budget: float = 1.0
    scan_enabled: bool = True
    margin_rule: str = "window"  # "window" | "slot"

    def __post_init__(self):
        if self.margin_rule not in ("window", "slot"):
            raise ValueError("margin_rule must be 'window' or 'slot'")
        if self.power_budget <= 0:
            raise ValueError("power budget must be positive")


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
        return bool(np.any(self.scan_on > 0))

    def to_jsonable(self) -> dict:
        return {
            "start": self.start,
            "length": self.length,
            "scan_on": self.scan_on.astype(int).tolist(),
            "running": [list(map(int, u)) for u in self.running],
            "z": [float(v) for v in self.z],
            "scan_freq": self.scan_freq,
            "z_avg": self.z_avg,
            "objective": self.objective,
            "events": [list(e) for e in self.events],
        }


class GreedyPlanner:
    """Window-scoped greedy slot solver.

    Per slot: (1) high-priority work first, earliest deadline first;
    (2) conditionally start a scan block when the marginal utility is
    positive, capacity allows and no stability quota would be displaced;
    (3) fill remaining capacity with low-priority work, earliest
    deadline first.
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
        if cfg.margin_rule == "slot":
            return slot_utility(y1, True, z_scan, p) - slot_utility(y0, False, z_now, p)
        gain = w * (p.detect_reward * (y1 * y1 - y0 * y0) - p.scan_cost * (f1 - f0))
        penalty = w * p.load_penalty * (y1 * y1 * (1.0 - z_scan) - y0 * y0 * (1.0 - z_now))
        return gain - penalty

    # -- fill helpers ------------------------------------------------------
    def _fill_low(self, low: list[TaskInstance], usage: tuple, power: float):
        """Fill in the given (earliest-deadline-first) order; returns the
        chosen instances, final usage and power, and served counts per spec."""
        chosen = []
        counts: dict[str, int] = {}
        budget = self.config.power_budget
        # Usage and power only grow during the fill, so a spec that did not
        # fit once cannot fit later in it (keyed by identity: every spec is
        # alive in ``low`` for the whole call).
        rejected: set[int] = set()
        for inst in low:
            spec = inst.spec
            if id(spec) in rejected:
                continue
            new = try_fit(usage, power, spec.demand_tuple, spec.power_weight, budget)
            if new is None:
                rejected.add(id(spec))
                continue
            usage = new
            power += spec.power_weight
            chosen.append(inst)
            counts[spec.id] = counts.get(spec.id, 0) + 1
        return chosen, usage, power, counts

    def _quota_displaced(self, t: int, low: list[TaskInstance], usage: tuple, power: float):
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
        fill_scan = self._fill_low(low, tuple(map(add, usage, scan.demand_tuple)), power + scan.power_weight)
        fill_idle = self._fill_low(low, usage, power)
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
        scan_d = scan.demand_tuple
        budget = cfg.power_budget
        usage = (0.0,) * len(scan_d)
        power = 0.0
        events: list[tuple[int, str, str]] = []
        chosen: list[TaskInstance] = []

        # one earliest-deadline-first order for both priority classes
        high: list[TaskInstance] = []
        low: list[TaskInstance] = []
        for inst in sorted(queue, key=_EDF_KEY):
            if inst.spec.priority == Priority.HIGH:
                high.append(inst)
            elif inst.spec.priority == Priority.LOW:
                low.append(inst)

        if forced_scan is not None:
            scan_on = bool(forced_scan)
        else:
            scan_on = cfg.scan_enabled and t < self.scan_active_until
        if scan_on:  # mid-flight or committed block: demand reserved first
            usage = tuple(map(add, usage, scan_d))
            power += scan.power_weight

        # Step 1: high-priority work, earliest deadline first.
        for inst in high:
            spec = inst.spec
            new = try_fit(usage, power, spec.demand_tuple, spec.power_weight, budget)
            if new is not None:
                usage = new
                power += spec.power_weight
                chosen.append(inst)
            elif scan_on and try_fit(
                tuple(map(sub, usage, scan_d)), power - scan.power_weight,
                spec.demand_tuple, spec.power_weight, budget,
            ) is not None:
                events.append((t, "deferred-high-priority", spec.id))
            else:
                events.append((t, "infeasible-slot", spec.id))

        z_now = 1.0 - max(usage)

        # Step 2: conditional scan activation.
        fill = None
        if (
            forced_scan is None
            and cfg.scan_enabled
            and not scan_on
            and t + scan.duration <= self.window_end
            and z_now >= max(scan_d) - _EPS
            and power + scan.power_weight <= budget + _EPS
        ):
            z_scan = min(1.0 - u - s for u, s in zip(usage, scan_d))
            if self._scan_margin(z_now, z_scan) > 0:
                displaced, fill = self._quota_displaced(t, low, usage, power)
                if not displaced:
                    scan_on = True
                    usage = tuple(map(add, usage, scan_d))
                    power += scan.power_weight
                    self.scan_active_until = t + scan.duration
                    self.scan_slots_committed += scan.duration

        # Step 3: fill with low-priority work.
        if fill is None:
            fill = self._fill_low(low, usage, power)
        low_chosen, usage, power, counts = fill
        for spec_id, c in counts.items():
            self.served_in_window[spec_id] = self.served_in_window.get(spec_id, 0) + c
        for inst in chosen:  # high priority so far
            if inst.spec.id in self.stability_targets:
                self.served_in_window[inst.spec.id] = self.served_in_window.get(inst.spec.id, 0) + 1
        chosen.extend(low_chosen)

        z = 1.0 - max(usage)  # = min(1 - usage): rounding is monotone
        return SlotDecision(t=t, running=[i.uid for i in chosen], scan_on=bool(scan_on), z=z, events=events)


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
    project_arrivals: bool = True,
) -> HorizonPlan:
    """Plan one window by applying the greedy slot solver against the
    current backlog plus projected arrivals (periodic exact, aperiodic at
    the expected rate).  Re-solved every window by the caller (receding
    horizon); deterministic for fixed inputs.
    """
    if stability_targets is None:
        stability_targets = {}
        for spec in specs or []:
            frac = spec.stability_fraction
            if frac > 0:
                stability_targets[spec.id] = frac

    sim: list[TaskInstance] = []
    uid_base = -1_000_000  # projected instances use negative uids
    for inst in queue:
        if not inst.active:
            continue
        clone = TaskInstance(uid=inst.uid, spec=inst.spec, req=inst.req, start_after=inst.start_after)
        clone.remaining = inst.remaining
        clone.service = inst.service
        clone.state = InstanceState.ADMITTED
        sim.append(clone)
    if project_arrivals and specs:
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
    scan_on = np.zeros(window_len, dtype=int)
    zs = np.zeros(window_len)
    running: list[list[int]] = []
    events: list[tuple[int, str, str]] = []
    by_uid = {i.uid: i for i in sim}

    for k in range(window_len):
        t = window_start + k
        eligible = [
            i for i in sim
            if i.start_after <= t and not (i.spec.firm_deadline and t > i.deadline)
        ]
        dec = planner.schedule_slot(eligible, t)
        scan_on[k] = int(dec.scan_on)
        zs[k] = dec.z
        running.append(dec.running)
        events.extend(dec.events)
        finished = False
        for uid in dec.running:
            inst = by_uid[uid]
            inst.run_one_slot(t)
            finished = finished or not inst.active
        if finished:  # sim holds only active instances
            sim = [i for i in sim if i.active]

    f = float(np.mean(scan_on))
    y = detection_performance(f, config.scan.duration, utility)
    objective = float(sum(slot_utility(y, scan_on[k], zs[k], utility) for k in range(window_len)))
    return HorizonPlan(
        start=window_start,
        length=window_len,
        scan_on=scan_on,
        running=running,
        z=zs,
        scan_freq=f,
        z_avg=float(np.mean(zs)),
        objective=objective,
        events=events,
    )


# ---------------------------------------------------------------------------
# Constraint checker
# ---------------------------------------------------------------------------

def check_plan(
    plan: HorizonPlan,
    instances: dict[int, TaskInstance],
    config: SchedulerConfig,
    stability_targets: dict[str, float] | None = None,
) -> list[str]:
    """Audit a plan against the hard constraints; returns violation strings.

    Capacity and power are checked per slot; scan activations must be
    consecutive blocks of the configured duration lying inside the
    window.  A stability quota counts as violated only when the served
    fraction is short AND some slot left capacity idle while an eligible
    instance of that spec waited (work-conserving exemption).
    """
    violations: list[str] = []
    n_res = len(config.scan.demand)
    w = plan.length
    stability_targets = stability_targets or {}

    usage = np.zeros((w, n_res))
    power = np.zeros(w)
    served: dict[str, np.ndarray] = {s: np.zeros(w) for s in stability_targets}
    # replay remaining work so eligibility at each slot is well defined
    remaining = {uid: inst.remaining for uid, inst in instances.items()}
    eligible_left: dict[str, list[list[int]]] = {s: [[] for _ in range(w)] for s in stability_targets}

    for k in range(w):
        t = plan.start + k
        if plan.scan_on[k]:
            usage[k] += config.scan.demand
            power[k] += config.scan.power_weight
        scheduled = set(plan.running[k])
        for uid, inst in instances.items():
            spec = inst.spec
            if spec.id in stability_targets and uid not in scheduled:
                expired = spec.firm_deadline and t > inst.deadline
                if inst.start_after <= t and remaining[uid] > 0 and not expired:
                    eligible_left[spec.id][k].append(uid)
        for uid in plan.running[k]:
            inst = instances[uid]
            usage[k] += inst.spec.demand
            power[k] += inst.spec.power_weight
            if inst.spec.id in served:
                served[inst.spec.id][k] += 1
            remaining[uid] -= 1
            if remaining[uid] < 0:
                violations.append(f"instance {uid} scheduled beyond its total work at slot {t}")

    for k in range(w):
        if np.any(usage[k] > 1.0 + 1e-6):
            violations.append(f"capacity exceeded at slot {plan.start + k}: {usage[k]}")
        if power[k] > config.power_budget + 1e-6:
            violations.append(f"power budget exceeded at slot {plan.start + k}: {power[k]:.3f}")

    # scan blocks: maximal runs must be multiples of the block length
    runs = []
    run = 0
    for k in range(w):
        if plan.scan_on[k]:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    for r in runs:
        if r % config.scan.duration != 0:
            violations.append(f"scan run of {r} slots is not a multiple of {config.scan.duration}")

    for spec_id, frac in stability_targets.items():
        if frac <= 0:
            continue
        total = float(np.sum(served[spec_id])) / w
        if total + _EPS >= frac:
            continue
        # exemption: short of quota is tolerated unless some slot left
        # capacity idle while an eligible instance of the spec waited
        wasted = False
        for k in range(w):
            for uid in eligible_left[spec_id][k]:
                inst = instances[uid]
                if np.all(usage[k] + inst.spec.demand <= 1.0 + _EPS) and (
                    power[k] + inst.spec.power_weight <= config.power_budget + _EPS
                ):
                    wasted = True
                    break
            if wasted:
                break
        if wasted:
            violations.append(
                f"stability quota unmet for {spec_id}: served {total:.3f} < {frac:.3f} with idle slack"
            )
    return violations


# ---------------------------------------------------------------------------
# Exact brute-force solver for small instances
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    scan_on: np.ndarray
    activations: dict[int, np.ndarray]  # uid -> {0,1} per slot
    objective: float
    z: np.ndarray


def _scan_patterns(w: int, d_s: int, enabled: bool) -> list[np.ndarray]:
    """All block placements: non-overlapping runs of exactly d_s slots."""
    patterns: list[np.ndarray] = []

    def rec(pos: int, current: np.ndarray):
        patterns.append(current.copy())
        for start in range(pos, w - d_s + 1):
            nxt = current.copy()
            nxt[start : start + d_s] = 1
            rec(start + d_s, nxt)

    rec(0, np.zeros(w, dtype=int))
    if not enabled:
        patterns = [p for p in patterns if not p.any()]
    # dedupe (adjacent blocks reachable along multiple paths)
    uniq = {tuple(p) for p in patterns}
    return [np.array(u, dtype=int) for u in sorted(uniq)]


def _task_patterns(inst: TaskInstance, w: int, min_slots: int = 0) -> np.ndarray:
    """All activation subsets: within eligibility, at most the total work
    and at least ``min_slots`` (the stability quota).  Rows are sorted
    lexicographically."""
    lo = max(inst.start_after, 0)
    hi = min(w, inst.deadline + 1) if inst.spec.firm_deadline else w
    slots = list(range(lo, hi))
    rows = []
    for count in range(max(min_slots, 0), min(inst.remaining, len(slots)) + 1):
        for combo in itertools.combinations(slots, count):
            pat = np.zeros(w, dtype=np.int8)
            pat[list(combo)] = 1
            rows.append(pat)
    if not rows:
        return np.zeros((0, w), dtype=np.int8)
    pats = np.array(rows)
    order = np.lexsort(pats.T[::-1])
    return pats[order]


def exact_schedule(
    instances: list[TaskInstance],
    window_len: int,
    utility: UtilityParams,
    config: SchedulerConfig,
    stability_targets: dict[str, float] | None = None,
    max_space: int = 1 << 24,
) -> OracleResult:
    """Exhaustive optimum of the window objective for a small instance.

    Enumerates every scan-block placement and every per-task activation
    subset, keeps those meeting capacity, power and the per-task
    stability quotas, and maximizes the window objective.  Ties break
    toward fewer scan slots, then the lexicographically smallest
    decision string (scan row first, then task rows by uid).

    Raises InstanceTooLargeError when the decision space exceeds
    ``max_space`` and InfeasibleScheduleError when nothing satisfies the
    constraints.
    """
    w = window_len
    stability_targets = stability_targets or {}
    insts = sorted(instances, key=lambda i: i.uid)
    scan_pats = _scan_patterns(w, config.scan.duration, config.scan_enabled)

    task_pats: list[np.ndarray] = []
    for inst in insts:
        frac = stability_targets.get(inst.spec.id, 0.0)
        min_slots = int(math.ceil(frac * w - _EPS))
        task_pats.append(_task_patterns(inst, w, min_slots))

    space = len(scan_pats)
    for pats in task_pats:
        space *= max(len(pats), 1)
        if space > max_space:
            raise InstanceTooLargeError(f"decision space exceeds {max_space}")
    if any(len(p) == 0 for p in task_pats):
        raise InfeasibleScheduleError("a stability quota exceeds the schedulable slots")

    demands = [i.spec.demand for i in insts]
    powers = [float(i.spec.power_weight) for i in insts]

    best = None  # (obj, scan_count, scan_idx, combo_index_tuple, usage)
    for scan_idx, scan_pat in enumerate(scan_pats):
        usage = (scan_pat[:, None] * config.scan.demand[None, :])[None]
        power = (scan_pat * config.scan.power_weight)[None]
        index = np.zeros((1, 0), dtype=np.int64)
        dead = False
        for pats, dem, pw in zip(task_pats, demands, powers):
            usage = usage[:, None, :, :] + (pats[:, :, None] * dem[None, None, :])[None]
            power = power[:, None, :] + (pats * pw)[None]
            n_prev, n_pat = usage.shape[0], usage.shape[1]
            usage = usage.reshape(n_prev * n_pat, w, -1)
            power = power.reshape(n_prev * n_pat, w)
            index = np.repeat(index, n_pat, axis=0)
            index = np.hstack([index, np.tile(np.arange(n_pat), n_prev)[:, None]])
            ok = np.all(usage <= 1.0 + _EPS, axis=(1, 2)) & np.all(
                power <= config.power_budget + _EPS, axis=1
            )
            if not np.any(ok):
                dead = True
                break
            usage, power, index = usage[ok], power[ok], index[ok]
        if dead:
            continue
        z = 1.0 - usage.max(axis=2)
        f = float(scan_pat.mean())
        y = detection_performance(f, config.scan.duration, utility)
        obj = (
            w * utility.detect_reward * y * y
            - utility.scan_cost * float(scan_pat.sum())
            - utility.load_penalty * y * y * np.sum(1.0 - z, axis=1)
        )
        j = int(np.argmax(obj))  # first max = lexicographically smallest combo
        cand = (
            float(obj[j]),
            -int(scan_pat.sum()),
            tuple(-v for v in scan_pat.tolist()),
            tuple(-v for v in index[j].tolist()),
            scan_idx,
            index[j].copy(),
            z[j].copy(),
        )
        # maximize objective; then fewer scan slots; then lexicographically
        # smallest scan row and task rows (encoded negated so max-compare works)
        if best is None or cand[:4] > best[:4]:
            best = cand
    if best is None:
        raise InfeasibleScheduleError("no feasible decision sequence")
    _, _, _, _, scan_idx, combo, z_best = best
    scan_pat = scan_pats[scan_idx]
    return OracleResult(
        scan_on=scan_pat.astype(int),
        activations={
            inst.uid: task_pats[i][combo[i]].astype(int)
            for i, inst in enumerate(insts)
        },
        objective=best[0],
        z=z_best,
    )
