"""Defender-side scheduling: detection utility, the greedy slot solver
and receding-horizon planning.

Per-slot hard constraints: capacity on every resource type (PS) and a
normalized power budget (PC).  Scans run in fixed-length consecutive
blocks (SD) that must fit inside the current window.  Aperiodic mission
specs carry a time-average service quota (TS).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add, attrgetter, sub

import numpy as np

from .workload import InstanceState, Priority, TaskInstance, TaskSpec

_EPS = 1e-9
_CAP = 1.0 + _EPS  # per-resource capacity with the feasibility tolerance
_EDF_KEY = attrgetter("deadline", "uid")
_SPEC_ID = attrgetter("id")
# bound once: a class-attribute lookup on an Enum costs several times a
# module global, and the queue makes one per update
_HIGH = Priority.HIGH
_QUEUED, _ADMITTED = InstanceState.QUEUED, InstanceState.ADMITTED


def try_fit(usage: tuple, power: float, demand: tuple, w: float, budget: float) -> tuple | None:
    """``usage + demand`` when it fits every resource and ``power + w``
    fits the power budget, else None.

    Usage and demand are float tuples, one entry per resource type: plain
    float arithmetic is the same IEEE addition numpy would do, without the
    per-call array overhead on vectors of length 2.  It is the one
    capacity and power check: the fcfs rule and both priority steps of
    the greedy slot solver use it.
    """
    new = tuple(map(add, usage, demand))
    return new if max(new) <= _CAP and power + w <= budget + _EPS else None


_MEMO_MAX = 1024  # slot decisions per memo scope


@lru_cache(maxsize=8)
def _slot_memo(utility: UtilityParams, config: SchedulerConfig, window_len: int, targets: tuple) -> dict:
    """The memo of slot decisions shared by every planner of one scope:
    utility, config, window length and stability targets (as sorted
    items), all compared by value.  ``schedule_slot`` empties a memo
    that reaches ``_MEMO_MAX`` decisions; the cache keeps 8 scopes."""
    return {}


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


def slot_utility(y, scan_on, z, p: UtilityParams):
    """One slot's utility: reward minus scan cost minus load-adaptive penalty.

    ``y``, ``scan_on`` and ``z`` may also be numpy arrays with one entry
    per slot (``scan_on`` of flags), and the result is then each slot's
    utility as an array: every entry is computed with the float
    operations of the scalar form in the same order, so it has its bits.
    """
    x = np.where(scan_on, 1.0, 0.0) if isinstance(scan_on, np.ndarray) else (1.0 if scan_on else 0.0)
    return p.detect_reward * y * y - p.scan_cost * x * x - p.load_penalty * y * y * (1.0 - z)


def window_utility(scan_on, z, scan_duration: int, p: UtilityParams) -> float:
    """The ``episode_utility`` of one window: each slot's ``slot_utility``
    at the detection performance of the window's scan frequency, summed in
    slot order.  ``scan_on`` and ``z`` are per-slot sequences or arrays."""
    return episode_utility(scan_on, z, len(scan_on), scan_duration, p)


def episode_utility(scan_on, z, window: int, scan_duration: int, p: UtilityParams) -> float:
    """The defender utility of the slots ``scan_on`` and ``z`` (per-slot
    flags and idle capacities, as sequences or arrays), taken in windows of
    ``window`` slots from the first (the last may be shorter): each slot's
    ``slot_utility`` at the detection performance of its window's scan
    frequency.  The slots' utilities are computed as one array and added
    as a plain running sum from 0.0 in slot order, so the total has the
    bits of a loop over the slots (``sum()`` is not used: from Python 3.12
    on it compensates a float sum)."""
    flags = np.asarray(scan_on, dtype=bool)
    h = len(flags)
    starts = np.arange(0, h, window)
    lengths = np.diff(starts, append=h)
    # each window's scan frequency: its integer scan count over its length
    freq, where = np.unique(np.add.reduceat(flags, starts, dtype=int) / lengths, return_inverse=True)
    y = np.array([detection_performance(f, scan_duration, p) for f in freq.tolist()])
    utility = slot_utility(np.repeat(y[where], lengths), flags, np.asarray(z, dtype=float), p)
    return reduce(add, utility.tolist(), 0.0)


@dataclass(slots=True)
class SlotDecision:
    """One slot as decided, usage and power summed in the solver's order."""

    t: int
    running: list[int]  # instance uids scheduled this slot
    scan_on: bool
    z: float  # idle capacity after all allocations: 1 - max(usage)
    usage: tuple[float, ...]  # per-resource usage after all allocations
    power: float  # power drawn after all allocations
    events: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass(slots=True)
class HorizonPlan:
    """One window's decisions and realized planning quantities."""

    start: int
    length: int
    scan_on: np.ndarray  # int {0,1} per slot
    running: list[list[int]]  # uids per slot
    z: np.ndarray
    scan_freq: float
    z_avg: float
    events: list[tuple[int, str, str]] = field(default_factory=list)


class EdfQueue:
    """The slot solver's queue in one earliest-deadline-first order, by
    ``(deadline, uid)``, kept split the way the solver reads it: the
    high-priority instances, and the low-priority runs.  A run is a
    maximal sequence of consecutive low-priority instances of one spec in
    that order; high-priority instances between two of them do not split
    it.

    ``add`` and ``discard`` (or ``pop`` by uid) find an instance's place
    by bisection on its key, so uids are unique within a queue (``add``
    refuses a uid the queue holds, ``discard`` an instance it does not
    hold) and an instance's deadline must not change while it is queued.  An instance
    that lands inside a run of another spec splits that run in two; a
    discard that empties a run between two runs of one spec merges them.

    ``split()`` returns ``(high_uids, run_uids, high_specs, run_specs,
    shape)``: the high-priority uids and specs in order, each run's uids
    and spec, and the shape key the slot memo reads, the ids of the high
    specs and ``(id(spec), length)`` of each run.  The queue keeps the ids
    as it changes (a tuple of the high specs' ids, rebuilt only on a
    high-priority update, and a list of the run specs' ids), so a split
    builds only the shape.  The same tuple is returned until the next
    ``add`` or ``discard``; its lists are the queue's own and change with
    it.  ``len`` counts the instances, and iteration yields them in the
    order they were added (a built queue's in EDF order); a discard keeps
    the order of the rest, and ``copy()`` keeps the order too.  The
    defender pass adds arrivals in uid order, so its fcfs rule reads them
    in request order.
    """

    __slots__ = (
        "_members", "_high_keys", "_high_uids", "_high_specs", "_high_ids",
        "_run_specs", "_run_ids", "_run_keys", "_run_uids", "_run_lasts", "_split",
    )

    def __init__(self, instances=()):
        """A queue of ``instances``, added in earliest-deadline-first order."""
        self._members: dict[int, TaskInstance] = {}
        self._high_keys, self._high_uids, self._high_specs = [], [], []
        self._high_ids = ()
        self._run_specs, self._run_ids, self._run_keys, self._run_uids = [], [], [], []
        self._run_lasts = []  # each run's last key, ascending
        self._split = None
        for inst in sorted(instances, key=_EDF_KEY):
            self.add(inst)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members.values())

    def _insert_run(self, j: int, spec: TaskSpec, keys: list, uids: list) -> None:
        self._run_specs.insert(j, spec)
        self._run_ids.insert(j, id(spec))
        self._run_keys.insert(j, keys)
        self._run_uids.insert(j, uids)
        self._run_lasts.insert(j, keys[-1])

    def add(self, inst: TaskInstance) -> None:
        uid = inst.uid
        members = self._members
        if uid in members:
            raise ValueError(f"uid {uid} is already queued")
        members[uid] = inst
        self._split = None
        key = (inst.deadline, uid)
        spec = inst.spec
        if spec.priority is _HIGH:
            i = bisect_left(self._high_keys, key)
            self._high_keys.insert(i, key)
            self._high_uids.insert(i, uid)
            self._high_specs.insert(i, spec)
            self._high_ids = tuple(map(id, self._high_specs))
            return
        specs, lasts = self._run_specs, self._run_lasts
        j = bisect_left(lasts, key)  # the first run that ends after key
        if j < len(lasts):
            keys, uids = self._run_keys[j], self._run_uids[j]
            if keys[0] < key:  # inside run j
                i = bisect_left(keys, key)
                if specs[j] is spec:
                    keys.insert(i, key)
                    uids.insert(i, uid)
                    return
                # another spec's instance splits run j around it
                self._insert_run(j + 1, specs[j], keys[i:], uids[i:])
                del keys[i:], uids[i:]
                lasts[j] = keys[-1]
                self._insert_run(j + 1, spec, [key], [uid])
                return
            if specs[j] is spec:  # just ahead of a run of its spec
                keys.insert(0, key)
                uids.insert(0, uid)
                return
        if j and specs[j - 1] is spec:  # just behind a run of its spec
            self._run_keys[j - 1].append(key)
            self._run_uids[j - 1].append(uid)
            lasts[j - 1] = key
            return
        self._insert_run(j, spec, [key], [uid])

    def discard(self, inst: TaskInstance) -> None:
        uid = inst.uid
        members = self._members
        if members.get(uid) is not inst:
            raise KeyError(f"instance {uid} is not queued")
        del members[uid]
        self._split = None
        key = (inst.deadline, uid)
        if inst.spec.priority is _HIGH:
            i = bisect_left(self._high_keys, key)
            del self._high_keys[i], self._high_uids[i], self._high_specs[i]
            self._high_ids = tuple(map(id, self._high_specs))
            return
        specs, ids, lasts = self._run_specs, self._run_ids, self._run_lasts
        run_keys, run_uids = self._run_keys, self._run_uids
        j = bisect_left(lasts, key)  # the run that holds key
        keys, uids = run_keys[j], run_uids[j]
        i = bisect_left(keys, key)
        del keys[i], uids[i]
        if keys:
            lasts[j] = keys[-1]
            return
        del specs[j], ids[j], run_keys[j], run_uids[j], lasts[j]
        if 0 < j < len(specs) and specs[j - 1] is specs[j]:  # the runs either side merge
            run_keys[j - 1] += run_keys.pop(j)
            run_uids[j - 1] += run_uids.pop(j)
            lasts[j - 1] = lasts.pop(j)
            del specs[j], ids[j]

    def copy(self) -> EdfQueue:
        """A queue of the same instances, in the same order, that changes
        apart from this one."""
        new = EdfQueue.__new__(EdfQueue)
        new._members = self._members.copy()
        new._high_keys, new._high_uids, new._high_specs = (
            self._high_keys.copy(), self._high_uids.copy(), self._high_specs.copy()
        )
        new._high_ids = self._high_ids
        new._run_specs, new._run_ids = self._run_specs.copy(), self._run_ids.copy()
        new._run_lasts = self._run_lasts.copy()
        new._run_keys = list(map(list.copy, self._run_keys))
        new._run_uids = list(map(list.copy, self._run_uids))
        new._split = None
        return new

    def pop(self, uid: int) -> TaskInstance:
        """Remove the instance with this uid and return it."""
        inst = self._members[uid]
        self.discard(inst)
        return inst

    def split(self):
        split = self._split
        if split is None:
            run_uids = self._run_uids
            shape = (self._high_ids, tuple(zip(self._run_ids, map(len, run_uids))))
            split = self._split = (self._high_uids, run_uids, self._high_specs, self._run_specs, shape)
        return split


class GreedyPlanner:
    """Greedy slot solver of one scope: utility, config, window length and
    stability targets.  It decides the slots of one window at a time;
    ``open_window`` starts the next window of the same scope, so that
    ``plan_horizon`` keeps one planner while the scope repeats.

    Per slot: (1) high-priority work first, earliest deadline first;
    (2) conditionally start a scan block when the marginal utility is
    positive, capacity allows and no stability quota would be displaced;
    (3) fill remaining capacity with low-priority work, earliest
    deadline first.

    A decision reads the queue only through its shape: the specs of the
    high-priority instances and the ``(spec, length)`` of each
    low-priority run (consecutive instances of one spec in
    earliest-deadline-first order).  Besides the shape, it reads the
    scan state, whether a scan can start, the scan slots committed and
    which specs are behind their quota.  Decisions are memoized on these
    in ``_slot_memo``, shared by every planner of the same utility,
    config, window length and targets.  A hit replays the stored
    positions, usage, power, events, served counts and scan commit on
    the current queue.  The queue is an ``EdfQueue``, which keeps its
    split up to date as instances join and leave it and hands the same
    split back until the next change, so a slot whose queue did not
    change reads its shape without a walk.

    Repeat rule: where no scan can start, a decision reads only the scan
    state and the shape.  So a slot in which no scan can start, whose
    split is the very tuple of the last call and whose scan state is the
    last call's, in which no scan could start either, repeats that call:
    it replays the last decision and returns the last ``running`` list
    itself, and only its served counts are added again.  The planner
    holds that split, so the identity test cannot meet a new tuple at a
    freed address.  ``open_window`` forgets the last call.
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
        self.window_len = window_len
        self.stability_targets = stability_targets or {}
        self._memo = _slot_memo(utility, config, window_len, tuple(sorted(self.stability_targets.items())))
        self._stand_ins = None  # the plan's stand-in templates of this scope
        self.open_window(window_start)

    def open_window(self, window_start: int) -> None:
        """Start the window at ``window_start``: no scan slot committed or
        running, no service counted."""
        self.window_start = window_start
        self.window_end = window_start + self.window_len
        self.scan_slots_committed = 0  # total scan slots this window (past + committed)
        self.scan_active_until = window_start  # exclusive
        self.served_in_window: dict[str, int] = {}
        # the last slot's split, scan state, decision and running list, kept
        # only where no scan could start in it (see the repeat rule)
        self._last = None

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
    def _fill_low(self, runs: list[tuple[TaskSpec, int]], usage: tuple, power: float):
        """Fill in earliest-deadline-first order, given as runs ``(spec,
        n)`` of n consecutive instances of one spec: each run takes
        instances until the next does not fit.  Returns the instances
        taken as ``(run index, count)`` pairs for the runs that took
        any, the final usage and power, and served counts per spec."""
        taken = []
        counts: dict[str, int] = {}
        budget = self.config.power_budget
        # Usage and power only grow during the fill, so a spec that did not
        # fit once cannot fit later in it (keyed by identity: every spec is
        # alive in ``runs`` for the whole call).
        rejected: set[int] = set()
        for j, (spec, n) in enumerate(runs):
            if id(spec) in rejected:
                continue
            demand, w = spec.demand, spec.power_weight
            k = 0
            while k < n:
                new = try_fit(usage, power, demand, w, budget)
                if new is None:
                    break
                usage = new
                power += w
                k += 1
            if k:
                taken.append((j, k))
                counts[spec.id] = counts.get(spec.id, 0) + k
            if k < n:
                rejected.add(id(spec))
        return tuple(taken), usage, power, counts

    def _behind(self, t: int) -> tuple[str, ...]:
        """The specs whose service so far this window is short of their
        quota at slot t."""
        elapsed = t - self.window_start + 1
        served = self.served_in_window
        return tuple(
            spec_id for spec_id, frac in self.stability_targets.items()
            if frac > 0 and served.get(spec_id, 0) + _EPS < frac * elapsed
        )

    def _quota_displaced(self, behind: tuple[str, ...], runs: list[tuple[TaskSpec, int]], usage: tuple, power: float):
        """Would the scan displace work needed by a spec in ``behind``?

        Returns the answer and, when both fills were computed, the one
        that matches it (with the scan if not displaced, else without),
        so the caller can reuse it as its low-priority fill.
        """
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
    def _decide(self, high_specs: list[TaskSpec], runs: list[tuple[TaskSpec, int]], scan_on: bool, can_start: bool, behind: tuple[str, ...]):
        """One slot's decision from the queue's shape, as the memo stores
        it: the positions of the high-priority instances run, the low
        runs' ``(index, count)`` pairs, the scan state, whether the scan
        starts, the idle capacity, usage and power, the events as ``(kind,
        spec id)``, the served counts as ``(spec id, count)`` and the specs
        the shape names (kept alive, since the memo keys them by identity)."""
        cfg = self.config
        scan = cfg.scan
        scan_d = scan.demand
        budget = cfg.power_budget
        usage = (0.0,) * len(scan_d)
        power = 0.0
        if scan_on:  # mid-flight or committed block: demand reserved first
            usage = tuple(map(add, usage, scan_d))
            power += scan.power_weight

        # Step 1: high-priority work, earliest deadline first.
        high_pos: list[int] = []
        events: list[tuple[str, str]] = []
        for pos, spec in enumerate(high_specs):
            new = try_fit(usage, power, spec.demand, spec.power_weight, budget)
            if new is not None:
                usage = new
                power += spec.power_weight
                high_pos.append(pos)
            elif scan_on and try_fit(
                tuple(map(sub, usage, scan_d)), power - scan.power_weight,
                spec.demand, spec.power_weight, budget,
            ) is not None:
                events.append(("deferred-high-priority", spec.id))
            else:
                events.append(("infeasible-slot", spec.id))

        z_now = 1.0 - max(usage)

        # Step 2: conditional scan activation.
        fill = None
        started = False
        if (
            can_start
            and z_now >= max(scan_d) - _EPS
            and power + scan.power_weight <= budget + _EPS
        ):
            z_scan = min(1.0 - u - s for u, s in zip(usage, scan_d))
            if self._scan_margin(z_now, z_scan) > 0:
                displaced, fill = self._quota_displaced(behind, runs, usage, power)
                if not displaced:
                    started = scan_on = True
                    usage = tuple(map(add, usage, scan_d))
                    power += scan.power_weight

        # Step 3: fill with low-priority work.
        if fill is None:
            fill = self._fill_low(runs, usage, power)
        taken, usage, power, counts = fill
        served = dict(counts)
        targets = self.stability_targets
        for pos in high_pos:
            spec_id = high_specs[pos].id
            if spec_id in targets:
                served[spec_id] = served.get(spec_id, 0) + 1

        z = 1.0 - max(usage)  # = min(1 - usage): rounding is monotone
        return (
            tuple(high_pos), taken, scan_on, started, z, usage, power, tuple(events),
            tuple(served.items()), (tuple(high_specs), tuple(runs)),
        )

    def schedule_slot(self, queue: EdfQueue, t: int, forced_scan: bool | None = None) -> SlotDecision:
        """Decide one slot.  ``queue`` holds admitted instances eligible at t.

        ``forced_scan`` executes a pre-committed scan pattern (the scan
        activation step is skipped); the scan demand is still reserved
        ahead of everything else.

        The slot reads ``queue.split()``, ``(high_uids, run_uids,
        high_specs, run_specs, shape)``, and looks its decision up by the
        shape; only a memo miss pairs each run spec with its length for
        ``_decide``.  A slot that repeats the last one (the class's repeat
        rule) reads neither, and its ``running`` is the last slot's list.
        """
        split = queue.split()
        if forced_scan is not None:
            scan_on, can_start = bool(forced_scan), False
        else:
            scan_on = t < self.scan_active_until
            can_start = not scan_on and t + self.config.scan.duration <= self.window_end
        last = self._last
        if not can_start and last is not None and last[0] is split and last[1] is scan_on:
            _, _, decision, running = last
        else:
            high_uids, run_uids, high_specs, run_specs, shape = split
            # where no scan can start, the commitment and the quotas are unread
            behind = self._behind(t) if can_start else ()
            key = (scan_on, can_start, self.scan_slots_committed if can_start else 0, behind, shape)
            memo = self._memo
            decision = memo.get(key)
            if decision is None:
                if len(memo) >= _MEMO_MAX:
                    memo.clear()
                runs = list(zip(run_specs, map(len, run_uids)))
                decision = memo[key] = self._decide(high_specs, runs, scan_on, can_start, behind)
            high_pos, taken = decision[0], decision[1]
            running = [high_uids[i] for i in high_pos]
            for j, k in taken:
                running += run_uids[j][:k]
            self._last = None if can_start else (split, scan_on, decision, running)
        _, _, scan_on, started, z, usage, power, events, served_add, _ = decision

        if started:
            self.scan_active_until = t + self.config.scan.duration
            self.scan_slots_committed += self.config.scan.duration
        served = self.served_in_window
        for spec_id, c in served_add:
            served[spec_id] = served.get(spec_id, 0) + c
        return SlotDecision(
            t, running, scan_on, z, usage, power,
            [(t, kind, spec_id) for kind, spec_id in events] if events else [],
        )


def stability_targets_of(specs) -> dict[str, float]:
    """The service quota of each spec that has one: its id and its
    ``stability_fraction`` where that is positive."""
    return {s.id: s.stability_fraction for s in specs if s.stability_fraction > 0}


def _aperiodic_offsets(rate: float, window_len: int) -> tuple[int, ...]:
    """The slots, as offsets from the window start, of a window's evenly
    spaced stand-ins for an aperiodic stream at the expected rate."""
    n = int(math.floor(rate * window_len + 0.5))
    return tuple(min(int(math.floor((i + 0.5) / rate)), window_len - 1) for i in range(n))


def _stand_in_template(planner: GreedyPlanner, specs, window_start: int) -> tuple:
    """The projected arrivals of the window of ``planner``'s scope that
    starts at ``window_start``, as ``(uid, spec, offset, work, expiry)``:
    the stand-in's uid, its spec and its release slot as an offset from
    the window start; its work where it can finish inside the window,
    else 0; and the offset of the slot after its deadline where it is
    firm and that slot falls inside the window, else None.

    A stand-in's offsets and uid depend only on the specs, the window
    length and the phase of the window start against each periodic spec's
    interval, so the planner keeps one template per phase.  Its templates
    are keyed on the identities of the spec objects, which are frozen and
    which the planner keeps alive: an equal spec list of other objects, or
    a list changed in place, starts them afresh."""
    ids = tuple(map(id, specs))
    held = planner._stand_ins
    if held is None or held[0] != ids:
        ordered = sorted(specs, key=_SPEC_ID)
        intervals = tuple(s.arrival.interval for s in ordered if s.arrival.kind == "periodic")
        held = planner._stand_ins = (ids, ordered, intervals, {})
    _, ordered, intervals, templates = held
    phases = tuple(window_start % interval for interval in intervals)
    template = templates.get(phases)
    if template is None:
        if len(templates) >= _MEMO_MAX:
            templates.clear()
        template = templates[phases] = _build_stand_ins(ordered, planner.window_len, window_start)
    return template


def _build_stand_ins(ordered, window_len: int, window_start: int) -> tuple:
    """The stand-in template of ``_stand_in_template``.  Stand-ins take
    the negative uids from -1,000,000 down, a block per spec (in id order)
    that rises with the release slot, so no two share one."""
    out = []
    uid_top = -1_000_000
    for spec in ordered:
        arrival = spec.arrival
        if arrival.kind == "periodic":  # exact, from the window start's phase
            offsets = range(-window_start % arrival.interval, window_len, arrival.interval)
        elif arrival.rate > 0:
            offsets = _aperiodic_offsets(arrival.rate, window_len)
        else:
            continue
        uid = uid_top = uid_top - len(offsets)
        work = spec.processing if spec.processing <= window_len else 0
        for off in offsets:
            uid += 1
            expiry = off + spec.relative_deadline + 1
            out.append((uid, spec, off, work, expiry if spec.firm_deadline and expiry < window_len else None))
    return tuple(out)


# The last plan's planner, reused while the next plan has the same scope.
_held_planner: list[GreedyPlanner] = []


def _window_planner(utility, config, window_start: int, window_len: int, stability_targets: dict) -> GreedyPlanner:
    """A planner of this scope opened at ``window_start``: the last plan's
    while utility and config are the same objects (both are frozen) and
    the window length and the targets are equal, else a new one, which
    shares the scope's slot memo all the same."""
    planner = _held_planner[0] if _held_planner else None
    if (
        planner is None or planner.utility is not utility or planner.config is not config
        or planner.window_len != window_len or planner.stability_targets != stability_targets
    ):
        planner = GreedyPlanner(utility, config, window_start, window_len, dict(stability_targets))
        _held_planner[:] = [planner]
    else:
        planner.open_window(window_start)
    return planner


def plan_horizon(
    queue: EdfQueue,
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
    caller (receding horizon); deterministic for fixed inputs.

    ``queue`` is the caller's backlog.  The window is simulated on a copy
    of it and on a map of remaining work, so the queue and its instances
    are left untouched.  The copy drops the instances that cannot run at
    the window start: inactive ones, firm ones whose deadline passed
    before it, and those released later, which join in their release
    slot.  Then it follows the window: each release is added in its slot,
    each firm instance still unfinished is discarded at ``deadline + 1``,
    and each completion is discarded after the slot that completes it.

    One planner of the scope (``_window_planner``) decides every window
    and keeps the templates of its projected arrivals
    (``_stand_in_template``), so two plans must not run at the same time
    (from two threads).
    """
    if stability_targets is None:
        stability_targets = stability_targets_of(specs or ())
    planner = _window_planner(utility, config, window_start, window_len, stability_targets)
    window_end = window_start + window_len

    # The eligible set changes only where an instance is released, the slot
    # after a firm deadline, or after a completion, so the window's queue
    # starts as a copy of the caller's and then follows those changes.
    # ``left`` is the work left of each instance that can finish inside the
    # window; the others run on past its end.
    left: dict[int, int] = {}
    released: dict[int, list[TaskInstance]] = {}
    expiring: dict[int, list[TaskInstance]] = {}
    eligible = queue.copy()
    for inst in queue:
        req, deadline, state = inst.req, inst.deadline, inst.state
        firm = inst.spec.firm_deadline
        # inactive: neither queued nor admitted
        if not (state is _QUEUED or state is _ADMITTED) or req >= window_end or (firm and deadline < window_start):
            eligible.discard(inst)  # never runs in the window
            continue
        if req > window_start:  # joins in its release slot
            eligible.discard(inst)
            released.setdefault(req, []).append(inst)
        if inst.remaining <= window_len:
            left[inst.uid] = inst.remaining
        if firm and deadline + 1 < window_end:
            expiring.setdefault(deadline + 1, []).append(inst)  # released by then: deadline >= req + 1

    # projected arrivals, from the scope's template for this window
    for uid, spec, off, work, expiry in _stand_in_template(planner, specs or (), window_start):
        req = window_start + off
        inst = TaskInstance(uid, spec, req)
        released.setdefault(req, []).append(inst)
        if work:
            left[uid] = work
        if expiry is not None:
            expiring.setdefault(window_start + expiry, []).append(inst)

    scan_on: list[bool] = []
    zs: list[float] = []
    running: list[list[int]] = []
    events: list[tuple[int, str, str]] = []
    for t in range(window_start, window_end):
        for inst in released.get(t, ()):
            eligible.add(inst)
        for inst in expiring.get(t, ()):
            if left.get(inst.uid, 1):  # a completed one has left already
                eligible.discard(inst)
        dec = planner.schedule_slot(eligible, t)
        scan_on.append(dec.scan_on)
        zs.append(dec.z)
        running.append(dec.running)
        events += dec.events
        for uid in dec.running:
            if uid in left:
                n = left[uid] = left[uid] - 1
                if not n:
                    eligible.pop(uid)

    z = np.array(zs)
    return HorizonPlan(
        start=window_start,
        length=window_len,
        scan_on=np.array(scan_on, dtype=int),
        running=running,
        z=z,
        scan_freq=sum(scan_on) / window_len,  # exact: an integer count over the length
        # np.mean's bits: it divides this same sum by the count
        z_avg=float(np.add.reduce(z)) / window_len,
        events=events,
    )
