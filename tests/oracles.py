"""Reference functions that only the tests use, kept out of the library."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from satdefsim.attacker import AttackerParams, AttackPlan, best_response, intensity_update, threshold_decision
from satdefsim.engine import Interceptor
from satdefsim.persuasion import PersuasionGame, PosteriorSplit, attacker_value, min_attacker_value
from satdefsim.scheduler import _EPS, HorizonPlan, SchedulerConfig, UtilityParams, detection_performance
from satdefsim.workload import TaskInstance


def split_from_policy(policy, prior) -> PosteriorSplit:
    """Posterior-split view of a signaling matrix under a prior."""
    pol = np.asarray(policy, dtype=float)
    prior = np.asarray(prior, dtype=float)
    joint = prior[:, None] * pol
    q = joint.sum(axis=0)
    keep = q > 1e-12
    posts = (joint[:, keep] / q[keep]).T
    return PosteriorSplit(posteriors=posts, weights=q[keep])


def is_equilibrium_belief(belief, game: PersuasionGame, tol: float = 1e-9) -> bool:
    """Membership in the set of beliefs attaining the minimal receiver value."""
    return attacker_value(belief, game) <= min_attacker_value(game) + tol


def realized_utility(
    attacks,
    idle_capacity,
    received,
    params: AttackerParams,
    scan_on=None,
) -> float:
    """Time-averaged realized utility of a 0/1 attack sequence.  Each
    attack adds its reward minus its cost in one step, in slot order, as
    the episode engine sums them, so an episode's total replays exactly.

    Reward accrues only on slots with successful interception
    (``received``); the history-amplified cost is paid regardless.  When
    ``scan_on`` is given, attacks launched into an active scan realize
    no reward either (they are detected and fail) but still pay.
    """
    attacks = np.asarray(attacks, dtype=float)
    z = np.asarray(idle_capacity, dtype=float)
    xi = np.asarray(received, dtype=float)
    if not (len(attacks) == len(z) == len(xi)):
        raise ValueError("sequence lengths differ")
    if scan_on is not None:
        scan_on = np.asarray(scan_on, dtype=float)
        if len(scan_on) != len(attacks):
            raise ValueError("sequence lengths differ")
    n = len(attacks)
    if n == 0:
        return 0.0
    total = 0.0
    a_prev = 0.0
    for t in range(n):
        x = attacks[t]
        if x:  # one addition per attack, in the engine's order
            gate = xi[t] if scan_on is None else xi[t] * (1.0 - scan_on[t])
            reward = params.reward_weight * (1.0 - z[t]) if gate else 0.0
            total += reward - params.base_cost * (1.0 + params.cost_scale * a_prev)
        a_prev = intensity_update(a_prev, x > 0, params.memory)
    return total / n


def enumerate_best_response(
    gap_reward,
    scan_on,
    params: AttackerParams,
    start_intensity: float = 0.0,
) -> AttackPlan:
    """Brute-force oracle: evaluates every feasible plan.

    Plan values accumulate back-to-front with the same operation order
    as the DP recursion, so value and tie-break comparisons are exact.
    """
    reward = np.asarray(gap_reward, dtype=float)
    scan = np.asarray(scan_on, dtype=int)
    n = len(reward)
    if n > 22:
        raise ValueError("enumeration horizon too large")
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    best_plan, best_value = None, -np.inf
    for bits in range(1 << n):
        plan = [(bits >> t) & 1 for t in range(n)]
        if any(x and s for x, s in zip(plan, scan)):
            continue
        intens = [start_intensity]
        for t in range(n):
            intens.append(intensity_update(intens[-1], plan[t], eta))
        value = 0.0
        for t in range(n - 1, -1, -1):
            if plan[t]:
                value = (reward[t] - beta * (1.0 + kk * intens[t])) + value
        if value > best_value or (
            value == best_value and best_plan is not None and plan < best_plan
        ):
            best_value = value
            best_plan = plan
    return AttackPlan(decisions=np.array(best_plan, dtype=int), value=best_value / n)


class InstanceTooLargeError(ValueError):
    """Brute-force decision space exceeds the configured bound."""


class InfeasibleScheduleError(RuntimeError):
    """No decision sequence satisfies the hard constraints."""


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

    demands = [np.asarray(i.spec.demand) for i in insts]
    powers = [float(i.spec.power_weight) for i in insts]

    best = None  # (obj, scan_count, scan_idx, combo_index_tuple, usage)
    for scan_idx, scan_pat in enumerate(scan_pats):
        usage = (scan_pat[:, None] * np.asarray(config.scan.demand)[None, :])[None]
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


class ReferenceInterceptor(Interceptor):
    """The dp interceptor as it stood before it decided each slot with
    ``dp_decision``: it plans the rest of the window with ``best_response``
    and follows that plan, replanning only when the belief changes or the
    plan is used up.  The threshold rule, ``receive`` and the settling of
    a slot are unchanged.  Do not edit it to make a change pass: a change
    of decisions is a change of results."""

    def __init__(self, params, prior_entry: tuple, threshold: float | None):
        super().__init__(params, prior_entry, threshold)
        self._plan: list[int] | None = None
        self._offset = 0
        self._plan_belief: np.ndarray | None = None

    def act(self, scan_now: bool, z: float, erased: bool, remaining: int) -> tuple[int, int, float]:
        att = self.params
        gap = att.reward_weight * self.idle_gap  # believed attack gap
        if self.threshold is not None:
            x_att = int(threshold_decision(self.p_scan, self.threshold))
        else:
            # beliefs are read-only table entries: the same object is the
            # same belief, and is kept, not copied (lists compare element
            # by element as array_equal does, for two beliefs of one game)
            belief = self.belief
            if (
                self._plan is None
                or self._offset >= len(self._plan)
                or (self._plan_belief is not belief and self._plan_belief.tolist() != belief.tolist())
            ):
                plan = best_response(
                    np.full(remaining, gap), np.zeros(remaining, dtype=int),
                    att, start_intensity=self.intensity,
                )
                self._plan = plan.decisions.tolist()
                self._offset = 0
                self._plan_belief = belief
            x_att = self._plan[self._offset]
            self._offset += 1
        blocked = 0
        reward = 0.0
        if x_att:
            self.attacks += 1
            cost = att.base_cost * (1.0 + att.cost_scale * self.intensity)
            blocked = int(scan_now)
            self.blocked += blocked
            gate = (not erased) and not scan_now
            reward = (att.reward_weight * (1.0 - z)) if gate else 0.0
            self.realized += reward - cost
            self.believed += gap - cost
        self.intensity = intensity_update(self.intensity, x_att, att.memory)
        return x_att, blocked, reward
