"""Rational interceptor: intensity dynamics, realized/believed utility,
exact finite-horizon best response, Bayesian belief updates under
erasure, and the behavioral threshold rule.

The attacker's per-slot reward scales with the defender's detection gap
(1 - z) and is gated by successful telemetry interception; the cost is
a base charge amplified by exponentially smoothed attack history, paid
whether or not the attack lands.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AttackerParams:
    """Reward/cost weights and intensity dynamics.

    ``memory`` is the smoothing factor of the intensity recursion
    a' = (1-memory) a + memory x; ``cost_scale`` amplifies the base cost
    by (1 + cost_scale * a).  ``dp_grid`` is the intensity grid used by
    the dynamic program beyond the exact-tracking horizon.
    """

    reward_weight: float = 10.0
    base_cost: float = 0.1
    cost_scale: float = 0.5
    memory: float = 0.1
    dp_grid: int = 512
    exact_horizon: int = 24

    def __post_init__(self):
        if self.reward_weight <= 0 or self.base_cost <= 0 or self.cost_scale <= 0:
            raise ValueError("reward_weight, base_cost and cost_scale must be positive")
        if not (0.0 < self.memory <= 1.0):
            raise ValueError("memory factor must lie in (0, 1]")
        if self.dp_grid < 2:
            raise ValueError("dp_grid must be >= 2")


@dataclass
class AttackPlan:
    decisions: np.ndarray  # {0,1} per slot
    value: float  # time-averaged planned utility


def intensity_update(prev: float, attack: int | bool, memory: float) -> float:
    """Exponentially smoothed attack history; stays in [0,1] for binary inputs."""
    return (1.0 - memory) * prev + memory * (1.0 if attack else 0.0)


def realized_utility(
    attacks,
    idle_capacity,
    received,
    params: AttackerParams,
    scan_on=None,
) -> float:
    """Time-averaged realized utility of an attack sequence.

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
        gate = xi[t]
        if scan_on is not None:
            gate = gate * (1.0 - scan_on[t])
        total += gate * params.reward_weight * (1.0 - z[t]) * x
        total -= params.base_cost * (1.0 + params.cost_scale * a_prev) * x
        a_prev = intensity_update(a_prev, x > 0, params.memory)
    return total / n


def best_response(
    gap_reward,
    scan_on,
    params: AttackerParams,
    start_intensity: float = 0.0,
) -> AttackPlan:
    """Exact DP maximizing the planned utility against known or believed
    per-slot conditions.

    ``gap_reward[t]`` is the expected reward coefficient of attacking at
    slot t (reward_weight * (1-z) for a known schedule, or its belief
    expectation with scan states contributing zero).  ``scan_on[t]``
    forbids attacking outright (known active scan).  Ties prefer not
    attacking; the returned plan is the lexicographically smallest
    optimal one.  Horizons up to ``params.exact_horizon`` track every
    reachable intensity exactly; longer horizons use a uniform grid with
    linear interpolation of the value function.
    """
    reward = np.asarray(gap_reward, dtype=float)
    scan = np.asarray(scan_on, dtype=int)
    n = len(reward)
    if n == 0:
        raise ValueError("horizon must be >= 1")
    if len(scan) != n:
        raise ValueError("sequence lengths differ")
    if n <= params.exact_horizon:
        return _best_response_exact(reward, scan, params, start_intensity)
    return _best_response_grid(reward, scan, params, start_intensity)


def _best_response_exact(reward, scan, params, start_intensity):
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    n = len(reward)
    reward, scan = reward.tolist(), scan.tolist()
    # intensity_update inlined: (1 - eta) * a + eta * x with x in {0.0, 1.0},
    # the same operations in the same order
    keep, rest, hit = 1.0 - eta, eta * 0.0, eta * 1.0
    # exact reachable-intensity lattice; raw float keys so the arithmetic
    # path matches the enumeration oracle bit for bit
    reachable: list[set[float]] = [{float(start_intensity)}]
    for t in range(n):
        layer = set()
        for a in reachable[t]:
            layer.add(keep * a + rest)
            if not scan[t]:
                layer.add(keep * a + hit)
        reachable.append(layer)
    value = dict.fromkeys(reachable[n], 0.0)  # value of the rest of the plan
    attack: list[set[float]] = [set() for _ in range(n)]  # intensities that attack at t
    for t in range(n - 1, -1, -1):
        nxt, current = value, {}
        if scan[t]:
            for a in reachable[t]:
                current[a] = nxt[keep * a + rest]
        else:
            r, strike = reward[t], attack[t]
            for a in reachable[t]:
                v_wait = nxt[keep * a + rest]
                v_att = (r - beta * (1.0 + kk * a)) + nxt[keep * a + hit]
                if v_att > v_wait:  # ties keep wait
                    current[a] = v_att
                    strike.add(a)
                else:
                    current[a] = v_wait
        value = current
    plan = np.zeros(n, dtype=int)
    a = float(start_intensity)
    total = value[a]
    for t in range(n):
        if a in attack[t]:
            plan[t] = 1
            a = keep * a + hit
        else:
            a = keep * a + rest
    return AttackPlan(decisions=plan, value=total / n)


def _best_response_grid(reward, scan, params, start_intensity):
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    n = len(reward)
    grid = np.linspace(0.0, 1.0, params.dp_grid)
    values = np.zeros((n + 1, len(grid)))
    for t in range(n - 1, -1, -1):
        v_wait = np.interp((1.0 - eta) * grid, grid, values[t + 1])
        if scan[t]:
            values[t] = v_wait
        else:
            v_att = reward[t] - beta * (1.0 + kk * grid) + np.interp(
                (1.0 - eta) * grid + eta, grid, values[t + 1]
            )
            values[t] = np.maximum(v_wait, v_att)
    plan = np.zeros(n, dtype=int)
    a = float(start_intensity)
    value = float(np.interp(a, grid, values[0]))
    for t in range(n):
        x = 0
        if not scan[t]:
            # decide at the exact intensity against the gridded continuation
            v_wait = float(np.interp(intensity_update(a, 0, eta), grid, values[t + 1]))
            v_att = reward[t] - beta * (1.0 + kk * a) + float(
                np.interp(intensity_update(a, 1, eta), grid, values[t + 1])
            )
            x = 1 if v_att > v_wait else 0
        plan[t] = x
        a = intensity_update(a, x, eta)
    return AttackPlan(decisions=plan, value=value / n)


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


def belief_update(prior: np.ndarray, signal: int | None, policy: np.ndarray) -> np.ndarray:
    """Bayes update on a received signal; erasure resets to the base prior.

    ``policy`` is the row-stochastic signaling matrix (states x signals).
    ``signal=None`` encodes an erased packet.  Raises on a signal with no
    mass under the prior (inconsistent policy/observation pair).
    """
    prior = np.asarray(prior, dtype=float)
    if signal is None:
        return prior.copy()
    likelihood = np.asarray(policy, dtype=float)[:, signal]
    joint = prior * likelihood
    mass = joint.sum()
    if mass <= 0.0:
        raise ValueError(f"signal {signal} has zero probability under the prior")
    return joint / mass


def threshold_decision(p_ids_active: float, threshold: float) -> bool:
    """Behavioral rule: attack iff the believed scan probability is below
    the threshold; exact ties favor caution (wait)."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0,1)")
    return p_ids_active < threshold
