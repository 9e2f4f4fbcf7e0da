"""Rational interceptor: intensity dynamics, exact best response at any
horizon, Bayesian belief updates under erasure, and the behavioral
threshold rule.

The attacker's per-slot reward scales with the defender's detection gap
(1 - z) and is gated by successful telemetry interception; the cost is
a base charge amplified by exponentially smoothed attack history, paid
whether or not the attack lands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AttackerParams:
    """Reward/cost weights and intensity dynamics.

    ``memory`` is the smoothing factor of the intensity recursion
    a' = (1-memory) a + memory x; ``cost_scale`` amplifies the base cost
    by (1 + cost_scale * a).  The best response is exact for any
    horizon, so no solver knob is needed.
    """

    reward_weight: float = 10.0
    base_cost: float = 0.1
    cost_scale: float = 0.5
    memory: float = 0.1

    def __post_init__(self):
        for name in ("reward_weight", "base_cost", "cost_scale"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 < self.memory <= 1.0:
            raise ValueError(f"memory must lie in (0, 1], got {self.memory}")


@dataclass
class AttackPlan:
    decisions: np.ndarray  # {0,1} per slot
    value: float  # time-averaged planned utility


def intensity_update(prev: float, attack: int | bool, memory: float) -> float:
    """Exponentially smoothed attack history; stays in [0,1] for binary inputs."""
    return (1.0 - memory) * prev + memory * (1.0 if attack else 0.0)


def best_response(
    gap_reward,
    scan_on,
    params: AttackerParams,
    start_intensity: float = 0.0,
) -> AttackPlan:
    """Exact DP maximizing the planned utility against known or believed
    per-slot conditions, for any horizon.

    ``gap_reward[t]`` is the expected reward coefficient of attacking at
    slot t (reward_weight * (1-z) for a known schedule, or its belief
    expectation with scan states contributing zero).  ``scan_on[t]``
    forbids attacking outright (known active scan).

    The value of the rest of the plan is convex and piecewise linear in
    the intensity, so each backward layer is kept as its upper envelope:
    the lines (slope, intercept) that are on top somewhere in [0, 1].
    No bound on their number is known; it stays at a few lines on random
    rewards, but a constant reward just above the base cost can need
    hundreds over thousands of slots.  The layers depend on the rewards,
    the scan mask and ``params`` only, not on the start intensity, so
    they are memoized under those inputs (``_LAYER_CACHE``: at most 64
    entries of at most 512 lines, so calls of 512 slots or more are
    always computed afresh); the interceptor's replans repeat a few of
    them many times.

    The plan is read forward at the exact intensity and attacks only
    where attacking is strictly better; exact ties wait.  A tie in real
    numbers that rounding splits can still go either way, between plans
    whose values differ in the last bits.  ``value`` is the plan's
    attack terms folded back to front, in the operation order of the
    brute-force oracle ``enumerate_best_response`` in ``tests/oracles.py``,
    divided by the horizon.
    ``start_intensity`` must lie in [0, 1], where the envelopes are kept.
    """
    reward = np.asarray(gap_reward, dtype=float)
    scan = np.asarray(scan_on, dtype=int)
    n = len(reward)
    if n == 0:
        raise ValueError("horizon must be >= 1")
    if len(scan) != n:
        raise ValueError("sequence lengths differ")
    if not 0.0 <= start_intensity <= 1.0:
        raise ValueError("start_intensity must lie in [0, 1]")
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    key = (reward.tobytes(), scan.tobytes(), eta, beta, kk)
    reward, scan = reward.tolist(), scan.tolist()
    # intensity_update inlined: (1 - eta) * a + eta * x with x in {0.0, 1.0},
    # the same operations in the same order
    keep, rest, hit = 1.0 - eta, eta * 0.0, eta * 1.0
    layers = _LAYER_CACHE.get(key)
    if layers is None:
        layers = _backward_layers(reward, scan, keep, eta, beta, beta * kk)
        if sum(map(len, layers)) <= _LAYER_CACHE_LINES:
            if len(_LAYER_CACHE) >= _LAYER_CACHE_SIZE:
                del _LAYER_CACHE[next(iter(_LAYER_CACHE))]  # the oldest
            _LAYER_CACHE[key] = layers
    plan = [0] * n
    intensity = [0.0] * n
    a = float(start_intensity)
    for t in range(n):
        intensity[t] = a
        a_wait = keep * a + rest
        if not scan[t]:
            nxt = layers[t + 1]
            a_hit = keep * a + hit
            v_wait = max([s * a_wait + c for s, c in nxt])
            v_att = (reward[t] - beta * (1.0 + kk * a)) + max([s * a_hit + c for s, c in nxt])
            if v_att > v_wait:  # ties keep wait
                plan[t] = 1
                a = a_hit
                continue
        a = a_wait
    value = 0.0
    for t in range(n - 1, -1, -1):
        if plan[t]:
            value = (reward[t] - beta * (1.0 + kk * intensity[t])) + value
    return AttackPlan(decisions=np.array(plan, dtype=int), value=value / n)


# Backward layers of recent best_response calls, keyed by the exact bytes of
# the rewards and scan mask and by the parameters.  At most 64 entries of at
# most 512 lines each are kept (a layer has at least one line, so a call of
# 512 slots or more is never kept), oldest out first.
_LAYER_CACHE: dict[tuple, list] = {}
_LAYER_CACHE_SIZE = 64
_LAYER_CACHE_LINES = 512


def _backward_layers(reward: list, scan: list, keep: float, eta: float, beta: float, slope_cost: float) -> list:
    """layers[t]: V_t(a) = max over lines of s * a + c, for t = 1..n, with
    V_n = 0.  The plan starts from a known intensity, so V_0 is never
    needed (layers[0] is a placeholder).  The layers are shared by later
    calls with the same inputs and must not be changed."""
    n = len(reward)
    layers = [[(0.0, 0.0)]] * (n + 1)
    for t in range(n - 1, 0, -1):
        nxt = layers[t + 1]
        wait = [(s * keep, c) for s, c in nxt]  # V_{t+1}(keep * a)
        attack = []
        if not scan[t]:  # r_t - beta (1 + kk a) + V_{t+1}(keep * a + eta)
            r = reward[t] - beta
            attack = [(s * keep - slope_cost, c + s * eta + r) for s, c in nxt]
        layers[t] = _upper(wait, attack)
    return layers


def _upper(first, second):
    """Upper envelope of two line lists sorted by slope: the lines on top
    somewhere in [0, 1], by increasing slope and decreasing intercept."""
    hull: list[tuple[float, float]] = []
    i = j = 0
    n_first, n_second = len(first), len(second)
    for _ in range(n_first + n_second):
        if j == n_second or (i < n_first and first[i][0] <= second[j][0]):
            s, c = first[i]
            i += 1
        else:
            s, c = second[j]
            j += 1
        # at least as high at 0 and at least as steep: higher on all of [0, 1]
        while hull and c >= hull[-1][1]:
            hull.pop()
        if hull and s == hull[-1][0]:
            continue  # parallel and lower
        # the top line is dropped once the new one overtakes it no later
        # than it overtakes the line below it
        while len(hull) > 1:
            (s0, c0), (s1, c1) = hull[-2], hull[-1]
            if (c1 - c) * (s1 - s0) > (c0 - c1) * (s - s1):
                break
            hull.pop()
        hull.append((s, c))
    # lines on top only beyond a = 1
    while len(hull) > 1 and hull[-2][0] + hull[-2][1] >= hull[-1][0] + hull[-1][1]:
        hull.pop()
    return hull


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
