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
    hundreds over thousands of slots.  Every call builds its layers
    afresh; the interceptor decides its slots with ``dp_decision``,
    which memoizes the layers of its constant-reward windows.

    The plan is read forward at the exact intensity, one ``_attacks``
    step per slot, and attacks only where attacking is strictly better;
    exact ties wait.  A tie in real numbers that rounding splits can
    still go either way, between plans whose values differ in the last
    bits.  ``value`` is the plan's attack terms folded back to front, in
    the operation order of the brute-force oracle
    ``enumerate_best_response`` in ``tests/oracles.py``, divided by the
    horizon.  ``start_intensity`` must lie in [0, 1], where the
    envelopes are kept.
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
    reward, scan = reward.tolist(), scan.tolist()
    keep, slope_cost = 1.0 - eta, beta * kk
    layers = [_ZERO_LAYER] * (n + 1)  # layers[t] = V_t; V_0 is never read
    for t in range(n - 1, 0, -1):
        layers[t] = _earlier_layer(layers[t + 1], reward[t], scan[t], keep, eta, beta, slope_cost)
    plan = [0] * n
    intensity = [0.0] * n
    a = float(start_intensity)
    for t in range(n):
        intensity[t] = a
        if not scan[t] and _attacks(layers[t + 1], reward[t], a, eta, beta, kk):
            plan[t] = 1
        a = intensity_update(a, plan[t], eta)
    value = 0.0
    for t in range(n - 1, -1, -1):
        if plan[t]:
            value = (reward[t] - beta * (1.0 + kk * intensity[t])) + value
    return AttackPlan(decisions=np.array(plan, dtype=int), value=value / n)


def dp_decision(gap: float, remaining: int, params: AttackerParams, intensity: float) -> int:
    """The dp interceptor's decision in a slot with ``remaining`` slots
    left in its window: the first decision of
    ``best_response([gap] * remaining, [0] * remaining, params,
    start_intensity=intensity)``, bit for bit, without building the plan.

    The plan is time-consistent (Bellman's principle of optimality): with
    a constant reward and no scan mask, the layers of a window from its
    k-th slot on are the layers of a window k slots shorter, the same
    floats from the same operations, and the plan's intensity recursion
    is ``intensity_update``.  So the decision a plan takes at any offset
    is the first decision of a fresh plan from that slot and intensity,
    and a slot needs only the value layer of the slots after it.  That
    layer depends on ``gap``, ``remaining`` and the three dynamics
    parameters only, and is read from ``_LAYER_CACHE``; a miss builds it
    on the nearest layer of the same gap held below it, one backward step
    per slot.  Ties wait.
    """
    if remaining < 1:
        raise ValueError(f"remaining must be >= 1, got {remaining}")
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must lie in [0, 1]")
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    rest = _LAYER_CACHE.get((gap, remaining, eta, beta, kk))
    if rest is None:
        rest = _rest_layer(gap, remaining, eta, beta, kk)
    return 1 if _attacks(rest, gap, intensity, eta, beta, kk) else 0


# The value layers of recent dp_decision slots: (gap, remaining, memory,
# base_cost, cost_scale) -> the value of the remaining - 1 slots after the
# current one, as the upper envelope of its lines.  At most 64 entries of at
# most 512 lines each are kept, oldest out first; a longer layer is built
# afresh whenever it is needed.  Entries are shared and must not be changed.
_LAYER_CACHE: dict[tuple, list] = {}
_LAYER_CACHE_SIZE = 64
_LAYER_CACHE_LINES = 512
_ZERO_LAYER = [(0.0, 0.0)]  # the value of no slots


def _rest_layer(gap: float, remaining: int, eta: float, beta: float, kk: float) -> list:
    """The value layer of ``remaining - 1`` slots of reward ``gap`` without
    scans, built on the nearest layer of the same gap held for fewer slots
    (or on the value of none), and memoized with every layer built on the
    way."""
    keys = []
    rest = _ZERO_LAYER
    for r in range(remaining, 0, -1):
        key = (gap, r, eta, beta, kk)
        held = _LAYER_CACHE.get(key)
        if held is not None:
            rest = held
            break
        keys.append(key)
    keep, slope_cost = 1.0 - eta, beta * kk
    for key in reversed(keys):
        if key[1] > 1:  # one slot more; the key of remaining 1 holds the value of none
            rest = _earlier_layer(rest, gap, 0, keep, eta, beta, slope_cost)
        if len(rest) <= _LAYER_CACHE_LINES:
            if len(_LAYER_CACHE) >= _LAYER_CACHE_SIZE:
                del _LAYER_CACHE[next(iter(_LAYER_CACHE))]  # the oldest
            _LAYER_CACHE[key] = rest
    return rest


def _attacks(rest: list, reward: float, a: float, eta: float, beta: float, kk: float) -> bool:
    """One forward step: at intensity ``a``, attacking for ``reward`` is
    strictly better than waiting, where ``rest`` is the value layer of
    the slots after this one.  Exact ties wait."""
    # intensity_update inlined: (1 - eta) * a + eta * x with x in {0.0, 1.0},
    # the same operations in the same order
    keep = 1.0 - eta
    a_wait, a_hit = keep * a + eta * 0.0, keep * a + eta * 1.0
    # the upper envelope at a_wait and at a_hit, in one pass; max's rule:
    # the first of equal maxima stays
    v_wait = v_hit = -math.inf
    for s, c in rest:
        v = s * a_wait + c
        if v > v_wait:
            v_wait = v
        v = s * a_hit + c
        if v > v_hit:
            v_hit = v
    return (reward - beta * (1.0 + kk * a)) + v_hit > v_wait


def _earlier_layer(
    nxt: list, reward: float, scanned: int, keep: float, eta: float, beta: float, slope_cost: float
) -> list:
    """One backward step: V_t(a) = max over lines of s * a + c from
    V_{t+1} = ``nxt``, by waiting or, unless the slot is ``scanned``,
    attacking for ``reward``."""
    wait = [(s * keep, c) for s, c in nxt]  # V_{t+1}(keep * a)
    attack = []
    if not scanned:  # r_t - beta (1 + kk a) + V_{t+1}(keep * a + eta)
        r = reward - beta
        attack = [(s * keep - slope_cost, c + s * eta + r) for s, c in nxt]
    return _upper(wait, attack)


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
