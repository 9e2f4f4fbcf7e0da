"""Episode orchestration: the defender and telemetry passes, baseline
policies, metric aggregation, benchmark suites and parameter sweeps.

An episode is two passes.  The defender pass (``DefenderPass``) runs
arrivals, admission, deadline reaping, the receding-horizon plan of each
window, the slot solver or the fcfs rule and task progress over one
instance queue, and returns a read-only ``DefenderSchedule`` whose slot
and window columns are arrays.  The telemetry pass
(``EpisodeRunner.telemetry``) reads that schedule and its policy's
``SignalPlan`` and writes to neither: it quantizes every window's planned
(scan, load) state in one ``quantize_state`` call, draws one deceptive
signal per slot from the plan's tables, and runs the interceptor over
the slots (``intercept``).  The episode's trace takes each column as a
list once.  Episodes are deterministic given (config, seed).

Signaling shapes only the downlink, so star, star-static and stardis
run the same defender pass on one seed.  ``defender_schedule`` keeps the
star family's last schedule in a one-entry cache keyed by the values of
the scheduling inputs and the seed: further star-family episodes of that
seed skip the defender pass, also under configs that differ only in
persuasion, channel or attacker settings.  Suites and sweeps run seeds
in the outer loop so that each seed's schedule is built once.

Only the fading draw depends on the seed.  What else an episode reads
is built once and shared read-only: the game and its solved policies
(``persuasion_assets``) and each policy's ``SignalPlan``: the mean-SNR
forecast, the ``SlotTables`` every slot's packet is drawn from, the
slot's credibility budget, delivery delay and received packet, and each
window's budget total.  A plan builds its own downlink forecast (mean
SNR, propagation and delivery delays, and for stardis the outage
probability).  Both builds are cached by value, the assets on the
game's config fields and a plan on its whole config and policy, so
configs with equal values share them; with the star family's schedule
these are the module's only caches.

A ``SignalTable`` holds what signaling reads of one policy: per-state
sampling CDFs, the interceptor's posterior after each signal with mass,
and a memo of the window drift.  A plan's ``SlotTables`` holds its
distinct tables, each slot's index into them and, per belief (the prior
and each posterior), the scan probability, idle gap and whether the
signal has mass.  So the telemetry pass works on arrays: an episode
draws its signal uniforms in one ``rng_signal.random(horizon)`` call and
turns them into signals with one ``searchsorted`` per (table, state),
exactly as ``Generator.choice`` would; each slot's belief is a forward
fill over the slots that receive a packet or lose one to an erasure;
threshold-mode attacks are decided in one ``threshold_decision`` call.
Only what runs in slot order stays a loop: the intensity recursion, the
attack-cost totals and the dp interceptor's ``dp_decision``, so every
float sum keeps the order and bits of a slot-by-slot interceptor
(``tests/oracles.py`` keeps that interceptor as the pass's oracle).  The
scripted belief-dynamics checks (acceptance criterion 9) call
``intercept`` with forced signals delivered in their own slots.
"""
from __future__ import annotations

import csv
import json
import subprocess
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from operator import add
from types import MappingProxyType

import numpy as np

from . import __version__
from .attacker import (
    belief_update,
    # unused here, but perfbench/tracing.py patches engine.best_response by
    # name (PATCH_POINTS), so the name must stay importable from this module
    best_response,  # noqa: F401
    dp_decision,
    threshold_decision,
)
from .channel import (
    OutageTable,
    delivery_delay_slots,
    erasures,
    predict_mean_snr,
    sample_envelope,
)
from .config import DECEPTION_POLICIES, POLICY_KINDS, ScenarioConfig, with_scenario_values
from .persuasion import (
    BudgetCurve,
    PersuasionGame,
    allocate_on_grid,
    build_scan_game,
    choose_artificial_delay,
    lyapunov_drift,
    quantize_state,
    solve_persuasion,
)
from .scheduler import (
    EdfQueue,
    GreedyPlanner,
    episode_utility,
    plan_horizon,
    try_fit,
)
from .workload import InstanceState, Priority, TaskInstance, admit, generate_arrivals, run_slot

TRACE_SCHEMA_VERSION = 1

# state members bound once for the per-slot loop, which compares by identity
_ADMITTED, _COMPLETED = InstanceState.ADMITTED, InstanceState.COMPLETED
_DROPPED, _MISSED = InstanceState.DROPPED, InstanceState.MISSED

SLOT_TRACE_COLUMNS = [
    "t", "scan_on", "z", "power", "mean_snr_db", "received", "delay_slots", "signal",
    "belief_scan", "x_att", "attack_blocked", "realized_reward", "intensity", "budget",
]
WINDOW_TRACE_COLUMNS = [
    "window", "start", "length", "state", "scan_planned", "z_avg_planned",
    "scan_freq_realized", "budget_total", "drift",
]


def build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or it timed out
        pass
    return f"satdefsim-{__version__}"


@dataclass
class EpisodeMetrics:
    """Headline per-episode quantities; rates are percentages."""

    policy: str
    seed: int
    utilization: dict[str, float]
    routine_completion_pct: float
    relay_miss_pct: float
    defender_utility: float
    attacker_realized: float
    attacker_believed: float
    scan_freq: float
    erasure_count: int
    attack_count: int
    blocked_attacks: int
    generated: int
    completed: int
    dropped: int
    missed: int
    residual: int
    infeasible_events: int

    def to_row(self) -> dict[str, float]:
        row = {
            "routine_completion_pct": self.routine_completion_pct,
            "relay_miss_pct": self.relay_miss_pct,
            "defender_utility": self.defender_utility,
            "attacker_realized": self.attacker_realized,
            "attacker_believed": self.attacker_believed,
            "scan_freq": self.scan_freq,
            "erasure_count": float(self.erasure_count),
            "attack_count": float(self.attack_count),
        }
        for res, pct in self.utilization.items():
            row[f"util_{res}_pct"] = pct
        return row


@dataclass
class EpisodeTraces:
    slots: dict[str, list] = field(default_factory=dict)
    windows: list[dict] = field(default_factory=list)

    def slot_rows(self):
        n = len(self.slots["t"])
        for i in range(n):
            yield {k: self.slots[k][i] for k in SLOT_TRACE_COLUMNS}


# ---------------------------------------------------------------------------
# Signal tables: what the telemetry pass reads for one policy
# ---------------------------------------------------------------------------

_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _kahan_sum(values) -> float:
    """Compensated sum in index order, as ``Generator.choice`` sums ``p``."""
    total, carry = values[0], 0.0
    for v in values[1:]:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def choice_cdf(row) -> np.ndarray:
    """The normalized CDF that ``Generator.choice(len(row), p=row)`` builds,
    after its checks and with its ``ValueError`` messages: for a uniform
    ``u`` from the same stream, ``cdf.searchsorted(u, side="right")`` is
    the index ``choice`` returns."""
    p = np.array(row, dtype=float)
    p_sum = _kahan_sum(p.tolist())
    if np.isnan(p_sum):
        raise ValueError("Probabilities contain NaN")
    if np.any(p < 0):
        raise ValueError("Probabilities are not non-negative")
    if abs(p_sum - 1.0) > _CHOICE_ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def belief_entry(belief: np.ndarray, game: PersuasionGame) -> tuple[np.ndarray, float, float]:
    """A belief with what the interceptor reads from it: the scan
    probability and the idle gap, ``sum(belief * (1 - z_rep))`` over the
    scan-off states (the believed attack reward per unit reward weight)."""
    scan_off = game.scan_flag == 0
    return belief, game.p_scan(belief), float(np.sum(belief[scan_off] * (1.0 - game.z_rep[scan_off])))


class SignalTable:
    """Read-only tables of one signaling policy under its game's prior.

    - ``cdf[state]``: the row's sampling CDF (``choice_cdf``), so draws
      are one ``searchsorted``;
    - ``posteriors[m]``: the ``belief_entry`` of ``belief_update(prior, m,
      policy)`` for every signal ``m`` with mass under the prior; a
      zero-mass signal has no entry;
    - a memo of ``lyapunov_drift(belief, policy, game)`` keyed by the
      belief's bytes.

    Posteriors are built through this module's ``belief_update`` and the
    drift through its ``lyapunov_drift``, so patching those names (as a
    tracer does) sees every build and memo miss.
    """

    def __init__(self, policy: np.ndarray, game: PersuasionGame):
        self.policy = np.array(policy, dtype=float)
        self.policy.flags.writeable = False
        self.game = game
        self.cdf = tuple(choice_cdf(row) for row in self.policy)
        posteriors = {}
        for m in range(self.policy.shape[1]):
            if (game.prior * self.policy[:, m]).sum() > 0.0:  # belief_update's mass test
                belief = belief_update(game.prior, m, self.policy)
                belief.flags.writeable = False
                posteriors[m] = belief_entry(belief, game)
        self.posteriors = MappingProxyType(posteriors)
        self._drift: dict[bytes, float] = {}

    def drift(self, belief: np.ndarray) -> float:
        key = belief.tobytes()
        value = self._drift.get(key)
        if value is None:
            value = self._drift[key] = lyapunov_drift(belief, self.policy, self.game)
        return value


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SlotTables:
    """The signal tables of a plan's slots, with what the telemetry pass
    reads of them as flat arrays, read-only.

    ``distinct`` holds the plan's distinct tables and ``index`` each slot's
    index into them, so ``self[t]`` is slot t's table.  Beliefs are
    numbered: 0 is the prior (``prior_entry``), and ``1 + i * signals + m``
    is the posterior after signal m of table i, where ``signals`` is the
    widest table's signal count.  Per belief: ``beliefs`` (``None`` where
    the signal has no mass under the prior or lies beyond its table),
    ``p_scan``, ``idle_gap`` and ``has_mass``.
    """

    def __init__(self, slot_tables, prior_entry: tuple):
        self.distinct = tuple(dict.fromkeys(slot_tables))
        where = {table: i for i, table in enumerate(self.distinct)}
        self.index = _read_only(np.array([where[table] for table in slot_tables], dtype=np.intp))
        self.signals = max(table.policy.shape[1] for table in self.distinct)
        entries = [prior_entry] + [
            table.posteriors.get(m) for table in self.distinct for m in range(self.signals)
        ]
        self.beliefs = tuple(None if e is None else e[0] for e in entries)
        self.p_scan = _read_only(np.array([np.nan if e is None else e[1] for e in entries]))
        self.idle_gap = _read_only(np.array([np.nan if e is None else e[2] for e in entries]))
        self.has_mass = _read_only(np.array([e is not None for e in entries]))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, t: int) -> SignalTable:
        return self.distinct[self.index[t]]

    def __iter__(self):
        return map(self.distinct.__getitem__, self.index.tolist())

    def draw(self, states: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Each slot's signal in its state from its uniform, with one
        ``searchsorted`` per (table, state) pair: the signal
        ``Generator.choice`` draws with the row's probabilities from the
        stream the uniforms came from."""
        n_states = len(self.distinct[0].cdf)
        group = self.index * n_states + states
        signals = np.empty(len(group), dtype=np.intp)
        for g in np.unique(group).tolist():
            at = group == g
            table, state = divmod(g, n_states)
            signals[at] = self.distinct[table].cdf[state].searchsorted(uniforms[at], side="right")
        return signals


# ---------------------------------------------------------------------------
# Seed-independent builds, each cached by the config values it reads
# ---------------------------------------------------------------------------
# Keys compare by value, so configs with equal values share a build however
# they were made.  Every array is read-only and every sequence a tuple, so
# episodes share the builds without copying.

class PersuasionAssets:
    """A game and its solved policies: the static solution per budget and
    the budget curve, built lazily."""

    def __init__(self, game: PersuasionGame, subdivisions: int | None):
        self.game = game
        self.subdivisions = subdivisions
        self.reveal_policy = np.eye(game.n_states)
        prior = game.prior.copy()  # the belief at the start and after an erasure
        prior.flags.writeable = False
        self.prior_entry = belief_entry(prior, game)
        self._static: dict[float, object] = {}
        self._curve: BudgetCurve | None = None

    def static_solution(self, budget: float):
        if budget not in self._static:
            self._static[budget] = solve_persuasion(self.game, budget, self.subdivisions)
        return self._static[budget]

    # ``units_per_slot`` is unused; perfbench/worker.py still passes it
    def curve(self, points: int, units_per_slot: int = 1) -> BudgetCurve:
        if self._curve is None or len(self._curve.budgets) != points:
            self._curve = BudgetCurve(self.game, points=points, subdivisions=self.subdivisions)
        return self._curve


def persuasion_assets(cfg: ScenarioConfig) -> PersuasionAssets:
    """The assets of the scenario's game, shared by every config with the
    same game inputs."""
    p, att = cfg.persuasion, cfg.attacker
    return _game_assets(p.z_bins, p.prior_scan, p.subdivisions, att.reward_weight, att.base_cost)


# a sweep of a game input (the prior, say) cycles through one game per
# value for each seed: as many entries as ``_signal_plan`` keeps plans
@lru_cache(maxsize=64)
def _game_assets(z_bins, prior_scan, subdivisions, reward_weight, base_cost) -> PersuasionAssets:
    game = build_scan_game(reward_weight, base_cost, prior_scan, z_bins=z_bins)
    return PersuasionAssets(game, subdivisions)


@dataclass(frozen=True)
class SignalPlan:
    """How one policy signals in a scenario, read-only.

    The downlink forecast it was built from: ``mean_snr``, the per-slot
    mean SNR (dB).  Per slot: the ``SlotTables`` its packet is drawn from
    (``None`` where no interceptor is signaled to), its credibility
    ``budgets``, its delivery ``delays`` in slots and ``delivered``: the
    generation slot of the newest packet arriving in it, or -1.  Per
    window: ``window_budgets``, the budget total.  All are read-only.
    """

    mean_snr: np.ndarray
    tables: SlotTables | None
    budgets: np.ndarray
    delays: np.ndarray
    delivered: np.ndarray
    window_budgets: np.ndarray


# ``_run_by_seed`` cycles through every (scenario, policy) plan for each
# seed: a sweep of up to 16 values over all 5 policies needs 4 entries a
# value (fcfs and sp share the plan without signaling)
@lru_cache(maxsize=64)
def _signal_plan(cfg: ScenarioConfig, policy: str | None) -> SignalPlan:
    """The signal plan of ``policy`` in ``cfg``, or of no signaling for ``None``.

    Every plan forecasts the pass's mean SNR and propagation delay.
    star reveals the state in every slot.  star-static signals with the
    static solution at the credibility budget.  stardis reads each
    slot's forecast outage from one ``OutageTable`` over the forecast's
    SNR range, allocates each window's budget over it, signals with the
    curve level each slot gets, and delays each slot's telemetry by an
    artificial delay that follows its forecast SNR.  The other plans have
    no tables, zero budgets and the base delays.
    """
    horizon, window, p, geometry = cfg.horizon, cfg.window, cfg.persuasion, cfg.geometry
    mean_snr = predict_mean_snr(0, horizon, geometry)
    mean_snr.flags.writeable = False
    prop_ms = [geometry.propagation_delay_ms(t) for t in range(horizon)]
    added_ms = 0.0
    tables = None
    budgets = np.broadcast_to(0.0, horizon)  # a read-only view, one value stored
    assets = persuasion_assets(cfg) if policy is not None else None
    if policy == "star":
        tables = (SignalTable(assets.reveal_policy, assets.game),) * horizon
    elif policy == "star-static":
        tables = (SignalTable(assets.static_solution(p.credibility).policy, assets.game),) * horizon
        budgets = np.broadcast_to(p.credibility, horizon)
    elif policy == "stardis":
        curve = assets.curve(p.budget_points)
        pout = OutageTable(cfg.channel, float(mean_snr.min()), float(mean_snr.max()))(mean_snr)
        level_of_slot = np.concatenate([
            allocate_on_grid(pout_w, p.credibility * len(pout_w), curve)
            for pout_w in np.split(pout, range(window, horizon, window))
        ])
        by_level = {
            l: SignalTable(curve.solutions[l].policy, assets.game) for l in np.unique(level_of_slot).tolist()
        }
        tables = tuple(by_level[l] for l in level_of_slot.tolist())
        budgets = curve.budgets[level_of_slot]
        budgets.flags.writeable = False
        added_ms = [
            choose_artificial_delay(snr, prop, p.delay_max_ms, cfg.proc_delay_ms, p.delay_snr_lo_db, p.delay_snr_hi_db)
            for snr, prop in zip(mean_snr.tolist(), prop_ms)
        ]
    delays = _read_only(delivery_delay_slots(prop_ms, cfg.proc_delay_ms, added_ms, cfg.slot_ms))
    # later packets overwrite, so each slot keeps the newest arriving there
    delivered = np.full(horizon, -1)
    for s, d in enumerate(delays.tolist()):
        if s + d < horizon:
            delivered[s + d] = s
    window_budgets = np.array([float(np.sum(budgets[w : w + window])) for w in range(0, horizon, window)])
    window_budgets.flags.writeable = False
    if tables is not None:
        tables = SlotTables(tables, assets.prior_entry)
    return SignalPlan(mean_snr, tables, budgets, delays, _read_only(delivered), window_budgets)


# ---------------------------------------------------------------------------
# Interceptor pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interception:
    """What the interceptor does in one episode.  Per slot, as the slot
    trace's columns: the ``signal`` it received ("" for none), the
    ``belief_scan`` it acts on, ``x_att``, ``attack_blocked``,
    ``realized_reward`` and the ``intensity`` after the slot.  Per window:
    the ``drift`` of its first slot's table at the belief the window
    opens with.  Totals: the ``realized`` and ``believed`` attack
    utilities summed over the slots, and the ``attacks`` and ``blocked``
    counts."""

    signal: list[str]
    belief_scan: list[float]
    x_att: list[int]
    attack_blocked: list[int]
    realized_reward: list[float]
    intensity: list[float]
    drift: list[float]
    realized: float
    believed: float
    attacks: int
    blocked: int


def intercept(
    tables: SlotTables, delivered, signals, erased, scan_on, z, window: int, att, threshold: float | None,
) -> Interception:
    """The interceptor over one episode's slots, with arrays.

    Slot t receives the packet generated in slot ``delivered[t]`` (-1 for
    none): signal ``signals[delivered[t]]`` of that slot's table, which
    sets the belief, unless the slot is ``erased``: then the packet is
    lost and the belief resets to the prior.  A slot with neither keeps
    its belief, so each slot's belief is a forward fill over the slots
    that receive or erase, from the prior at the start.  A received
    signal with no mass under the prior raises ``ValueError``.

    The interceptor then acts on that belief.  The threshold rule attacks
    iff ``p_scan < threshold``, decided for every slot in one
    ``threshold_decision`` call.  The dp rule (``threshold`` None) takes
    ``dp_decision`` at the belief's attack gap, the slots left in the
    window and the current intensity: the first decision of the optimal
    plan for the rest of the window, which is the decision a plan made
    earlier would take there while the belief stays the same.  An attack
    pays its intensity-amplified cost; it earns ``reward_weight * (1 -
    z)`` only when the slot was not erased and no scan runs, and an
    attack into a scan counts as blocked.  The intensity recursion, the
    dp decisions and the totals run in one loop in slot order, so each
    sum adds the same floats in the same order as a slot-by-slot
    interceptor.  ``dp_decision`` and ``threshold_decision`` are looked
    up in this module, so patching them sees every call.
    """
    h = len(tables)
    erased = np.asarray(erased, dtype=bool)
    scan = np.asarray(scan_on, dtype=bool)
    got = ~erased & (delivered >= 0)
    gen = delivered[got]
    signal = signals[gen]
    belief = 1 + tables.index[gen] * tables.signals + signal
    lost = ~tables.has_mass[belief]
    if lost.any():
        raise ValueError(f"signal {signal[lost][0]} has zero probability under the prior")
    # sets[t + 1]: the belief slot t sets, -1 where it keeps its belief;
    # held[t]: the belief slot t opens with, held[t + 1] the one it acts on
    sets = np.full(h + 1, -1)
    sets[0] = 0  # the prior at the start
    sets[1:][erased] = 0
    sets[1:][got] = belief
    held = sets[np.maximum.accumulate(np.where(sets >= 0, np.arange(h + 1), 0))]
    acting = held[1:]
    p_scan = tables.p_scan[acting]
    gap = (att.reward_weight * tables.idle_gap[acting]).tolist()  # believed attack gap
    pay = np.where(erased | scan, 0.0, att.reward_weight * (1.0 - np.asarray(z, dtype=float))).tolist()

    # each window's drift, once per distinct (table, opening belief)
    starts = np.arange(0, h, window)
    n_beliefs = len(tables.beliefs)
    pairs, where = np.unique(tables.index[starts] * n_beliefs + held[starts], return_inverse=True)
    drifts = [tables.distinct[k // n_beliefs].drift(tables.beliefs[k % n_beliefs]) for k in pairs.tolist()]

    dp = threshold is None
    if dp:
        x_att = [0] * h
        t = np.arange(h)
        remaining = (np.minimum(t - t % window + window, h) - t).tolist()
    else:
        x_att = threshold_decision(p_scan, threshold).astype(int).tolist()
    eta, base, scale = att.memory, att.base_cost, att.cost_scale
    keep = 1.0 - eta
    a = realized = believed = 0.0
    intensity = [0.0] * h
    for t in range(h):
        if dp:
            x_att[t] = dp_decision(gap[t], remaining[t], att, a)
        # intensity_update inlined: (1 - eta) * a + eta * x with x in {0.0,
        # 1.0}, where eta * 1.0 is eta and adding eta * 0.0 to a >= 0 is exact
        if x_att[t]:
            cost = base * (1.0 + scale * a)
            realized += pay[t] - cost
            believed += gap[t] - cost
            a = keep * a + eta
        else:
            a = keep * a
        intensity[t] = a

    x = np.array(x_att, dtype=bool)
    blocked = x & scan
    shown = np.zeros(h, dtype=np.intp)
    shown[got] = signal + 1
    labels = np.array([""] + [str(m) for m in range(tables.signals)])
    return Interception(
        signal=labels[shown].tolist(),
        belief_scan=p_scan.tolist(),
        x_att=x_att,
        attack_blocked=blocked.astype(int).tolist(),
        realized_reward=np.where(x, pay, 0.0).tolist(),
        intensity=intensity,
        drift=[drifts[i] for i in where.tolist()],
        realized=realized,
        believed=believed,
        attacks=int(x.sum()),
        blocked=int(blocked.sum()),
    )


# ---------------------------------------------------------------------------
# Defender pass
# ---------------------------------------------------------------------------

_STAR_FAMILY = ("star",) + DECEPTION_POLICIES


@dataclass(frozen=True)
class DefenderSchedule:
    """What the defender does in one episode, read-only.

    Per slot, as arrays: ``scan_on`` (0 or 1), the idle capacity ``z`` and
    the ``power`` drawn.  Per window, as arrays: the plan's ``z_avg``
    (``None`` for fcfs and sp, which do not plan) and the realized scan
    frequency ``scan_freq``; the star family executes its plan's scan
    pattern, so a window's plan scans iff its ``scan_freq`` is positive.
    Then the summed defender utility and per-resource usage, the instance
    counts and the low-priority and firm counts behind the completion and
    miss percentages.
    """

    scan_on: np.ndarray
    z: np.ndarray
    power: np.ndarray
    z_avg: np.ndarray | None
    scan_freq: np.ndarray
    defender_total: float
    usage_sum: tuple[float, ...]
    generated: int
    completed: int
    dropped: int
    missed: int
    residual: int
    low_total: int
    low_done: int
    firm_total: int
    firm_missed: int
    infeasible_events: int


class DefenderPass:
    """The defender side of one episode: arrivals, admission, deadline
    reaping, the receding-horizon plan (star family), the slot solver or
    the fcfs rule, and task progress.  sp and the star family run each
    slot's ``SlotDecision`` with the usage, power and ``z`` it carries.
    The pass reads nothing of the telemetry and the interceptor, so
    ``run`` is a function of the scenario's scheduling inputs, the seed
    and the policy (all star-family policies give the same schedule).
    Arrivals come from the first of the episode's three random streams.

    The admitted, unfinished instances wait in one ``EdfQueue``, which
    each arrival joins and each reaped or completed instance leaves; the
    slot solver and the star family's plan read it in EDF order, fcfs in
    the order instances joined.  That order is uid order: an instance's
    uid is its index in ``self.instances``, the arrival stream in request
    order, arrivals join slot by slot and a discard keeps the order.  Two
    more facts keep a slot's bookkeeping to what changed:

    - Expiry: an instance is reaped only at the start of slot
      ``deadline + 1``.  Admission in slot t needs ``deadline >= t +
      remaining``, so that slot is still ahead; a firm instance still
      queued then is missed, a soft one dropped unless it has started, and
      as ``service`` never falls a started soft one is never reaped.
    - fcfs prefix: non-preemptive head-of-line fcfs starts a prefix of
      the waiting instances in uid order, so by induction over the slots
      every started instance (``service > 0``) comes before every waiting
      one in the queue's iteration.

    Until an instance joins or leaves the queue, ``queue.split()`` hands
    back the same tuple, and both the fcfs rule and the slot solver take
    that tuple as the token of a slot whose inputs did not change (their
    repeat rules): such a slot returns the last slot's result.  Where the
    solver hands back the last slot's ``running`` list, the pass reuses
    its instances too.  A slot's running instances advance in one
    ``run_slot`` call.  The books are totalled once per episode, in slot
    order: the defender utility as ``episode_utility`` of the scan and
    ``z`` columns, and the usage per resource."""

    def __init__(self, cfg: ScenarioConfig, seed: int, policy: str):
        self.cfg = cfg
        self.policy = policy
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
        self.instances = generate_arrivals(list(cfg.tasks), cfg.horizon, rng)
        self.arrivals_by_slot: dict[int, list[TaskInstance]] = defaultdict(list)
        for inst in self.instances:
            self.arrivals_by_slot[inst.req].append(inst)
        # the last fcfs slot's queue split, running list, usage and power
        self._carried = (None, [], (0.0,) * len(cfg.resources), 0.0)

    # -- policy-specific slot scheduling ------------------------------------
    # ``queue`` holds only active instances here (the reaper ran first).
    def _fcfs_slot(self, queue: EdfQueue):
        """Non-preemptive first come, first served: every started instance
        (service > 0) keeps running, then queued ones start in request
        order until the first that does not fit.  The started instances
        head the queue's iteration and the waiting ones follow, both in
        request order (see the class docstring).  Nothing starts between
        slots, so a started prefix as long as the last slot's running list
        is that list, and its uid-order sums are the ones carried from that
        slot; any other prefix is summed afresh in uid order.

        Repeat rule: where the queue's split is the very tuple of the last
        slot's, no instance joined or left the queue since, so none of the
        last slot's running instances completed.  Its running list is then
        the started prefix, and the head-of-line instance that did not fit
        it does not fit again: the slot returns the last slot's result,
        its running list included."""
        split = queue.split()
        last_split, last_running, usage, power = self._carried
        if split is last_split:
            return last_running, usage, power
        running = []
        waiting = iter(queue)
        for inst in waiting:
            if inst.service == 0:  # the first waiting instance heads the rest
                waiting = chain((inst,), waiting)
                break
            running.append(inst)
        if len(running) != len(last_running):
            usage = (0.0,) * len(self.cfg.resources)
            power = 0.0
            for inst in running:
                usage = tuple(map(add, usage, inst.spec.demand))
                power += inst.spec.power_weight
        budget = self.cfg.power_budget
        for inst in waiting:  # head-of-line: stop at the first non-fit
            spec = inst.spec
            new = try_fit(usage, power, spec.demand, spec.power_weight, budget)
            if new is None:
                break
            usage = new
            power += spec.power_weight
            running.append(inst)
        # held here, the split stays alive, so the identity test above
        # cannot meet a new tuple at a freed address
        self._carried = (split, running, usage, power)
        return running, usage, power

    def run(self) -> DefenderSchedule:
        cfg = self.cfg
        h, w_len_cfg = cfg.horizon, cfg.window
        sched_cfg = cfg.scheduler_config()
        targets = cfg.stability_targets()
        util = cfg.utility
        policy = self.policy
        plans = policy in _STAR_FAMILY

        instances = self.instances
        fcfs = policy == "fcfs"
        queue = EdfQueue()
        # admitted instances by the one slot that can reap them
        reap_at: dict[int, list[TaskInstance]] = defaultdict(list)
        # sp starts a scan block at each multiple of sp_scan_period that no block covers
        duration = cfg.scan.duration
        sp_every = cfg.sp_scan_period * -(-duration // cfg.sp_scan_period)
        # Every slot executes a decided scan state.  A forced decision reads
        # only the planner's config, and the served counts it writes are
        # never read, so one planner executes every window.
        planner = GreedyPlanner(util, sched_cfg, 0, w_len_cfg)

        events_count = 0
        counts = {"completed": 0, "dropped": 0, "missed": 0}
        scan_col: list[bool] = []
        z_col: list[float] = []
        power_col: list[float] = []
        usage_col: list[tuple[float, ...]] = []
        z_avg: list[float] = []
        # the last executed slot's running uids and their instances
        ran_uids = ran = None

        for w_start in range(0, h, w_len_cfg):
            w_len = min(w_len_cfg, h - w_start)

            # receding-horizon plan: the star family commits to its scan pattern
            if plans:
                plan = plan_horizon(
                    queue, w_start, w_len, util, sched_cfg,
                    specs=cfg.tasks, stability_targets=targets,
                )
                scan_plan = plan.scan_on.tolist()
                z_avg.append(plan.z_avg)

            for k in range(w_len):
                t = w_start + k
                # arrivals, all admitted: TaskSpec requires relative_deadline >= processing
                for inst in self.arrivals_by_slot.get(t, ()):
                    admit(inst, t)
                    queue.add(inst)
                    reap_at[inst.deadline + 1].append(inst)
                # deadline reaper: only this slot's bucket can expire
                for inst in reap_at.pop(t, ()):
                    if inst.state is not _ADMITTED:
                        continue
                    if inst.spec.firm_deadline:
                        inst.state = _MISSED
                        counts["missed"] += 1
                    elif inst.service == 0:
                        inst.state = _DROPPED
                        counts["dropped"] += 1
                    else:  # a started soft instance runs on
                        continue
                    queue.discard(inst)

                # schedule
                if fcfs:
                    running, usage, power = self._fcfs_slot(queue)
                    scan_now = False
                    z = 1.0 - max(usage)
                else:
                    if plans:  # committed scan pattern, queued task fill
                        scan_now = bool(scan_plan[k])
                    else:  # sp: a scan block every sp_every slots
                        scan_now = t % sp_every < duration
                    dec = planner.schedule_slot(queue, t, forced_scan=scan_now)
                    if dec.running is not ran_uids:  # a repeated slot hands back its list
                        ran_uids = dec.running
                        ran = [instances[uid] for uid in ran_uids]
                    running = ran
                    usage, power, z = dec.usage, dec.power, dec.z
                    events_count += len(dec.events)

                usage_col.append(usage)
                scan_col.append(scan_now)
                z_col.append(z)
                power_col.append(power)

                # advance work; instances left out keep theirs for later
                for inst in run_slot(running):
                    counts["completed"] += 1
                    queue.discard(inst)

        # a given dtype spares numpy a pass that infers one
        scan_on = np.array(scan_col, dtype=int)
        z_arr = np.array(z_col, dtype=float)
        starts = np.arange(0, h, w_len_cfg)
        # exact: each window's integer scan count over its length
        scan_freq = np.add.reduceat(scan_on, starts) / np.diff(starts, append=h)
        generated = len(instances)
        residual = sum(1 for i in instances if i.active)
        if counts["completed"] + counts["dropped"] + counts["missed"] + residual != generated:
            raise RuntimeError("instance accounting identity violated")
        low = [i for i in instances if i.spec.priority == Priority.LOW]
        firm = [i for i in instances if i.spec.firm_deadline]
        return DefenderSchedule(
            scan_on=_read_only(scan_on),
            z=_read_only(z_arr),
            power=_read_only(np.array(power_col, dtype=float)),
            z_avg=_read_only(np.array(z_avg, dtype=float)) if plans else None,
            scan_freq=_read_only(scan_freq),
            defender_total=episode_utility(scan_on, z_arr, w_len_cfg, duration, util),
            # per resource, a running sum in slot order
            usage_sum=tuple(reduce(add, column, 0.0) for column in zip(*usage_col)),
            generated=generated,
            completed=counts["completed"],
            dropped=counts["dropped"],
            missed=counts["missed"],
            residual=residual,
            low_total=len(low),
            low_done=sum(1 for i in low if i.state is _COMPLETED),
            firm_total=len(firm),
            firm_missed=sum(1 for i in firm if i.state is _MISSED),
            infeasible_events=events_count,
        )


# The star family's last schedule, under its key: the scheduling inputs
# and the seed
_SCHEDULE_CACHE: dict[tuple, DefenderSchedule] = {}


def defender_schedule(cfg: ScenarioConfig, seed: int, policy: str) -> DefenderSchedule:
    """The defender pass of one episode.  star, star-static and stardis
    differ only in signaling, so they share one schedule per seed: the
    last one built is kept and returned while the same inputs repeat."""
    if policy not in _STAR_FAMILY:
        return DefenderPass(cfg, seed, policy).run()
    key = (
        cfg.tasks, cfg.scan, cfg.utility, cfg.horizon, cfg.window,
        cfg.power_budget, seed,
    )
    schedule = _SCHEDULE_CACHE.get(key)
    if schedule is None:
        schedule = DefenderPass(cfg, seed, policy).run()
        _SCHEDULE_CACHE.clear()
        _SCHEDULE_CACHE[key] = schedule
    return schedule


# ---------------------------------------------------------------------------
# Episode runner: the telemetry pass over a defender schedule
# ---------------------------------------------------------------------------

class EpisodeRunner:
    def __init__(self, cfg: ScenarioConfig, seed: int, policy: str | None = None):
        self.cfg = cfg
        self.policy = policy or cfg.policy
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.policy!r}")
        self.seed = seed
        # the first stream draws the arrivals, in the defender pass
        _, kid_channel, kid_signal = np.random.SeedSequence(seed).spawn(3)
        self.rng_channel = np.random.default_rng(kid_channel)
        self.rng_signal = np.random.default_rng(kid_signal)

        # an interceptor runs only where a star-family policy signals to it
        self.signaling_on = cfg.attacker_mode != "none" and self.policy in _STAR_FAMILY
        self.plan = _signal_plan(cfg, self.policy if self.signaling_on else None)
        self.mean_snr = self.plan.mean_snr
        self.erased = erasures(self.mean_snr, sample_envelope(cfg.channel, self.rng_channel, size=cfg.horizon), cfg.channel)

    def telemetry(self, schedule: DefenderSchedule) -> tuple[list[int], Interception]:
        """The telemetry pass over ``schedule`` where an interceptor is
        signaled to: each window's quantized planned state, each slot's
        signal drawn from one uniform of the signal stream, and the
        interceptor's pass over the packets the plan delivers."""
        cfg = self.cfg
        pset = cfg.persuasion
        h, window = cfg.horizon, cfg.window
        states = quantize_state(schedule.scan_freq > 0, np.clip(schedule.z_avg, 0.0, 1.0), pset.z_bins)
        tables = self.plan.tables
        signals = tables.draw(np.repeat(states, window)[:h], self.rng_signal.random(h))
        threshold = pset.belief_threshold if cfg.attacker_mode == "threshold" else None
        seen = intercept(
            tables, self.plan.delivered, signals, self.erased, schedule.scan_on, schedule.z,
            window, cfg.attacker, threshold,
        )
        return states.tolist(), seen

    def run(self) -> tuple[EpisodeMetrics, EpisodeTraces]:
        """The defender pass (or its shared schedule), then the telemetry
        pass over it with the policy's signal plan."""
        cfg = self.cfg
        schedule = defender_schedule(cfg, self.seed, self.policy)
        h, w_len_cfg = cfg.horizon, cfg.window
        plan = self.plan
        n_windows = len(schedule.scan_freq)

        if self.signaling_on:
            states, seen = self.telemetry(schedule)
        else:
            states = [""] * n_windows
            seen = Interception(
                signal=[""] * h, belief_scan=[""] * h, x_att=[0] * h, attack_blocked=[0] * h,
                realized_reward=[0.0] * h, intensity=[0.0] * h, drift=[0.0] * n_windows,
                realized=0.0, believed=0.0, attacks=0, blocked=0,
            )

        budget_totals = plan.window_budgets.tolist()
        scan_freq = schedule.scan_freq.tolist()
        if schedule.z_avg is None:
            scan_planned = z_avg = [""] * n_windows
        else:
            scan_planned = (schedule.scan_freq > 0).astype(int).tolist()
            z_avg = schedule.z_avg.tolist()
        # every window is full but the last, which ends at the horizon
        lengths = [w_len_cfg] * n_windows
        lengths[-1] = h - (n_windows - 1) * w_len_cfg
        windows = [
            {
                "window": i, "start": w_start, "length": n, "state": state,
                "scan_planned": planned, "z_avg_planned": z, "scan_freq_realized": freq,
                "budget_total": budget, "drift": drift,
            }
            for i, w_start, n, state, planned, z, freq, budget, drift in zip(
                range(n_windows), range(0, h, w_len_cfg), lengths, states, scan_planned,
                z_avg, scan_freq, budget_totals, seen.drift, strict=True,
            )
        ]

        columns = {
            "t": list(range(h)),
            "scan_on": schedule.scan_on.tolist(),
            "z": schedule.z.tolist(),
            "power": schedule.power.tolist(),
            "mean_snr_db": self.mean_snr.tolist(),
            "received": (~self.erased).astype(int).tolist(),
            "delay_slots": plan.delays.tolist(),
            "signal": seen.signal,
            "belief_scan": seen.belief_scan,
            "x_att": seen.x_att,
            "attack_blocked": seen.attack_blocked,
            "realized_reward": seen.realized_reward,
            "intensity": seen.intensity,
            "budget": plan.budgets.tolist(),
        }
        traces = EpisodeTraces(slots={k: columns[k] for k in SLOT_TRACE_COLUMNS}, windows=windows)

        s = schedule
        metrics = EpisodeMetrics(
            policy=self.policy,
            seed=self.seed,
            utilization={
                res: float(s.usage_sum[i] / h * 100.0) for i, res in enumerate(cfg.resources)
            },
            routine_completion_pct=(100.0 * s.low_done / s.low_total) if s.low_total else 100.0,
            relay_miss_pct=(100.0 * s.firm_missed / s.firm_total) if s.firm_total else 0.0,
            defender_utility=s.defender_total / h,
            attacker_realized=seen.realized / h,
            attacker_believed=seen.believed / h,
            scan_freq=float(np.mean(s.scan_on)),
            erasure_count=int(np.sum(self.erased)),
            attack_count=seen.attacks,
            blocked_attacks=seen.blocked,
            generated=s.generated,
            completed=s.completed,
            dropped=s.dropped,
            missed=s.missed,
            residual=s.residual,
            infeasible_events=s.infeasible_events,
        )
        return metrics, traces


def run_episode(cfg: ScenarioConfig, seed: int, policy: str | None = None):
    """One full episode; returns (metrics, traces)."""
    return EpisodeRunner(cfg, seed, policy).run()


# ---------------------------------------------------------------------------
# Suite, sweeps, persistence
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkResult:
    policies: list[str]
    seeds: list[int]
    stats: dict[str, dict[str, tuple[float, float]]]  # policy -> metric -> (mean, std)
    normalized_utility: dict[str, float]
    episodes: dict[str, list[EpisodeMetrics]]

    def to_jsonable(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "build_id": build_id(),
            "policies": self.policies,
            "seeds": self.seeds,
            "stats": {
                pol: {m: {"mean": mu, "std": sd} for m, (mu, sd) in rows.items()}
                for pol, rows in self.stats.items()
            },
            "normalized_defender_utility": self.normalized_utility,
        }


def _check_policies(policies) -> None:
    """Reject an empty or unknown policy list before any episode runs."""
    if not policies:
        raise ValueError("empty policy list")
    for pol in policies:
        if pol not in POLICY_KINDS:
            raise ValueError(f"unknown policy {pol!r}")


def _check_seeds(seeds) -> None:
    if not seeds:
        raise ValueError("need at least one seed")


def _run_by_seed(cfgs, policies, seeds) -> list[dict[str, list[EpisodeMetrics]]]:
    """Each scenario's episode metrics per policy, in seed order.  Seeds
    are the outer loop, so the star-family episodes of one seed run back
    to back, under every scenario, and share one defender schedule
    (``defender_schedule``)."""
    episodes = [{pol: [] for pol in policies} for _ in cfgs]
    for s in seeds:
        for cfg, by_policy in zip(cfgs, episodes):
            for pol, runs in by_policy.items():
                runs.append(run_episode(cfg, s, pol)[0])
    return episodes


def _stats(episodes: list[EpisodeMetrics]) -> dict[str, tuple[float, float]]:
    """Mean and standard deviation of every ``to_row`` metric."""
    rows = [m.to_row() for m in episodes]
    return {
        key: (float(np.mean([r[key] for r in rows])), float(np.std([r[key] for r in rows])))
        for key in rows[0]
    }


def run_benchmark_suite(cfg: ScenarioConfig, policies, seeds) -> BenchmarkResult:
    """Per-policy mean and standard deviation of every episode metric over
    shared seeds; defender utility additionally normalized to the
    first-come-first-served mean when that baseline is included and its
    mean is positive (otherwise no policy is normalized)."""
    policies = list(policies)
    seeds = list(seeds)
    _check_policies(policies)
    _check_seeds(seeds)
    [episodes] = _run_by_seed([cfg], policies, seeds)
    stats = {pol: _stats(runs) for pol, runs in episodes.items()}
    normalized = {}
    base = stats["fcfs"]["defender_utility"][0] if "fcfs" in stats else 0.0
    if base > 0:
        for pol in policies:
            normalized[pol] = stats[pol]["defender_utility"][0] / base
    return BenchmarkResult(
        policies=policies, seeds=seeds, stats=stats,
        normalized_utility=normalized, episodes=episodes,
    )


def sweep(cfg: ScenarioConfig, key: str, values, seeds, policies=_STAR_FAMILY):
    """Re-run the benchmark comparison of ``policies`` with the dotted
    scenario key ``key`` set to each of ``values``, such as
    ``persuasion.credibility``, ``attacker.mode`` or
    ``tasks.0.arrival.rate``.  Each config is ``with_scenario_values`` of
    ``cfg``: a value is checked as a scenario file's would be, and a key
    that the config's echo does not hold is rejected.  So is ``policy``,
    which ``policies`` overrides in every episode.  Every argument is
    checked, and every config built, before any episode runs."""
    values = list(values)
    seeds = list(seeds)
    _check_policies(policies)
    if not values:
        raise ValueError("need at least one sweep value")
    _check_seeds(seeds)
    if key == "policy":
        raise ValueError("sweep key 'policy' would be ignored: the policies argument sets each episode's")
    cfgs = [with_scenario_values(cfg, {key: v}) for v in values]
    rows = []
    for v, episodes in zip(values, _run_by_seed(cfgs, policies, seeds)):
        stats = {pol: _stats(runs) for pol, runs in episodes.items()}
        for pol in policies:
            rows.append({
                "param": key,
                "value": v,
                "policy": pol,
                "attacker_realized_mean": stats[pol]["attacker_realized"][0],
                "attacker_realized_std": stats[pol]["attacker_realized"][1],
                "attacker_believed_mean": stats[pol]["attacker_believed"][0],
                "defender_utility_mean": stats[pol]["defender_utility"][0],
            })
    return rows


def _fmt(v) -> str:
    # shortest round-trip form; float() so a numpy scalar prints as a number
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_csv(rows, columns, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_slot_traces(traces: EpisodeTraces, path):
    write_csv(list(traces.slot_rows()), SLOT_TRACE_COLUMNS, path)


def write_window_traces(traces: EpisodeTraces, path):
    write_csv(traces.windows, WINDOW_TRACE_COLUMNS, path)


def write_json(payload: dict, cfg: ScenarioConfig, path):
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "build_id": build_id(),
        "config": cfg.to_jsonable(),
    }
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
