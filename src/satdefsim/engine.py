"""Episode orchestration: the defender and telemetry passes, baseline
policies, metric aggregation, benchmark suites and parameter sweeps.

An episode is two passes.  The defender pass (``DefenderPass``) runs
arrivals, admission, deadline reaping, the receding-horizon plan of each
window, the slot solver or the fcfs rule and task progress, and returns
a read-only ``DefenderSchedule``.  The telemetry pass (``EpisodeRunner``)
reads that schedule and its policy's ``SignalPlan`` and writes to
neither: each window it quantizes the planned (scan, load) state and
samples one deceptive signal per slot from the plan's tables; then slot
by slot it delivers or erases telemetry, updates the interceptor's
belief and lets it act.
Episodes are deterministic given (config, seed).

Signaling shapes only the downlink, so star, star-static and stardis
run the same defender pass on one seed.  ``defender_schedule`` keeps the
star family's last schedule in a one-entry cache keyed by the values of
the scheduling inputs and the seed: further star-family episodes of that
seed skip the defender pass, also under configs that differ only in
persuasion, channel or attacker settings.  Suites and sweeps run seeds
in the outer loop so that each seed's schedule is built once.

Only the fading draw depends on the seed.  What else an episode reads
is built once and shared read-only: the game and its solved policies
(``persuasion_assets``), the downlink forecast (mean SNR, propagation
and delivery delays, outage probability) and each policy's
``SignalPlan``: the ``SignalTable`` every slot's packet is drawn from,
the slot's credibility budget and delivery delay, and each window's
budget total.  Each build is cached by value, a plan on its config and
policy and the others on the config fields they read, so configs with
equal values share every build.

A ``SignalTable`` holds what signaling reads of one policy: per-state
sampling CDFs, the interceptor's posterior after each signal with mass,
and a memo of the window drift.  An episode draws its signal uniforms in
one ``rng_signal.random(horizon)`` call and turns each into a signal
with the row's CDF, exactly as ``Generator.choice`` would; a received
packet is a table read and an erasure resets to the shared read-only
prior.

The interceptor's slot is one ``Interceptor`` step: ``receive`` the
slot's telemetry, then ``act`` on the belief it leaves.  Episodes run
every slot through it, and so do the scripted belief-dynamics checks
(acceptance criterion 9), which deliver forced signals slot by slot.
"""
from __future__ import annotations

import csv
import json
import subprocess
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache
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
    intensity_update,
    threshold_decision,
)
from .channel import (
    ChannelParams,
    OutageTable,
    PassGeometry,
    delivery_delay_slots,
    erasures,
    predict_mean_snr,
    sample_envelope,
)
from .config import DECEPTION_POLICIES, POLICY_KINDS, ScenarioConfig
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
    GreedyPlanner,
    detection_performance,
    plan_horizon,
    slot_utility,
    try_fit,
)
from .workload import InstanceState, Priority, TaskInstance, admit, generate_arrivals

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
    except OSError:
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
# Signal tables: what the signaling loop reads for one policy
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

    - ``cdf[state]``: the row's sampling CDF (``choice_cdf``), so a draw
      is one ``searchsorted``;
    - ``posteriors[m]``: the ``belief_entry`` of ``belief_update(prior, m,
      policy)`` for every signal ``m`` with mass under the prior, so a
      received packet is a table read; a zero-mass signal has no entry;
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

    def draw(self, state: int, u: float) -> int:
        """The signal ``Generator.choice`` draws in ``state`` from uniform ``u``."""
        return int(self.cdf[state].searchsorted(u, side="right"))

    def receive(self, m: int) -> tuple[np.ndarray, float, float]:
        """The interceptor's ``belief_entry`` after signal ``m``."""
        entry = self.posteriors.get(m)
        if entry is None:
            raise ValueError(f"signal {m} has zero probability under the prior")
        return entry

    def drift(self, belief: np.ndarray) -> float:
        key = belief.tobytes()
        value = self._drift.get(key)
        if value is None:
            value = self._drift[key] = lyapunov_drift(belief, self.policy, self.game)
        return value


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
    return _game_assets(p.z_bins, p.n_signals, p.prior_scan, p.subdivisions, att.reward_weight, att.base_cost)


@lru_cache(maxsize=16)
def _game_assets(z_bins, n_signals, prior_scan, subdivisions, reward_weight, base_cost) -> PersuasionAssets:
    game = build_scan_game(reward_weight, base_cost, prior_scan, z_bins=z_bins, n_signals=n_signals)
    return PersuasionAssets(game, subdivisions)


@lru_cache(maxsize=8)
def _mean_snr(horizon: int, geometry: PassGeometry) -> np.ndarray:
    """Per-slot mean-SNR forecast (dB)."""
    mean_snr = predict_mean_snr(0, horizon, geometry)
    mean_snr.flags.writeable = False
    return mean_snr


@lru_cache(maxsize=8)
def _link_tables(
    horizon: int, geometry: PassGeometry, proc_delay_ms: float, slot_ms: float
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per-slot mean-SNR forecast, propagation delay (ms) and delivery
    delay in slots without injected delay."""
    prop_ms = np.array([geometry.propagation_delay_ms(t) for t in range(horizon)])
    prop_ms.flags.writeable = False
    delay_slots = tuple(delivery_delay_slots(prop_ms, proc_delay_ms, 0.0, slot_ms).tolist())
    return _mean_snr(horizon, geometry), prop_ms, delay_slots


@lru_cache(maxsize=8)
def _outage_forecast(horizon: int, geometry: PassGeometry, channel: ChannelParams) -> np.ndarray:
    """Per-slot forecast outage probability, read from one ``OutageTable``
    over the forecast's SNR range."""
    mean_snr = _mean_snr(horizon, geometry)
    pout = OutageTable(channel, float(mean_snr.min()), float(mean_snr.max()))(mean_snr)
    pout.flags.writeable = False
    return pout


@dataclass(frozen=True)
class SignalPlan:
    """How one policy signals in a scenario, read-only.

    Per slot: the ``tables`` its packet is drawn from (empty where no
    interceptor is signaled to), its credibility ``budgets`` and its
    delivery ``delays`` in slots.  Per window: ``window_budgets``, the
    budget total.  Both budget arrays are read-only.
    """

    tables: tuple[SignalTable, ...]
    budgets: np.ndarray
    delays: tuple[int, ...]
    window_budgets: np.ndarray


# ``_run_by_seed`` cycles through every (scenario, policy) plan for each
# seed: a 4-value sweep over all 5 policies needs 16 entries (fcfs and sp
# share the plan without signaling)
@lru_cache(maxsize=16)
def _signal_plan(cfg: ScenarioConfig, policy: str | None) -> SignalPlan:
    """The signal plan of ``policy`` in ``cfg``, or of no signaling for ``None``.

    star reveals the state in every slot.  star-static signals with the
    static solution at the credibility budget.  stardis allocates each
    window's budget over its forecast outage, signals with the curve
    level each slot gets, and delays each slot's telemetry by an
    artificial delay that follows its forecast SNR.  The other plans have
    no tables, zero budgets and the base delays.
    """
    horizon, window, p = cfg.horizon, cfg.window, cfg.persuasion
    mean_snr, prop_ms, delays = _link_tables(horizon, cfg.geometry, cfg.proc_delay_ms, cfg.slot_ms)
    tables: tuple[SignalTable, ...] = ()
    budgets = np.broadcast_to(0.0, horizon)  # a read-only view, one value stored
    assets = persuasion_assets(cfg) if policy is not None else None
    if policy == "star":
        tables = (SignalTable(assets.reveal_policy, assets.game),) * horizon
    elif policy == "star-static":
        table = SignalTable(assets.static_solution(p.credibility).policy, assets.game)
        tables = (table,) * horizon
        budgets = np.broadcast_to(p.credibility, horizon)
    elif policy == "stardis":
        curve = assets.curve(p.budget_points)
        pout = _outage_forecast(horizon, cfg.geometry, cfg.channel)
        levels, delays = [], []
        for w_start in range(0, horizon, window):
            w_end = min(w_start + window, horizon)
            levels.append(allocate_on_grid(pout[w_start:w_end], p.credibility * (w_end - w_start), curve))
            slot_delays = [
                choose_artificial_delay(
                    float(mean_snr[t]),
                    float(prop_ms[t]),
                    p.delay_max_ms,
                    cfg.proc_delay_ms,
                    p.delay_snr_lo_db,
                    p.delay_snr_hi_db,
                )
                for t in range(w_start, w_end)
            ]
            delays += delivery_delay_slots(
                prop_ms[w_start:w_end], cfg.proc_delay_ms, slot_delays, cfg.slot_ms
            ).tolist()
        level_of_slot = np.concatenate(levels)
        by_level = {
            l: SignalTable(curve.solutions[l].policy, assets.game) for l in np.unique(level_of_slot).tolist()
        }
        tables = tuple(by_level[l] for l in level_of_slot.tolist())
        budgets = curve.budgets[level_of_slot]
        budgets.flags.writeable = False
        delays = tuple(delays)
    window_budgets = np.array([float(np.sum(budgets[w : w + window])) for w in range(0, horizon, window)])
    window_budgets.flags.writeable = False
    return SignalPlan(tables, budgets, delays, window_budgets)


# ---------------------------------------------------------------------------
# Interceptor step
# ---------------------------------------------------------------------------

class Interceptor:
    """The interceptor of one episode, one slot at a time: ``receive``
    the slot's telemetry, then ``act`` against the belief it leaves.

    ``params`` are the ``AttackerParams``; ``belief, p_scan, idle_gap``
    is the current ``belief_entry``, the prior's at the start and after
    an erasure; ``threshold`` selects the threshold rule, ``None`` the dp
    rule.  The dp rule decides every slot afresh with ``dp_decision``:
    the first decision of the optimal plan for the rest of the window
    from the current belief and intensity, which is the decision a plan
    made earlier would take there while the belief stays the same.  The
    totals are the realized and believed attack utilities summed over
    the slots.  ``dp_decision`` and ``threshold_decision`` are looked up
    in this module, so patching them sees every call.
    """

    def __init__(self, params, prior_entry: tuple, threshold: float | None):
        self.params = params
        self.threshold = threshold
        self.prior_entry = prior_entry
        self.belief, self.p_scan, self.idle_gap = prior_entry
        self.intensity = 0.0
        self.realized = 0.0
        self.believed = 0.0
        self.attacks = 0
        self.blocked = 0

    def receive(self, erased: bool, due) -> str:
        """Take a slot's telemetry: ``due`` holds the ``(generated_at,
        signal, table)`` packets arriving in it.  An erased slot resets
        the belief to the prior and loses them; otherwise the newest sets
        the belief.  Returns the received signal, or "" for none."""
        if erased:
            self.belief, self.p_scan, self.idle_gap = self.prior_entry
        elif due:
            _, m, table = max(due, key=lambda d: d[0])
            self.belief, self.p_scan, self.idle_gap = table.receive(m)
            return str(m)
        return ""

    def act(self, scan_now: bool, z: float, erased: bool, remaining: int) -> tuple[int, int, float]:
        """Decide and settle one slot with ``remaining`` slots left in its
        window; returns ``(x_att, blocked, reward)``.  An attack pays its
        intensity-amplified cost; it earns ``reward_weight * (1 - z)``
        only when the slot's telemetry was intercepted and no scan runs,
        and an attack into a scan counts as blocked."""
        att = self.params
        gap = att.reward_weight * self.idle_gap  # believed attack gap
        if self.threshold is not None:
            x_att = int(threshold_decision(self.p_scan, self.threshold))
        else:
            x_att = dp_decision(gap, remaining, att, self.intensity)
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


# ---------------------------------------------------------------------------
# Defender pass
# ---------------------------------------------------------------------------

_STAR_FAMILY = ("star",) + DECEPTION_POLICIES


@dataclass(frozen=True)
class DefenderSchedule:
    """What the defender does in one episode, read-only.

    Per slot: ``scan_on`` (0 or 1), the idle capacity ``z`` and the
    ``power`` drawn.  Per window: the plan's ``has_scan`` and ``z_avg``
    (``None`` for fcfs and sp, which do not plan) and the realized scan
    frequency ``scan_freq``.  Then the summed defender utility and
    per-resource usage, the instance counts and the low-priority and firm
    counts behind the completion and miss percentages.
    """

    scan_on: tuple[int, ...]
    z: tuple[float, ...]
    power: tuple[float, ...]
    has_scan: tuple[bool, ...] | None
    z_avg: tuple[float, ...] | None
    scan_freq: tuple[float, ...]
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
    the fcfs rule, and task progress.  It reads nothing of the telemetry
    and the interceptor, so ``run`` is a function of the scenario's
    scheduling inputs, the seed and the policy (all star-family policies
    give the same schedule).  Arrivals come from the first of the
    episode's three random streams."""

    def __init__(self, cfg: ScenarioConfig, seed: int, policy: str):
        self.cfg = cfg
        self.policy = policy
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
        self.instances = generate_arrivals(list(cfg.tasks), cfg.horizon, rng)
        self.arrivals_by_slot: dict[int, list[TaskInstance]] = defaultdict(list)
        for inst in self.instances:
            self.arrivals_by_slot[inst.req].append(inst)

    # -- policy-specific slot scheduling ------------------------------------
    # ``live`` holds only active instances here (the reaper ran first).
    def _fcfs_slot(self, live):
        """Non-preemptive first come, first served: every started instance
        (service > 0) keeps running, then queued ones start in request
        order until the first that does not fit."""
        usage = (0.0,) * len(self.cfg.resources)
        power = 0.0
        running = [i for i in live if i.service > 0]
        for inst in running:
            usage = tuple(map(add, usage, inst.spec.demand))
            power += inst.spec.power_weight
        queue = [i for i in live if i.service == 0]
        queue.sort(key=lambda i: (i.req, i.uid))
        for inst in queue:  # head-of-line: stop at the first non-fit
            new = try_fit(usage, power, inst.spec.demand, inst.spec.power_weight, self.cfg.power_budget)
            if new is None:
                break
            usage = new
            power += inst.spec.power_weight
            running.append(inst)
        return running, usage, power

    def _executed(self, dec, scan_now):
        """Instances a planner decision runs, in ``live`` order, with the
        slot's usage and power: task demands first, the scan's last.
        An instance's uid is its index in ``self.instances``, the arrival
        stream in request order, and arrivals join ``live`` slot by slot,
        so ``live`` is in uid order and the sorted uids give it."""
        instances = self.instances
        running = [instances[uid] for uid in sorted(dec.running)]
        scan = self.cfg.scan
        usage = (0.0,) * len(self.cfg.resources)
        power = scan.power_weight if scan_now else 0.0
        for i in running:
            spec = i.spec
            usage = tuple(map(add, usage, spec.demand))
            power += spec.power_weight
        if scan_now:
            usage = tuple(map(add, usage, scan.demand))
        return running, usage, power

    def run(self) -> DefenderSchedule:
        cfg = self.cfg
        h, w_len_cfg = cfg.horizon, cfg.window
        sched_cfg = cfg.scheduler_config()
        targets = cfg.stability_targets()
        util = cfg.utility
        policy = self.policy
        plans = policy in _STAR_FAMILY

        live: list[TaskInstance] = []
        sp_scan_until = 0
        sp_planner = GreedyPlanner(util, sched_cfg, 0, w_len_cfg, targets)

        usage_sum = [0.0] * len(cfg.resources)
        events_count = 0
        counts = {"completed": 0, "dropped": 0, "missed": 0}
        scan_col: list[int] = []
        z_col: list[float] = []
        power_col: list[float] = []
        has_scan: list[bool] = []
        z_avg: list[float] = []
        scan_freq: list[float] = []
        defender_total = 0.0

        for w_start in range(0, h, w_len_cfg):
            w_len = min(w_len_cfg, h - w_start)

            # receding-horizon plan: the star family commits to its scan pattern
            if plans:
                plan = plan_horizon(
                    live, w_start, w_len, util, sched_cfg,
                    specs=cfg.tasks, stability_targets=targets,
                )
                has_scan.append(plan.has_scan)
                z_avg.append(plan.z_avg)
                scan_plan = plan.scan_on.tolist()
                exec_planner = GreedyPlanner(util, sched_cfg, w_start, w_len, targets)

            for k in range(w_len):
                t = w_start + k
                # arrivals + admission
                for inst in self.arrivals_by_slot.get(t, ()):
                    if admit(inst, t) is _ADMITTED:
                        live.append(inst)
                    else:
                        counts["dropped"] += 1
                # deadline reapers (live holds only active instances); live
                # is rebuilt only in a slot where some instance expires
                expired = [
                    i for i in live
                    if t > i.deadline and i.remaining > 0 and (i.spec.firm_deadline or i.service == 0)
                ]
                if expired:
                    for inst in expired:
                        if inst.spec.firm_deadline:
                            inst.state = _MISSED
                            counts["missed"] += 1
                        else:
                            inst.state = _DROPPED
                            counts["dropped"] += 1
                    live = [i for i in live if i.state is _ADMITTED]

                # schedule
                if policy == "fcfs":
                    running, usage, power = self._fcfs_slot(live)
                    scan_now = False
                else:
                    if plans:  # committed scan pattern, live task fill
                        planner = exec_planner
                        scan_now = bool(scan_plan[k])
                    elif cfg.sp_scan_rule == "periodic":
                        planner = sp_planner
                        if t % cfg.sp_scan_period == 0 and t >= sp_scan_until:
                            sp_scan_until = t + cfg.scan.duration
                        scan_now = t < sp_scan_until
                    else:  # spec-literal marginal-utility trigger at full capacity
                        if t >= sp_planner.window_end:
                            sp_planner = GreedyPlanner(util, sched_cfg, t, w_len_cfg, targets)
                        planner = sp_planner
                        scan_now = sp_planner.delta_u_scan(t)
                    dec = planner.schedule_slot(live, t, forced_scan=scan_now)
                    running, usage, power = self._executed(dec, scan_now)
                    events_count += len(dec.events)

                z = 1.0 - max(usage)
                usage_sum = list(map(add, usage_sum, usage))
                scan_col.append(int(scan_now))
                z_col.append(z)
                power_col.append(float(power))

                # advance work; instances left out keep theirs for later
                finished = False
                for inst in running:
                    inst.run_one_slot()
                    if inst.state is _COMPLETED:
                        counts["completed"] += 1
                        finished = True
                if finished:  # completion is the only way out of live here
                    live = [i for i in live if i.state is not _COMPLETED]

            # defender utility for the window (window-level scan frequency)
            w_scan = scan_col[w_start:]
            f_w = sum(w_scan) / w_len  # exact: an integer count over the length
            y_w = detection_performance(f_w, cfg.scan.duration, util)
            for scan_on, z in zip(w_scan, z_col[w_start:]):
                defender_total += slot_utility(y_w, scan_on, z, util)
            scan_freq.append(f_w)

        instances = self.instances
        generated = len(instances)
        residual = sum(1 for i in instances if i.active)
        if counts["completed"] + counts["dropped"] + counts["missed"] + residual != generated:
            raise RuntimeError("instance accounting identity violated")
        low = [i for i in instances if i.spec.priority == Priority.LOW]
        firm = [i for i in instances if i.spec.firm_deadline]
        return DefenderSchedule(
            scan_on=tuple(scan_col),
            z=tuple(z_col),
            power=tuple(power_col),
            has_scan=tuple(has_scan) if plans else None,
            z_avg=tuple(z_avg) if plans else None,
            scan_freq=tuple(scan_freq),
            defender_total=defender_total,
            usage_sum=tuple(usage_sum),
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
        cfg.power_budget, cfg.scan_margin_rule, seed,
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

        h = cfg.horizon
        self.mean_snr = _mean_snr(h, cfg.geometry)
        self.erased = erasures(self.mean_snr, sample_envelope(cfg.channel, self.rng_channel, size=h), cfg.channel)

        # an interceptor runs only where a star-family policy signals to it
        self.signaling_on = cfg.attacker_mode != "none" and self.policy in _STAR_FAMILY
        self.assets = persuasion_assets(cfg) if self.signaling_on else None

    def run(self) -> tuple[EpisodeMetrics, EpisodeTraces]:
        """The defender pass (or its shared schedule), then the telemetry
        pass over it with the policy's signal plan: state quantization,
        signal draws, deliveries, the interceptor's slots and drift."""
        cfg = self.cfg
        schedule = defender_schedule(cfg, self.seed, self.policy)
        h, w_len_cfg = cfg.horizon, cfg.window
        pset = cfg.persuasion
        erased_slots = self.erased.tolist()
        plan = _signal_plan(cfg, self.policy if self.signaling_on else None)
        delay_slots = plan.delays
        budget_totals = plan.window_budgets.tolist()

        interceptor = None
        if self.signaling_on:
            threshold = pset.belief_threshold if cfg.attacker_mode == "threshold" else None
            interceptor = Interceptor(cfg.attacker, self.assets.prior_entry, threshold)
            # telemetry in flight: arrival slot -> list of (generated_at, signal, table)
            deliveries: dict[int, list] = defaultdict(list)
            # one uniform per slot, consumed as Generator.choice would, one per signal
            uniforms = self.rng_signal.random(h).tolist()
            scan_on, z = schedule.scan_on, schedule.z
            received, p_scan, x_att, blocked, rewards, intensity = ([] for _ in range(6))
        else:
            received, p_scan = [""] * h, [""] * h
            x_att, blocked, rewards, intensity = [0] * h, [0] * h, [0.0] * h, [0.0] * h

        windows = []
        for window_index, w_start in enumerate(range(0, h, w_len_cfg)):
            w_len = min(w_len_cfg, h - w_start)
            state, drift = "", 0.0
            if interceptor is not None:
                state = quantize_state(
                    schedule.has_scan[window_index],
                    min(max(schedule.z_avg[window_index], 0.0), 1.0),
                    pset.z_bins,
                )
                tables = plan.tables[w_start : w_start + w_len]
                for k, tab in enumerate(tables):
                    t = w_start + k
                    deliveries[t + delay_slots[t]].append((t, tab.draw(state, uniforms[t]), tab))
                drift = tables[0].drift(interceptor.belief)
                w_end = w_start + w_len
                for t in range(w_start, w_end):
                    erased = erased_slots[t]  # packets due in an erased slot are lost with it
                    received.append(interceptor.receive(erased, deliveries.pop(t, None)))
                    x, b, r = interceptor.act(bool(scan_on[t]), z[t], erased, w_end - t)
                    p_scan.append(interceptor.p_scan)
                    x_att.append(x)
                    blocked.append(b)
                    rewards.append(r)
                    intensity.append(interceptor.intensity)
            windows.append({
                "window": window_index,
                "start": w_start,
                "length": w_len,
                "state": state,
                "scan_planned": int(schedule.has_scan[window_index]) if schedule.has_scan is not None else "",
                "z_avg_planned": schedule.z_avg[window_index] if schedule.z_avg is not None else "",
                "scan_freq_realized": schedule.scan_freq[window_index],
                "budget_total": budget_totals[window_index],
                "drift": drift,
            })

        columns = {
            "t": list(range(h)),
            "scan_on": list(schedule.scan_on),
            "z": list(schedule.z),
            "power": list(schedule.power),
            "mean_snr_db": self.mean_snr.tolist(),
            "received": [int(not e) for e in erased_slots],
            "delay_slots": list(delay_slots),
            "signal": received,
            "belief_scan": p_scan,
            "x_att": x_att,
            "attack_blocked": blocked,
            "realized_reward": rewards,
            "intensity": intensity,
            "budget": plan.budgets.tolist(),
        }
        traces = EpisodeTraces(slots={k: columns[k] for k in SLOT_TRACE_COLUMNS}, windows=windows)

        realized, believed, attacks, n_blocked = (
            (0.0, 0.0, 0, 0) if interceptor is None
            else (interceptor.realized, interceptor.believed, interceptor.attacks, interceptor.blocked)
        )
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
            attacker_realized=realized / h,
            attacker_believed=believed / h,
            scan_freq=float(np.mean(s.scan_on)),
            erasure_count=int(np.sum(self.erased)),
            attack_count=attacks,
            blocked_attacks=n_blocked,
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
    first-come-first-served mean when that baseline is included."""
    policies = list(policies)
    seeds = list(seeds)
    _check_policies(policies)
    _check_seeds(seeds)
    [episodes] = _run_by_seed([cfg], policies, seeds)
    stats = {pol: _stats(runs) for pol, runs in episodes.items()}
    normalized = {}
    if "fcfs" in stats:
        base = stats["fcfs"]["defender_utility"][0]
        if base <= 0:
            raise RuntimeError("normalization divisor must be positive")
        for pol in policies:
            normalized[pol] = stats[pol]["defender_utility"][0] / base
    return BenchmarkResult(
        policies=policies, seeds=seeds, stats=stats,
        normalized_utility=normalized, episodes=episodes,
    )


_SWEEP_FIELDS = {"credibility": "credibility", "prior": "prior_scan"}


def sweep(cfg: ScenarioConfig, param: str, values, seeds, policies=("star", "star-static", "stardis")):
    """Vary the credibility budget or the prior over scan activity and
    re-run the benchmark comparison at each value.  Every argument is
    checked before any episode runs."""
    if param not in _SWEEP_FIELDS:
        raise ValueError("sweep param must be 'credibility' or 'prior'")
    values = [float(v) for v in values]
    seeds = list(seeds)
    _check_policies(policies)
    if not values:
        raise ValueError("need at least one sweep value")
    _check_seeds(seeds)
    field_name = _SWEEP_FIELDS[param]
    cfgs = [replace(cfg, persuasion=replace(cfg.persuasion, **{field_name: v})) for v in values]
    rows = []
    for v, episodes in zip(values, _run_by_seed(cfgs, policies, seeds)):
        stats = {pol: _stats(runs) for pol, runs in episodes.items()}
        for pol in policies:
            rows.append({
                "param": param,
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
