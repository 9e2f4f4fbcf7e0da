"""Episode orchestration: the integrated plan/signal/execute loop,
baseline policies, metric aggregation, benchmark suites and parameter
sweeps.

Each window: (1) plan the schedule and quantize its (scan, load) state;
(2) allocate the credibility budget over the window from the channel
forecast, sample one deceptive signal per slot and pick the artificial
delay; (3) execute slot by slot - run tasks, draw the channel, deliver
or erase telemetry, update the interceptor's belief and let it act.
Episodes are deterministic given (config, seed).
"""
from __future__ import annotations

import csv
import json
import subprocess
from collections import defaultdict
from dataclasses import dataclass, field, replace
from operator import add

import numpy as np

from . import __version__
from .attacker import (
    AttackerParams,
    best_response,
    belief_update,
    intensity_update,
    threshold_decision,
)
from .channel import OutageTable, delivery_delay_slots, erasures, predict_mean_snr, sample_envelope
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
    HorizonPlan,
    detection_performance,
    plan_horizon,
    slot_utility,
    try_fit,
)
from .workload import InstanceState, Priority, TaskInstance, admit, generate_arrivals

TRACE_SCHEMA_VERSION = 1

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
# Persuasion asset cache (game, solved policies, budget curve)
# ---------------------------------------------------------------------------

class PersuasionAssets:
    def __init__(self, cfg: ScenarioConfig):
        p = cfg.persuasion
        self.game: PersuasionGame = build_scan_game(
            reward_weight=cfg.attacker.reward_weight,
            base_cost=cfg.attacker.base_cost,
            prior_scan=p.prior_scan,
            z_bins=p.z_bins,
            n_signals=p.n_signals,
        )
        n = self.game.n_states
        self.reveal_policy = np.eye(n)
        self.subdivisions = p.subdivisions
        self._static: dict[float, object] = {}
        self._curve: BudgetCurve | None = None

    def static_solution(self, budget: float):
        key = round(budget, 12)
        if key not in self._static:
            self._static[key] = solve_persuasion(self.game, budget, self.subdivisions)
        return self._static[key]

    # ``units_per_slot`` is unused; perfbench/worker.py still passes it
    def curve(self, points: int, units_per_slot: int) -> BudgetCurve:
        if self._curve is None or len(self._curve.budgets) != points:
            self._curve = BudgetCurve(self.game, points=points, subdivisions=self.subdivisions)
        return self._curve


_ASSETS: dict[tuple, PersuasionAssets] = {}


def persuasion_assets(cfg: ScenarioConfig) -> PersuasionAssets:
    p = cfg.persuasion
    key = (
        p.z_bins, p.n_signals, round(p.prior_scan, 12), p.subdivisions,
        round(cfg.attacker.reward_weight, 12), round(cfg.attacker.base_cost, 12),
    )
    if key not in _ASSETS:
        _ASSETS[key] = PersuasionAssets(cfg)
    return _ASSETS[key]


# ---------------------------------------------------------------------------
# Episode runner
# ---------------------------------------------------------------------------

class EpisodeRunner:
    def __init__(self, cfg: ScenarioConfig, seed: int, policy: str | None = None):
        self.cfg = cfg
        self.policy = policy or cfg.policy
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown policy {self.policy!r}")
        self.seed = seed
        kids = np.random.SeedSequence(seed).spawn(4)
        self.rng_arrivals = np.random.default_rng(kids[0])
        self.rng_channel = np.random.default_rng(kids[1])
        self.rng_signal = np.random.default_rng(kids[2])
        self.rng_attacker = np.random.default_rng(kids[3])

        self.instances = generate_arrivals(list(cfg.tasks), cfg.horizon, self.rng_arrivals)
        self.arrivals_by_slot: dict[int, list[TaskInstance]] = defaultdict(list)
        for inst in self.instances:
            self.arrivals_by_slot[inst.req].append(inst)

        h = cfg.horizon
        self.mean_snr = predict_mean_snr(0, h, cfg.geometry)
        self.prop_ms = np.array([cfg.geometry.propagation_delay_ms(t) for t in range(h)])
        # delivery delay without injected delay; stardis recomputes its windows
        self.delay_slots = delivery_delay_slots(self.prop_ms, cfg.proc_delay_ms, 0.0, cfg.slot_ms).tolist()
        self.erased = erasures(self.mean_snr, sample_envelope(cfg.channel, self.rng_channel, size=h), cfg.channel)
        self.outage = OutageTable(cfg.channel, float(self.mean_snr.min()), float(self.mean_snr.max()))

        self.attacker_on = cfg.attacker_mode != "none"
        self.signaling_on = self.attacker_on and self.policy in ("star",) + DECEPTION_POLICIES
        self.assets = persuasion_assets(cfg) if self.signaling_on else None

    # -- policy-specific slot scheduling ------------------------------------
    # ``live`` holds only active instances here (the reaper ran first).
    def _fcfs_slot(self, t, live, started_uids):
        usage = (0.0,) * len(self.cfg.resources)
        power = 0.0
        running = [i for i in live if i.uid in started_uids]
        for inst in running:
            usage = tuple(map(add, usage, inst.spec.demand_tuple))
            power += inst.spec.power_weight
        queue = [i for i in live if i.uid not in started_uids]
        queue.sort(key=lambda i: (i.req, i.uid))
        for inst in queue:  # head-of-line: stop at the first non-fit
            new = try_fit(usage, power, inst.spec.demand_tuple, inst.spec.power_weight, self.cfg.power_budget)
            if new is None:
                break
            usage = new
            power += inst.spec.power_weight
            running.append(inst)
            started_uids.add(inst.uid)
        return running, usage, []

    def _executed(self, dec, live, scan_now):
        """Instances a planner decision runs, in ``live`` order, with the
        slot's usage and power: task demands first, the scan's last."""
        chosen = set(dec.running)
        running = [i for i in live if i.uid in chosen]
        scan = self.cfg.scan
        usage = (0.0,) * len(self.cfg.resources)
        power = scan.power_weight if scan_now else 0.0
        for i in running:
            usage = tuple(map(add, usage, i.spec.demand_tuple))
            power += i.spec.power_weight
        if scan_now:
            usage = tuple(map(add, usage, scan.demand_tuple))
        return running, usage, power

    # -- main loop -----------------------------------------------------------
    def run(self) -> tuple[EpisodeMetrics, EpisodeTraces]:
        cfg = self.cfg
        h, w_len_cfg = cfg.horizon, cfg.window
        sched_cfg = cfg.scheduler_config()
        targets = cfg.stability_targets()
        util = cfg.utility
        att = cfg.attacker
        pset = cfg.persuasion
        game = self.assets.game if self.assets else None
        z_bins = pset.z_bins

        live: list[TaskInstance] = []
        fcfs_started: set[int] = set()
        sp_scan_until = 0
        sp_planner = GreedyPlanner(util, sched_cfg, 0, w_len_cfg, targets)

        usage_sum = [0.0] * len(cfg.resources)
        scan_sequence = np.zeros(h, dtype=int)
        z_sequence = np.zeros(h)
        events_count = 0
        counts = {"completed": 0, "dropped": 0, "missed": 0}

        # attacker state; p_scan is recomputed only when the belief changes
        belief = game.prior.copy() if game is not None else None
        if game is not None:
            prior_p_scan = p_scan = game.p_scan(game.prior)
            scan_off = game.scan_flag == 0
            off_gap = 1.0 - game.z_rep[scan_off]
        intensity = 0.0
        realized_total = 0.0
        believed_total = 0.0
        attack_count = 0
        blocked_attacks = 0
        dp_plan: np.ndarray | None = None
        dp_offset = 0
        dp_belief: np.ndarray | None = None

        # telemetry in flight: arrival slot -> list of (generated_at, signal, policy)
        deliveries: dict[int, list] = defaultdict(list)

        traces = EpisodeTraces(slots={k: [] for k in SLOT_TRACE_COLUMNS})
        defender_total = 0.0

        static_solution = None
        if self.signaling_on and self.policy == "star-static":
            static_solution = self.assets.static_solution(pset.credibility)
        curve = None
        if self.signaling_on and self.policy == "stardis":
            curve = self.assets.curve(pset.budget_points, pset.units_per_slot)

        window_index = 0
        for w_start in range(0, h, w_len_cfg):
            w_len = min(w_len_cfg, h - w_start)

            # --- Phase 1: plan (receding horizon policies) ---
            plan: HorizonPlan | None = None
            state = None
            if self.policy in ("star", "star-static", "stardis"):
                plan = plan_horizon(
                    live, w_start, w_len, util, sched_cfg,
                    specs=cfg.tasks, stability_targets=targets,
                )
                if self.signaling_on:
                    state = quantize_state(plan.has_scan, min(max(plan.z_avg, 0.0), 1.0), z_bins)

            # --- Phase 2: signaling ---
            slot_policies = [None] * w_len
            slot_signals = [None] * w_len
            slot_budgets = np.zeros(w_len)
            delays = self.delay_slots[w_start : w_start + w_len]
            drift = 0.0
            if self.signaling_on and state is not None:
                if self.policy == "star":
                    policies = [self.assets.reveal_policy] * w_len
                elif self.policy == "star-static":
                    policies = [static_solution.policy] * w_len
                    slot_budgets[:] = pset.credibility
                else:  # stardis
                    snr_hat = self.mean_snr[w_start : w_start + w_len]
                    pout_hat = self.outage(snr_hat)
                    alloc = allocate_on_grid(pout_hat, pset.credibility * w_len, curve)
                    policies = []
                    for k in range(w_len):
                        idx, sol = curve.solution_at_or_below(float(alloc[k]))
                        policies.append(sol.policy)
                        slot_budgets[k] = curve.budgets[idx]
                    slot_delays = [
                        choose_artificial_delay(
                            float(snr_hat[k]),
                            float(self.prop_ms[w_start + k]),
                            pset.delay_max_ms,
                            cfg.proc_delay_ms,
                            pset.delay_snr_lo_db,
                            pset.delay_snr_hi_db,
                        )
                        for k in range(w_len)
                    ]
                    delays = delivery_delay_slots(
                        self.prop_ms[w_start : w_start + w_len], cfg.proc_delay_ms, slot_delays, cfg.slot_ms
                    ).tolist()
                slot_policies = policies
                for k in range(w_len):
                    row = policies[k][state]
                    m = int(self.rng_signal.choice(len(row), p=row))
                    slot_signals[k] = m
                drift = lyapunov_drift(belief, policies[0], game)
                for k in range(w_len):
                    t = w_start + k
                    deliveries[t + delays[k]].append((t, slot_signals[k], slot_policies[k]))
            budgets = slot_budgets.tolist()

            # --- Phase 3: execute slots ---
            exec_planner = GreedyPlanner(util, sched_cfg, w_start, w_len, targets)
            for k in range(w_len):
                t = w_start + k
                # arrivals + admission
                for inst in self.arrivals_by_slot.get(t, ()):
                    if admit(inst, t) == InstanceState.ADMITTED:
                        live.append(inst)
                    else:
                        counts["dropped"] += 1
                # deadline reapers (live holds only active instances)
                still = []
                for inst in live:
                    if t > inst.deadline and inst.remaining > 0:
                        if inst.spec.firm_deadline:
                            inst.state = InstanceState.MISSED
                            counts["missed"] += 1
                            continue
                        if inst.service == 0:
                            inst.state = InstanceState.DROPPED
                            counts["dropped"] += 1
                            continue
                    still.append(inst)
                live = still

                # schedule
                if self.policy == "fcfs":
                    running, usage, events = self._fcfs_slot(t, live, fcfs_started)
                    scan_now = False
                    power = sum(i.spec.power_weight for i in running)
                else:
                    if self.policy != "sp":  # star family: committed scan pattern, live task fill
                        planner = exec_planner
                        scan_now = bool(plan.scan_on[k]) if plan is not None else False
                    elif cfg.sp_scan_rule == "periodic":
                        planner = sp_planner
                        if t % cfg.sp_scan_period == 0 and t >= sp_scan_until:
                            sp_scan_until = t + cfg.scan.duration
                        scan_now = t < sp_scan_until
                    else:  # spec-literal marginal-utility trigger at full capacity
                        if t >= sp_planner.window_end:
                            sp_planner = GreedyPlanner(
                                util, sched_cfg, t, w_len_cfg, targets
                            )
                        planner = sp_planner
                        if t >= sp_planner.scan_active_until and t + cfg.scan.duration <= sp_planner.window_end:
                            z1 = 1.0 - max(cfg.scan.demand_tuple)
                            if sp_planner._scan_margin(1.0, z1) > 0:
                                sp_planner.scan_active_until = t + cfg.scan.duration
                                sp_planner.scan_slots_committed += cfg.scan.duration
                        scan_now = t < sp_planner.scan_active_until
                    dec = planner.schedule_slot(live, t, forced_scan=scan_now)
                    running, usage, power = self._executed(dec, live, scan_now)
                    events = dec.events

                events_count += len(events)
                z = 1.0 - max(usage)
                usage_sum = list(map(add, usage_sum, usage))
                scan_sequence[t] = int(scan_now)
                z_sequence[t] = z

                # advance work; in-service instances left out this slot
                # are preempted (work preserved, rescheduled later)
                running_uids = {i.uid for i in running}
                for inst in live:
                    if inst.state == InstanceState.RUNNING and inst.uid not in running_uids:
                        inst.state = InstanceState.PREEMPTED
                finished = False
                for inst in running:
                    inst.run_one_slot(t)
                    if inst.state == InstanceState.COMPLETED:
                        counts["completed"] += 1
                        fcfs_started.discard(inst.uid)
                        finished = True
                if finished:  # completion is the only way out of live here
                    live = [i for i in live if i.active]

                # --- telemetry reception + attacker ---
                erased = bool(self.erased[t])
                sig_recv = ""
                if self.attacker_on and game is not None:
                    if erased:
                        belief = game.prior.copy()
                        p_scan = prior_p_scan
                    else:
                        due = deliveries.pop(t, None)
                        if due:
                            gen_t, m, pol = max(due, key=lambda d: d[0])
                            belief = belief_update(game.prior, m, pol)
                            p_scan = game.p_scan(belief)
                            sig_recv = str(m)

                x_att = 0
                blocked = 0
                reward = 0.0
                if self.attacker_on and game is not None:
                    gap = None  # believed attack gap, computed at most once per slot
                    if cfg.attacker_mode == "threshold":
                        x_att = int(threshold_decision(p_scan, pset.belief_threshold))
                    else:  # dp
                        if dp_plan is None or dp_belief is None or not np.array_equal(dp_belief, belief) or dp_offset >= len(dp_plan):
                            gap = att.reward_weight * float(np.sum(belief[scan_off] * off_gap))
                            remaining = w_len - k
                            plan_br = best_response(
                                np.full(remaining, gap), np.zeros(remaining, dtype=int),
                                att, start_intensity=intensity,
                            )
                            dp_plan = plan_br.decisions
                            dp_offset = 0
                            dp_belief = belief.copy()
                        x_att = int(dp_plan[dp_offset])
                        dp_offset += 1
                    if x_att:
                        attack_count += 1
                        cost = att.base_cost * (1.0 + att.cost_scale * intensity)
                        blocked = int(scan_now)
                        blocked_attacks += blocked
                        gate = (not erased) and not scan_now
                        reward = (att.reward_weight * (1.0 - z)) if gate else 0.0
                        realized_total += reward - cost
                        if gap is None:
                            gap = att.reward_weight * float(np.sum(belief[scan_off] * off_gap))
                        believed_total += gap - cost
                    intensity = intensity_update(intensity, x_att, att.memory)

                s = traces.slots
                s["t"].append(t)
                s["scan_on"].append(int(scan_now))
                s["z"].append(z)
                s["power"].append(float(power))
                s["mean_snr_db"].append(float(self.mean_snr[t]))
                s["received"].append(int(not erased))
                s["delay_slots"].append(delays[k])
                s["signal"].append(sig_recv)
                s["belief_scan"].append(p_scan if game is not None else "")
                s["x_att"].append(x_att)
                s["attack_blocked"].append(blocked)
                s["realized_reward"].append(reward)
                s["intensity"].append(intensity)
                s["budget"].append(budgets[k])

            # defender utility for the window (window-level scan frequency)
            f_w = float(np.mean(scan_sequence[w_start : w_start + w_len]))
            y_w = detection_performance(f_w, cfg.scan.duration, util)
            for k in range(w_len):
                t = w_start + k
                defender_total += slot_utility(y_w, scan_sequence[t], z_sequence[t], util)

            traces.windows.append({
                "window": window_index,
                "start": w_start,
                "length": w_len,
                "state": state if state is not None else "",
                "scan_planned": int(plan.has_scan) if plan is not None else "",
                "z_avg_planned": plan.z_avg if plan is not None else "",
                "scan_freq_realized": f_w,
                "budget_total": float(np.sum(slot_budgets)),
                "drift": drift,
            })
            window_index += 1

        # --- metrics ---
        generated = len(self.instances)
        residual = sum(1 for i in self.instances if i.active)
        if counts["completed"] + counts["dropped"] + counts["missed"] + residual != generated:
            raise RuntimeError("instance accounting identity violated")

        low_specs = {s.id for s in cfg.tasks if s.priority == Priority.LOW}
        firm_specs = {s.id for s in cfg.tasks if s.firm_deadline}
        low_total = sum(1 for i in self.instances if i.spec.id in low_specs)
        low_done = sum(
            1 for i in self.instances if i.spec.id in low_specs and i.state == InstanceState.COMPLETED
        )
        firm_total = sum(1 for i in self.instances if i.spec.id in firm_specs)
        firm_missed = sum(
            1 for i in self.instances if i.spec.id in firm_specs and i.state == InstanceState.MISSED
        )

        metrics = EpisodeMetrics(
            policy=self.policy,
            seed=self.seed,
            utilization={
                res: float(usage_sum[i] / h * 100.0) for i, res in enumerate(cfg.resources)
            },
            routine_completion_pct=(100.0 * low_done / low_total) if low_total else 100.0,
            relay_miss_pct=(100.0 * firm_missed / firm_total) if firm_total else 0.0,
            defender_utility=defender_total / h,
            attacker_realized=realized_total / h,
            attacker_believed=believed_total / h,
            scan_freq=float(np.mean(scan_sequence)),
            erasure_count=int(np.sum(self.erased)),
            attack_count=attack_count,
            blocked_attacks=blocked_attacks,
            generated=generated,
            completed=counts["completed"],
            dropped=counts["dropped"],
            missed=counts["missed"],
            residual=residual,
            infeasible_events=events_count,
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


def run_benchmark_suite(cfg: ScenarioConfig, policies, seeds) -> BenchmarkResult:
    """Per-policy mean and standard deviation of every episode metric over
    shared seeds; defender utility additionally normalized to the
    first-come-first-served mean when that baseline is included."""
    policies = list(policies)
    seeds = list(seeds)
    if not policies:
        raise ValueError("empty policy list")
    if not seeds:
        raise ValueError("need at least one seed")
    episodes: dict[str, list[EpisodeMetrics]] = {}
    for pol in policies:
        episodes[pol] = [run_episode(cfg, s, pol)[0] for s in seeds]
    stats: dict[str, dict[str, tuple[float, float]]] = {}
    for pol in policies:
        rows = [m.to_row() for m in episodes[pol]]
        stats[pol] = {
            key: (float(np.mean([r[key] for r in rows])), float(np.std([r[key] for r in rows])))
            for key in rows[0]
        }
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


def sweep(cfg: ScenarioConfig, param: str, values, seeds, policies=("star", "star-static", "stardis")):
    """Vary the credibility budget or the prior over scan activity and
    re-run the benchmark comparison at each value."""
    rows = []
    for v in values:
        if param == "credibility":
            cfg_v = replace(cfg, persuasion=replace(cfg.persuasion, credibility=float(v)))
        elif param == "prior":
            cfg_v = replace(cfg, persuasion=replace(cfg.persuasion, prior_scan=float(v)))
        else:
            raise ValueError("sweep param must be 'credibility' or 'prior'")
        res = run_benchmark_suite(cfg_v, policies, seeds)
        for pol in policies:
            rows.append({
                "param": param,
                "value": float(v),
                "policy": pol,
                "attacker_realized_mean": res.stats[pol]["attacker_realized"][0],
                "attacker_realized_std": res.stats[pol]["attacker_realized"][1],
                "attacker_believed_mean": res.stats[pol]["attacker_believed"][0],
                "defender_utility_mean": res.stats[pol]["defender_utility"][0],
            })
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


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


# ---------------------------------------------------------------------------
# Scripted belief-dynamics scenario
# ---------------------------------------------------------------------------

@dataclass
class ScriptedWindow:
    """One window of the scripted interaction.

    ``erased`` forces the channel state for all slots; ``signal`` forces
    the emitted message index (None samples from the policy); ``z_true``
    is the realized idle capacity and ``scan_true`` the realized scan
    state during the window.
    """

    erased: bool
    scan_true: bool
    z_true: float
    signal: int | None = None


def run_scripted_belief_trace(
    windows: list[ScriptedWindow],
    policy: np.ndarray,
    game: PersuasionGame,
    params: AttackerParams,
    belief_threshold: float,
    window_len: int = 5,
    seed: int = 0,
):
    """Deterministic-channel interaction for belief-dynamics studies.

    Telemetry delivery is immediate (chosen so the belief response to
    each forced channel state is isolated); the threshold attacker acts
    every slot and realized utility follows the interception-gated
    reward with the scan-collision gate.
    """
    rng = np.random.default_rng(seed)
    rows = []
    intensity = 0.0
    belief = game.prior.copy()
    for wi, win in enumerate(windows):
        if win.signal is not None:
            m = win.signal
        else:
            row = policy[quantize_state(win.scan_true, win.z_true, game.z_bins)]
            m = int(rng.choice(len(row), p=row))
        for k in range(window_len):
            if win.erased:
                belief = game.prior.copy()
            else:
                belief = belief_update(game.prior, m, policy)
            p_active = game.p_scan(belief)
            x = int(threshold_decision(p_active, belief_threshold))
            reward = 0.0
            cost = 0.0
            if x:
                cost = params.base_cost * (1.0 + params.cost_scale * intensity)
                if not win.erased and not win.scan_true:
                    reward = params.reward_weight * (1.0 - win.z_true)
            intensity = intensity_update(intensity, x, params.memory)
            rows.append({
                "window": wi,
                "t": wi * window_len + k,
                "erased": int(win.erased),
                "belief_scan": p_active,
                "x_att": x,
                "utility": reward - cost,
            })
    return rows
