"""Scenario configuration: schema, strict validation, YAML ingestion.

The scenario file is a nested key-value document; unknown keys are
rejected so typos fail loudly at load time rather than silently running
a different experiment.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .attacker import AttackerParams
from .channel import ChannelParams, PassGeometry
from .scheduler import ScanTask, SchedulerConfig, UtilityParams
from .workload import Arrival, Nature, Priority, TaskSpec

POLICY_KINDS = ("fcfs", "sp", "star", "star-static", "stardis")
DECEPTION_POLICIES = ("star-static", "stardis")
ATTACKER_MODES = ("none", "threshold", "dp")


class ConfigError(ValueError):
    """Raised for any scenario-file validation failure."""


@dataclass(frozen=True)
class PersuasionSettings:
    """Signal-design knobs: quantization, budget, priors, solver grid."""

    z_bins: int = 2
    n_signals: int | None = None  # default: |states| + 2
    credibility: float = 0.2
    prior_scan: float = 0.5
    belief_threshold: float = 0.55
    subdivisions: int | None = None  # default: dimension-aware
    budget_points: int = 13
    units_per_slot: int = 32  # not parsed or used; perfbench/worker.py reads it
    delay_max_ms: float = 350.0
    delay_snr_lo_db: float = 0.0
    delay_snr_hi_db: float = 15.0

    def __post_init__(self):
        if self.z_bins < 1:
            raise ConfigError("z_bins must be >= 1")
        if self.credibility < 0:
            raise ConfigError("credibility budget must be >= 0")
        if not (0.0 < self.prior_scan < 1.0):
            raise ConfigError("prior_scan must lie in (0,1)")
        if not (0.0 < self.belief_threshold < 1.0):
            raise ConfigError("belief_threshold must lie in (0,1)")


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int
    window: int
    slot_ms: float
    resources: tuple[str, ...]
    tasks: tuple[TaskSpec, ...]
    scan: ScanTask
    utility: UtilityParams
    power_budget: float
    scan_margin_rule: str
    channel: ChannelParams
    geometry: PassGeometry
    proc_delay_ms: float
    attacker: AttackerParams
    attacker_mode: str
    persuasion: PersuasionSettings
    policy: str
    sp_scan_period: int
    sp_scan_rule: str

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not (1 <= self.window <= self.horizon):
            raise ConfigError("window must lie in [1, horizon]")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"policy must be one of {POLICY_KINDS}")
        if self.attacker_mode not in ATTACKER_MODES:
            raise ConfigError(f"attacker mode must be one of {ATTACKER_MODES}")
        if self.sp_scan_rule not in ("periodic", "delta-u"):
            raise ConfigError("sp_scan_rule must be 'periodic' or 'delta-u'")
        if self.sp_scan_period < 1:
            raise ConfigError("sp_scan_period must be >= 1")
        n_res = len(self.resources)
        for spec in self.tasks:
            if len(spec.demand) != n_res:
                raise ConfigError(f"task {spec.id}: demand has {len(spec.demand)} entries, expected {n_res}")
        if len(self.scan.demand) != n_res:
            raise ConfigError("scan demand dimensionality mismatch")
        if self.scan.duration > self.window:
            raise ConfigError("scan duration must fit inside the window")

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            scan=self.scan,
            power_budget=self.power_budget,
            margin_rule=self.scan_margin_rule,
        )

    def stability_targets(self) -> dict[str, float]:
        return {s.id: s.stability_fraction for s in self.tasks if s.stability_fraction > 0}

    def to_jsonable(self) -> dict:
        return _scenario_to_dict(self)


def _take(d: dict, key: str, default=None, required: bool = False):
    if required and key not in d:
        raise ConfigError(f"missing required key {key!r}")
    return d.pop(key, default)


def _no_leftovers(d: dict, context: str):
    if d:
        raise ConfigError(f"unknown keys in {context}: {sorted(d)}")


def _parse_task(raw: dict, power_scale: float) -> TaskSpec:
    raw = dict(raw)
    tid = _take(raw, "id", required=True)
    nature = Nature(_take(raw, "nature", "mission"))
    priority = Priority(_take(raw, "priority", required=True))
    arr_raw = dict(_take(raw, "arrival", required=True))
    kind = _take(arr_raw, "kind", required=True)
    if kind == "periodic":
        arrival = Arrival(kind="periodic", interval=int(_take(arr_raw, "interval", required=True)))
    else:
        arrival = Arrival(kind="aperiodic", rate=float(_take(arr_raw, "rate", required=True)))
    _no_leftovers(arr_raw, f"tasks[{tid}].arrival")
    demand = np.asarray(_take(raw, "demand", required=True), dtype=float)
    power = _take(raw, "power")
    if power is None:
        power = power_scale * float(np.mean(demand))
    processing = int(_take(raw, "processing", required=True))
    deadline = int(_take(raw, "deadline", required=True))
    firm = bool(_take(raw, "firm_deadline", priority == Priority.HIGH))
    mean_demand = _take(raw, "mean_demand")
    _no_leftovers(raw, f"tasks[{tid}]")
    try:
        return TaskSpec(
            id=tid,
            nature=nature,
            priority=priority,
            arrival=arrival,
            demand=demand,
            power_weight=float(power),
            processing=processing,
            relative_deadline=deadline,
            firm_deadline=firm,
            mean_demand=None if mean_demand is None else float(mean_demand),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def from_dict(raw: dict) -> ScenarioConfig:
    raw = dict(raw)
    try:
        horizon = int(_take(raw, "horizon", required=True))
        window = int(_take(raw, "window", required=True))
        slot_ms = float(_take(raw, "slot_ms", 100.0))
        resources = tuple(_take(raw, "resources", ["cpu", "fpga"]))
        power_scale = float(_take(raw, "power_scale", 1.0))
        tasks = tuple(_parse_task(t, power_scale) for t in _take(raw, "tasks", required=True))

        scan_raw = dict(_take(raw, "scan", required=True))
        scan = ScanTask(
            demand=np.asarray(_take(scan_raw, "demand", required=True), dtype=float),
            power_weight=float(_take(scan_raw, "power", 0.1)),
            duration=int(_take(scan_raw, "duration", required=True)),
        )
        _no_leftovers(scan_raw, "scan")

        util_raw = dict(_take(raw, "utility", {}))
        utility = UtilityParams(
            detect_reward=float(_take(util_raw, "detect_reward", 10.0)),
            scan_cost=float(_take(util_raw, "scan_cost", 0.5)),
            load_penalty=float(_take(util_raw, "load_penalty", 2.0)),
            steepness=float(_take(util_raw, "steepness", 0.5)),
            midpoint=float(_take(util_raw, "midpoint", 0.5)),
            ceiling=float(_take(util_raw, "ceiling", 1.0)),
        )
        _no_leftovers(util_raw, "utility")

        chan_raw = dict(_take(raw, "channel", required=True))
        fading = dict(_take(chan_raw, "fading", required=True))
        channel = ChannelParams(
            b0=float(_take(fading, "b0", required=True)),
            m=float(_take(fading, "m", required=True)),
            omega=float(_take(fading, "omega", required=True)),
            snr_threshold_db=float(_take(chan_raw, "snr_threshold_db", 5.0)),
            series_truncation=int(_take(chan_raw, "series_truncation", 200)),
        )
        _no_leftovers(fading, "channel.fading")
        geo_raw = dict(_take(chan_raw, "geometry", required=True))
        geometry = PassGeometry(
            d_min_km=float(_take(geo_raw, "d_min_km", required=True)),
            d_max_km=float(_take(geo_raw, "d_max_km", required=True)),
            pass_slots=int(_take(geo_raw, "pass_slots", horizon)),
            peak_snr_db=float(_take(geo_raw, "peak_snr_db", required=True)),
            path_loss_exp=float(_take(geo_raw, "path_loss_exp", 2.0)),
        )
        _no_leftovers(geo_raw, "channel.geometry")
        proc_delay_ms = float(_take(chan_raw, "proc_delay_ms", 1.0))
        _no_leftovers(chan_raw, "channel")

        att_raw = dict(_take(raw, "attacker", {}))
        attacker_mode = _take(att_raw, "mode", "threshold")
        attacker = AttackerParams(
            reward_weight=float(_take(att_raw, "reward_weight", 10.0)),
            base_cost=float(_take(att_raw, "base_cost", 0.1)),
            cost_scale=float(_take(att_raw, "cost_scale", 0.5)),
            memory=float(_take(att_raw, "memory", 0.1)),
            dp_grid=int(_take(att_raw, "dp_grid", 512)),
            exact_horizon=int(_take(att_raw, "exact_horizon", 24)),
        )
        belief_threshold = float(_take(att_raw, "belief_threshold", 0.55))
        _no_leftovers(att_raw, "attacker")

        pers_raw = dict(_take(raw, "persuasion", {}))
        persuasion = PersuasionSettings(
            z_bins=int(_take(pers_raw, "z_bins", 2)),
            n_signals=_take(pers_raw, "n_signals"),
            credibility=float(_take(pers_raw, "credibility", 0.2)),
            prior_scan=float(_take(pers_raw, "prior_scan", 0.5)),
            belief_threshold=belief_threshold,
            subdivisions=_take(pers_raw, "subdivisions"),
            budget_points=int(_take(pers_raw, "budget_points", 13)),
            delay_max_ms=float(_take(pers_raw, "delay_max_ms", 350.0)),
            delay_snr_lo_db=float(_take(pers_raw, "delay_snr_lo_db", 0.0)),
            delay_snr_hi_db=float(_take(pers_raw, "delay_snr_hi_db", 15.0)),
        )
        _no_leftovers(pers_raw, "persuasion")

        cfg = ScenarioConfig(
            horizon=horizon,
            window=window,
            slot_ms=slot_ms,
            resources=resources,
            tasks=tasks,
            scan=scan,
            utility=utility,
            power_budget=float(_take(raw, "power_budget", 1.0)),
            scan_margin_rule=_take(raw, "scan_margin_rule", "window"),
            channel=channel,
            geometry=geometry,
            proc_delay_ms=proc_delay_ms,
            attacker=attacker,
            attacker_mode=attacker_mode,
            persuasion=persuasion,
            policy=_take(raw, "policy", "star"),
            sp_scan_period=int(_take(raw, "sp_scan_period", 20)),
            sp_scan_rule=_take(raw, "sp_scan_rule", "periodic"),
        )
    except (ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    _no_leftovers(raw, "scenario")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return from_dict(raw)


def _scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "horizon": cfg.horizon,
        "window": cfg.window,
        "slot_ms": cfg.slot_ms,
        "resources": list(cfg.resources),
        "policy": cfg.policy,
        "power_budget": cfg.power_budget,
        "scan_margin_rule": cfg.scan_margin_rule,
        "sp_scan_period": cfg.sp_scan_period,
        "sp_scan_rule": cfg.sp_scan_rule,
        "tasks": [
            {
                "id": s.id,
                "nature": s.nature.value,
                "priority": s.priority.value,
                "arrival": (
                    {"kind": "periodic", "interval": s.arrival.interval}
                    if s.arrival.kind == "periodic"
                    else {"kind": "aperiodic", "rate": s.arrival.rate}
                ),
                "demand": list(map(float, s.demand)),
                "power": s.power_weight,
                "processing": s.processing,
                "deadline": s.relative_deadline,
                "firm_deadline": s.firm_deadline,
                "mean_demand": s.mean_demand,
            }
            for s in cfg.tasks
        ],
        "scan": {
            "demand": list(map(float, cfg.scan.demand)),
            "power": cfg.scan.power_weight,
            "duration": cfg.scan.duration,
        },
        "utility": {
            "detect_reward": cfg.utility.detect_reward,
            "scan_cost": cfg.utility.scan_cost,
            "load_penalty": cfg.utility.load_penalty,
            "steepness": cfg.utility.steepness,
            "midpoint": cfg.utility.midpoint,
            "ceiling": cfg.utility.ceiling,
        },
        "channel": {
            "fading": {"b0": cfg.channel.b0, "m": cfg.channel.m, "omega": cfg.channel.omega},
            "snr_threshold_db": cfg.channel.snr_threshold_db,
            "series_truncation": cfg.channel.series_truncation,
            "proc_delay_ms": cfg.proc_delay_ms,
            "geometry": {
                "d_min_km": cfg.geometry.d_min_km,
                "d_max_km": cfg.geometry.d_max_km,
                "pass_slots": cfg.geometry.pass_slots,
                "peak_snr_db": cfg.geometry.peak_snr_db,
                "path_loss_exp": cfg.geometry.path_loss_exp,
            },
        },
        "attacker": {
            "mode": cfg.attacker_mode,
            "reward_weight": cfg.attacker.reward_weight,
            "base_cost": cfg.attacker.base_cost,
            "cost_scale": cfg.attacker.cost_scale,
            "memory": cfg.attacker.memory,
            "dp_grid": cfg.attacker.dp_grid,
            "exact_horizon": cfg.attacker.exact_horizon,
            "belief_threshold": cfg.persuasion.belief_threshold,
        },
        "persuasion": {
            "z_bins": cfg.persuasion.z_bins,
            "n_signals": cfg.persuasion.n_signals,
            "credibility": cfg.persuasion.credibility,
            "prior_scan": cfg.persuasion.prior_scan,
            "subdivisions": cfg.persuasion.subdivisions,
            "budget_points": cfg.persuasion.budget_points,
            "delay_max_ms": cfg.persuasion.delay_max_ms,
            "delay_snr_lo_db": cfg.persuasion.delay_snr_lo_db,
            "delay_snr_hi_db": cfg.persuasion.delay_snr_hi_db,
        },
    }


def default_scenario(**overrides) -> ScenarioConfig:
    """The benchmark scenario; keyword overrides patch top-level keys."""
    raw = {
        "horizon": 2000,
        "window": 5,
        "slot_ms": 100.0,
        "resources": ["cpu", "fpga"],
        "tasks": [
            {
                "id": "routine",
                "nature": "mission",
                "priority": "low",
                "arrival": {"kind": "aperiodic", "rate": 0.3},
                "demand": [0.05, 0.15],
                "power": 0.13,
                "processing": 18,
                "deadline": 50,
                "firm_deadline": False,
            },
            {
                "id": "relay",
                "nature": "mission",
                "priority": "high",
                "arrival": {"kind": "periodic", "interval": 30},
                "demand": [0.20, 0.10],
                "power": 0.15,
                "processing": 8,
                "deadline": 15,
                "firm_deadline": True,
            },
        ],
        "scan": {"demand": [0.15, 0.05], "power": 0.25, "duration": 5},
        "utility": {},
        "channel": {
            "fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
            "snr_threshold_db": 5.0,
            "geometry": {"d_min_km": 550.0, "d_max_km": 1600.0, "peak_snr_db": 12.0},
        },
        "attacker": {"mode": "threshold"},
        "persuasion": {},
        "policy": "star",
        "sp_scan_period": 30,
    }
    raw.update(overrides)
    return from_dict(raw)
