"""Scenario configuration: schema, strict validation, YAML ingestion.

The scenario file is a nested key-value document; unknown keys are
rejected so typos fail loudly at load time rather than silently running
a different experiment.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .attacker import AttackerParams
from .channel import ChannelParams, PassGeometry
from .persuasion import is_positive_int
from .scheduler import ScanTask, SchedulerConfig, UtilityParams, stability_targets_of
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
    credibility: float = 0.2
    prior_scan: float = 0.5
    belief_threshold: float = 0.55  # read from the scenario's ``attacker`` section
    subdivisions: int | None = None  # None: the exact candidates; an int: that simplex grid
    budget_points: int = 13
    units_per_slot: int = field(default=32, init=False)  # not a scenario key; perfbench/worker.py reads it
    delay_max_ms: float = 350.0
    delay_snr_lo_db: float = 0.0
    delay_snr_hi_db: float = 15.0

    def __post_init__(self):
        # each check passes only valid values, so NaN fails it
        if self.z_bins < 1:
            raise ConfigError("z_bins must be >= 1")
        if self.subdivisions is not None and not is_positive_int(self.subdivisions):
            raise ConfigError(f"subdivisions must be omitted or an int >= 1, got {self.subdivisions!r}")
        if not 0.0 <= self.credibility < math.inf:
            raise ConfigError(f"credibility budget must be finite and >= 0, got {self.credibility}")
        if self.budget_points < 1:
            raise ConfigError("budget_points must be >= 1")
        if not (0.0 < self.prior_scan < 1.0):
            raise ConfigError("prior_scan must lie in (0,1)")
        if not (0.0 < self.belief_threshold < 1.0):
            raise ConfigError("belief_threshold must lie in (0,1) (a scenario sets it under attacker)")
        if not 0.0 <= self.delay_max_ms < math.inf:
            raise ConfigError(f"delay_max_ms must be finite and >= 0, got {self.delay_max_ms}")
        for name in ("delay_snr_lo_db", "delay_snr_hi_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A whole scenario.  The defaults are those of a scenario file that
    leaves the key out; ``power_budget`` takes ``SchedulerConfig``'s."""

    horizon: int
    window: int
    slot_ms: float = 100.0
    resources: tuple[str, ...] = ("cpu", "fpga")
    tasks: tuple[TaskSpec, ...]
    scan: ScanTask
    utility: UtilityParams = UtilityParams()
    power_budget: float = SchedulerConfig.power_budget
    channel: ChannelParams
    geometry: PassGeometry
    proc_delay_ms: float = 1.0
    attacker: AttackerParams = AttackerParams()
    attacker_mode: str = "threshold"
    persuasion: PersuasionSettings = PersuasionSettings()
    policy: str = "star"
    sp_scan_period: int = 20

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not (1 <= self.window <= self.horizon):
            raise ConfigError("window must lie in [1, horizon]")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"policy must be one of {POLICY_KINDS}")
        if self.attacker_mode not in ATTACKER_MODES:
            raise ConfigError(f"attacker mode must be one of {ATTACKER_MODES}")
        if self.sp_scan_period < 1:
            raise ConfigError("sp_scan_period must be >= 1")
        ids = [spec.id for spec in self.tasks]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate task ids {dup}: per-task quotas and counts are keyed by id")
        # a string would pass for its characters
        resources = self.resources
        if not (isinstance(resources, (list, tuple)) and resources and all(isinstance(r, str) for r in resources)):
            raise ConfigError(f"resources must be a non-empty list of strings, got {resources!r}")
        object.__setattr__(self, "resources", tuple(resources))
        n_res = len(self.resources)
        for spec in self.tasks:
            if len(spec.demand) != n_res:
                raise ConfigError(f"task {spec.id}: demand has {len(spec.demand)} entries, expected {n_res}")
        if len(self.scan.demand) != n_res:
            raise ConfigError("scan demand dimensionality mismatch")
        if self.scan.duration > self.window:
            raise ConfigError("scan duration must fit inside the window")
        # each check passes only valid values, so NaN fails it
        if not 0.0 < self.slot_ms < math.inf:
            raise ConfigError(f"slot_ms must be finite and > 0, got {self.slot_ms}")
        if not 0.0 <= self.proc_delay_ms < math.inf:
            raise ConfigError(f"proc_delay_ms must be finite and >= 0, got {self.proc_delay_ms}")
        try:
            self.scheduler_config()  # checks power_budget
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the farthest slant range: at the pass edge and outside the pass
        edge_ms = max(self.geometry.propagation_delay_ms(t) for t in (0, self.geometry.pass_slots + 1))
        if self.persuasion.delay_max_ms < edge_ms:
            raise ConfigError(
                f"delay_max_ms {self.persuasion.delay_max_ms} is below the "
                f"{edge_ms:.3f} ms propagation delay at the pass edge"
            )

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(scan=self.scan, power_budget=self.power_budget)

    def stability_targets(self) -> dict[str, float]:
        return stability_targets_of(self.tasks)

    def to_jsonable(self) -> dict:
        """The scenario file of this config: ``from_dict`` of it gives it back."""
        doc = _section(self, skip=("geometry", "proc_delay_ms", "attacker_mode"))
        for task, spec in zip(doc["tasks"], self.tasks):
            unused = "rate" if spec.arrival.kind == "periodic" else "interval"
            task["arrival"] = _section(spec.arrival, skip=(unused,))
        # the keys a scenario file keeps in another section than the dataclasses
        channel = doc["channel"]
        doc["channel"] = {
            "fading": {name: channel.pop(name) for name in ("b0", "m", "omega")},
            **channel,
            "proc_delay_ms": self.proc_delay_ms,
            "geometry": _section(self.geometry),
        }
        belief_threshold = doc["persuasion"].pop("belief_threshold")
        doc["attacker"] = {"mode": self.attacker_mode, **doc["attacker"], "belief_threshold": belief_threshold}
        return doc


def _take(d: dict, key: str, default=None, required: bool = False):
    if required and key not in d:
        raise ConfigError(f"missing required key {key!r}")
    return d.pop(key, default)


def _no_leftovers(d: dict, context: str):
    if d:
        raise ConfigError(f"unknown keys in {context}: {sorted(d)}")


def _under(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _cast(key: str, annotation: str, value):
    """``value`` cast to its field's annotation (a string), unless that
    would change it: a float field takes a number but no bool (``float |
    None`` also None), a float tuple a list of such numbers, an int field
    a whole number but no bool, a bool field only a bool; else a
    ``ConfigError`` names ``key`` (a list entry by its index)."""
    if annotation == "float" or (annotation == "float | None" and value is not None):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        return float(value)
    if annotation == "tuple[float, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(_cast(f"{key}.{i}", "float", v) for i, v in enumerate(value))
    if annotation == "int":  # a fractional part, inf and NaN leave value % 1 non-zero
        if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)) or value % 1:
            raise ConfigError(f"{key} must be a whole number, got {value!r}")
        return int(value)
    if annotation == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _pop_float(raw: dict, key: str, path: str):
    """``raw[key]`` popped and cast as a float named by ``path``, or ``MISSING``."""
    value = raw.pop(key, MISSING)
    return value if value is MISSING else _cast(path, "float", value)


#: scenario keys that differ from their dataclass fields
_RENAMED = {"power_weight": "power", "relative_deadline": "deadline"}


def _build(path: str, cls, raw: dict | None = None, keys: str | None = None, **given):
    """``cls`` from ``given`` and from the keys of the section ``raw``
    named like its other init fields, or as ``_RENAMED`` renames them.

    A value given as ``MISSING`` or absent from both takes the field's
    default; a float, float tuple, int or bool field is cast by ``_cast``.  A
    leftover key of ``raw`` is rejected, and a ``ValueError`` has the
    field it names put under ``path``.  ``keys`` is where ``raw`` sits
    in the scenario, when that is not ``path``.
    """
    raw = dict(raw or {})
    keys = path if keys is None else keys
    kwargs = {}
    for f in fields(cls):
        if not f.init:
            continue
        key = _RENAMED.get(f.name, f.name)
        value = given.pop(f.name) if f.name in given else raw.pop(key, MISSING)
        if value is MISSING:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required key {_under(keys, key)!r}")
            continue
        kwargs[f.name] = _cast(_under(keys, key), f.type, value)
    _no_leftovers(raw, keys or "scenario")
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(_under(path, str(exc))) from exc


def _parse_task(i: int, raw: dict, power_scale: float) -> TaskSpec:
    path = f"tasks.{i}"
    raw = dict(raw)
    priority = Priority(_take(raw, "priority", required=True))
    arr_raw = dict(_take(raw, "arrival", required=True))
    kind = _take(arr_raw, "kind", required=True)
    value = "interval" if kind == "periodic" else "rate"
    arrival = _build(f"{path}.arrival", Arrival, kind=kind, **{value: _take(arr_raw, value, required=True)})
    _no_leftovers(arr_raw, f"{path}.arrival")
    demand = _cast(f"{path}.demand", "tuple[float, ...]", _take(raw, "demand", required=True))
    if raw.get("power") is None:  # absent or null: from the demand
        raw["power"] = power_scale * float(np.mean(demand))
    return _build(
        path, TaskSpec, raw,
        nature=Nature(_take(raw, "nature", "mission")),
        priority=priority,
        arrival=arrival,
        demand=demand,
        firm_deadline=_take(raw, "firm_deadline", priority == Priority.HIGH),
    )


def from_dict(raw: dict) -> ScenarioConfig:
    raw = dict(raw)
    try:
        horizon = _cast("horizon", "int", _take(raw, "horizon", required=True))
        power_scale = _cast("power_scale", "float", _take(raw, "power_scale", 1.0))
        tasks = tuple(_parse_task(i, t, power_scale) for i, t in enumerate(_take(raw, "tasks", required=True)))
        scan = _build("scan", ScanTask, _take(raw, "scan", required=True))

        chan_raw = dict(_take(raw, "channel", required=True))
        geo_raw = dict(_take(chan_raw, "geometry", required=True))
        pass_slots = geo_raw.pop("pass_slots", horizon)  # by default the pass spans the horizon
        geometry = _build("channel.geometry", PassGeometry, geo_raw, pass_slots=pass_slots)
        fading = _take(chan_raw, "fading", required=True)
        snr_threshold_db = _pop_float(chan_raw, "snr_threshold_db", "channel.snr_threshold_db")
        channel = _build("channel", ChannelParams, fading, "channel.fading", snr_threshold_db=snr_threshold_db)
        proc_delay_ms = _pop_float(chan_raw, "proc_delay_ms", "channel.proc_delay_ms")
        _no_leftovers(chan_raw, "channel")

        att_raw = dict(_take(raw, "attacker") or {})
        attacker_mode = att_raw.pop("mode", MISSING)
        belief_threshold = _pop_float(att_raw, "belief_threshold", "attacker.belief_threshold")
        attacker = _build("attacker", AttackerParams, att_raw)
        persuasion = _build(
            "persuasion", PersuasionSettings, _take(raw, "persuasion", {}), belief_threshold=belief_threshold
        )
        utility = _build("utility", UtilityParams, _take(raw, "utility", {}))
        return _build(
            "", ScenarioConfig, raw,
            horizon=horizon,
            tasks=tasks,
            scan=scan,
            utility=utility,
            channel=channel,
            geometry=geometry,
            proc_delay_ms=proc_delay_ms,
            attacker=attacker,
            attacker_mode=attacker_mode,
            persuasion=persuasion,
        )
    except (ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def set_scenario_value(raw: dict, path: str, value) -> None:
    """Set the key at the dotted ``path`` of a raw scenario (a digit
    indexes a list).  A path that ``raw`` does not hold is a
    ``ConfigError``, so a typo cannot add a key."""
    *parents, leaf = path.split(".")
    target = raw
    for k in parents:
        target = _entry(target, k)
    if _entry(target, leaf) is MISSING:
        raise ConfigError(f"the scenario holds no key {path!r}")
    target[int(leaf) if isinstance(target, list) else leaf] = value


def _entry(section, k: str):
    """``section[k]`` of a scenario section, or of a list by the index
    ``k``; else ``MISSING``."""
    if isinstance(section, dict):
        return section.get(k, MISSING)
    if isinstance(section, list) and k.isdigit() and int(k) < len(section):
        return section[int(k)]
    return MISSING


def with_scenario_values(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """``cfg`` with each dotted scenario key of ``changes`` set: ``from_dict``
    of its echo (``to_jsonable``) with those keys set, so that every value
    is checked as a scenario file's would be.  The echo holds every key
    that the config keeps, so a key it lacks is rejected rather than
    ignored: ``power_scale`` is read at load only, and the belief threshold
    is ``attacker.belief_threshold``.  A rejection's message starts with
    the changed ``key=value`` pairs."""
    raw = cfg.to_jsonable()
    try:
        for path, value in changes.items():
            set_scenario_value(raw, path, value)
        return from_dict(raw)
    except ConfigError as exc:
        changed = ", ".join(f"{path}={value!r}" for path, value in changes.items())
        raise ConfigError(f"{changed}: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return from_dict(raw)


def _section(obj, skip=()) -> dict:
    """The init fields of a config dataclass as a scenario section, the
    inverse of ``_build``: renamed fields under their scenario keys,
    tuples as lists, enums as their values, dataclasses as sections."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, Enum):
            return value.value
        return _section(value) if is_dataclass(value) else value

    return {
        _RENAMED.get(f.name, f.name): plain(getattr(obj, f.name))
        for f in fields(obj)
        if f.init and f.name not in skip
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
