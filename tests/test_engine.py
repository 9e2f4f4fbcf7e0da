import dataclasses
import enum
import json

import numpy as np
import pytest

from satdefsim.attacker import AttackerParams
from satdefsim.config import ConfigError, default_scenario, from_dict
from satdefsim.engine import (
    EpisodeRunner,
    ScriptedWindow,
    run_benchmark_suite,
    run_episode,
    run_scripted_belief_trace,
    sweep,
    write_slot_traces,
)
from satdefsim.persuasion import build_scan_game


def small_cfg(**overrides):
    overrides.setdefault("horizon", 200)
    return default_scenario(**overrides)


POLICIES = ("fcfs", "sp", "star", "star-static", "stardis")


class TestDeterminism:
    def test_metrics_bit_identical(self):
        cfg = small_cfg()
        for pol in POLICIES:
            m1, _ = run_episode(cfg, 3, pol)
            m2, _ = run_episode(cfg, 3, pol)
            assert m1 == m2

    def test_trace_bytes_identical(self, tmp_path):
        cfg = small_cfg(policy="stardis")
        _, t1 = run_episode(cfg, 1)
        _, t2 = run_episode(cfg, 1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_slot_traces(t1, p1)
        write_slot_traces(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        cfg = small_cfg()
        m1, _ = run_episode(cfg, 0, "star")
        m2, _ = run_episode(cfg, 1, "star")
        assert m1.to_row() != m2.to_row()


class TestAccounting:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_instance_identity(self, policy):
        m, _ = run_episode(small_cfg(), 5, policy)
        assert m.generated == m.completed + m.dropped + m.missed + m.residual

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_and_power_never_violated(self, policy):
        cfg = small_cfg()
        _, tr = run_episode(cfg, 2, policy)
        assert min(tr.slots["z"]) >= -1e-9  # per-slot capacity
        assert max(tr.slots["power"]) <= cfg.power_budget + 1e-9

    @pytest.mark.parametrize("policy", ("sp", "star", "star-static", "stardis"))
    def test_scan_blocks_have_exact_duration(self, policy):
        cfg = small_cfg()
        _, tr = run_episode(cfg, 4, policy)
        scans = tr.slots["scan_on"]
        runs, run = [], 0
        for v in scans:
            if v:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
        assert all(r % cfg.scan.duration == 0 for r in runs)

    @pytest.mark.parametrize("routine,relay,scan", [
        ([0.05], [0.20], [0.15]),
        ([0.05, 0.15, 0.10], [0.20, 0.10, 0.05], [0.15, 0.05, 0.10]),
    ], ids=["1-resource", "3-resource"])
    def test_capacity_and_power_on_other_resource_counts(self, routine, relay, scan):
        # every other engine test uses 2 resource types
        task = {"nature": "mission", "processing": 8, "firm_deadline": False}
        cfg = small_cfg(
            resources=["cpu", "fpga", "gpu"][: len(scan)],
            tasks=[
                {**task, "id": "routine", "priority": "low", "demand": routine, "power": 0.13,
                 "arrival": {"kind": "aperiodic", "rate": 0.4}, "deadline": 30},
                {**task, "id": "relay", "priority": "high", "demand": relay, "power": 0.15,
                 "arrival": {"kind": "periodic", "interval": 30}, "deadline": 15, "firm_deadline": True},
            ],
            scan={"demand": scan, "power": 0.25, "duration": 5},
            attacker={"mode": "none"},
        )
        for policy in POLICIES:
            m, tr = run_episode(cfg, 2, policy)
            assert len(m.utilization) == len(scan)
            assert m.generated == m.completed + m.dropped + m.missed + m.residual
            assert min(tr.slots["z"]) >= -1e-9
            assert max(tr.slots["power"]) <= cfg.power_budget + 1e-9

    def test_rates_within_bounds(self):
        for policy in POLICIES:
            m, _ = run_episode(small_cfg(), 6, policy)
            assert 0.0 <= m.routine_completion_pct <= 100.0
            assert 0.0 <= m.relay_miss_pct <= 100.0
            for pct in m.utilization.values():
                assert 0.0 <= pct <= 100.0


class TestBaselines:
    def test_fcfs_without_attacker_or_scans(self):
        cfg = small_cfg(attacker={"mode": "none"})
        m, tr = run_episode(cfg, 0, "fcfs")
        assert m.scan_freq == 0.0
        assert m.attack_count == 0
        assert np.isfinite(m.defender_utility)
        # utilization is workload occupancy only
        assert m.utilization["fpga"] > m.utilization["cpu"]

    def test_fcfs_head_of_line_blocking(self):
        # a CPU-hogging head blocks FPGA-only followers although the FPGA
        # sits idle
        cfg = from_dict({
            "horizon": 30,
            "window": 5,
            "tasks": [
                {"id": "hog", "nature": "mission", "priority": "low",
                 "arrival": {"kind": "periodic", "interval": 25},
                 "demand": [0.8, 0.0], "power": 0.2, "processing": 10, "deadline": 30},
                {"id": "hog2", "nature": "mission", "priority": "low",
                 "arrival": {"kind": "periodic", "interval": 26},
                 "demand": [0.8, 0.0], "power": 0.2, "processing": 10, "deadline": 30},
                {"id": "light", "nature": "mission", "priority": "low",
                 "arrival": {"kind": "periodic", "interval": 27},
                 "demand": [0.0, 0.3], "power": 0.1, "processing": 5, "deadline": 30},
            ],
            "scan": {"demand": [0.15, 0.05], "power": 0.1, "duration": 5},
            "channel": {"fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
                        "geometry": {"d_min_km": 550, "d_max_km": 1600, "peak_snr_db": 12}},
            "attacker": {"mode": "none"},
            "policy": "fcfs",
        })
        runner = EpisodeRunner(cfg, 0, "fcfs")
        live, started = [], set()
        for inst in runner.arrivals_by_slot[0]:
            from satdefsim.workload import admit
            admit(inst, 0)
            live.append(inst)
        running, usage, _ = runner._fcfs_slot(0, live, started)
        ids = {i.spec.id for i in running}
        assert "hog" in ids and "hog2" not in ids
        assert "light" not in ids  # blocked behind hog2 despite idle fpga
        assert usage[1] == 0.0

    def test_sp_preempts_routine_for_scan(self):
        # saturate the fpga with routine work; when the periodic scan
        # fires, fewer routine instances run
        cfg = small_cfg(sp_scan_period=30)
        _, tr = run_episode(cfg, 7, "sp")
        z = np.array(tr.slots["z"])
        scans = np.array(tr.slots["scan_on"], dtype=bool)
        assert scans.any() and (~scans).any()

    def test_empty_task_list_all_zero(self):
        cfg = default_scenario(horizon=40, tasks=[], attacker={"mode": "none"})
        m, tr = run_episode(cfg, 0, "fcfs")
        assert m.generated == 0
        assert all(z == 1.0 for z in tr.slots["z"])
        m2, _ = run_episode(cfg, 0, "sp")
        assert m2.generated == 0


class TestSuite:
    def test_normalization_anchors_fcfs(self):
        cfg = small_cfg()
        res = run_benchmark_suite(cfg, ["fcfs", "star"], [0, 1])
        assert res.normalized_utility["fcfs"] == pytest.approx(1.0)
        assert res.normalized_utility["star"] > 0

    def test_single_policy_single_seed_degenerates(self):
        cfg = small_cfg()
        res = run_benchmark_suite(cfg, ["star"], [4])
        m, _ = run_episode(cfg, 4, "star")
        for key, (mean, std) in res.stats["star"].items():
            assert mean == pytest.approx(m.to_row()[key])
            assert std == 0.0

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark_suite(small_cfg(), [], [0])

    def test_sweep_param_validation(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(), "nonsense", [0.1], [0])

    def test_prior_sweep_runs(self):
        rows = sweep(small_cfg(horizon=100), "prior", [0.3, 0.7], [0], policies=("star",))
        assert len(rows) == 2
        assert {r["value"] for r in rows} == {0.3, 0.7}


class TestScriptedBeliefDynamics:
    def test_erasure_resets_and_deception_holds(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=1)
        # pooled signal 0: sent always when scanning, 2/3 of the time when
        # vulnerable -> posterior scan-probability 0.6
        policy = np.array([[2 / 3, 1 / 3], [1.0, 0.0]])
        params = AttackerParams()
        windows = [
            ScriptedWindow(erased=True, scan_true=False, z_true=0.2),
            ScriptedWindow(erased=False, scan_true=False, z_true=0.2, signal=0),
            ScriptedWindow(erased=False, scan_true=False, z_true=0.2, signal=1),
        ]
        rows = run_scripted_belief_trace(windows, policy, game, params, 0.55, window_len=4)
        w0 = [r for r in rows if r["window"] == 0]
        assert all(r["x_att"] == 1 for r in w0)  # prior 0.5 < 0.55
        assert all(r["utility"] < 0 for r in w0)  # blind attacks fail
        w1 = [r for r in rows if r["window"] == 1]
        assert all(r["belief_scan"] == pytest.approx(0.6) for r in w1)
        assert all(r["x_att"] == 0 for r in w1)  # deception holds
        w2 = [r for r in rows if r["window"] == 2]
        assert all(r["x_att"] == 1 for r in w2)  # revealed vulnerability
        assert sum(r["utility"] for r in w2) > 0


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            default_scenario(bogus=1)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            default_scenario(utility={"detect_reward": 10.0, "typo": 1})

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            default_scenario(policy="edf")

    def test_scan_longer_than_window(self):
        with pytest.raises(ConfigError):
            default_scenario(window=3)

    def test_demand_dimension_mismatch(self):
        cfg = None
        with pytest.raises(ConfigError):
            default_scenario(scan={"demand": [0.1, 0.1, 0.1], "power": 0.1, "duration": 5})

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            from_dict({"horizon": 100})

    @pytest.mark.parametrize("section,key", [
        ("persuasion", "units_per_slot"),
        ("geometry", "tx_power_w"),
        ("geometry", "tx_gain_dbi"),
        ("geometry", "rx_gain_dbi"),
        ("geometry", "noise_w"),
    ])
    def test_unused_keys_rejected(self, section, key):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        target = raw["channel"]["geometry"] if section == "geometry" else raw[section]
        target[key] = 1.0
        with pytest.raises(ConfigError, match=key):
            from_dict(raw)

    def test_config_echo_round_trips_every_field(self):
        cfg = from_dict(NON_DEFAULT_SCENARIO)
        leaves = config_leaves(cfg)
        defaults = config_leaves(default_scenario())
        # the scenario sets every field away from its default, so a field
        # the echo drops would come back changed
        assert {k for k, v in leaves.items() if defaults.get(k) == v} == {"persuasion.units_per_slot"}
        echo = json.loads(json.dumps(cfg.to_jsonable()))
        assert config_leaves(from_dict(echo)) == leaves


#: every scenario key set to a value other than its default
NON_DEFAULT_SCENARIO = {
    "horizon": 300,
    "window": 6,
    "slot_ms": 50.0,
    "resources": ["cpu", "fpga", "gpu"],
    "tasks": [
        {"id": "beacon", "nature": "security", "priority": "high",
         "arrival": {"kind": "periodic", "interval": 7},
         "demand": [0.1, 0.2, 0.3], "power": 0.05, "processing": 3, "deadline": 9,
         "firm_deadline": True, "mean_demand": 2.5},
        {"id": "bulk", "nature": "security", "priority": "low",
         "arrival": {"kind": "aperiodic", "rate": 0.2},
         "demand": [0.3, 0.05, 0.1], "power": 0.2, "processing": 4, "deadline": 12,
         "firm_deadline": False, "mean_demand": 3.5},
    ],
    "scan": {"demand": [0.1, 0.1, 0.2], "power": 0.3, "duration": 4},
    "utility": {"detect_reward": 8.0, "scan_cost": 0.4, "load_penalty": 1.5,
                "steepness": 0.6, "midpoint": 0.4, "ceiling": 0.9},
    "power_budget": 0.9,
    "scan_margin_rule": "slot",
    "channel": {
        "fading": {"b0": 0.2, "m": 5.0, "omega": 1.0},
        "snr_threshold_db": 4.0,
        "series_truncation": 150,
        "proc_delay_ms": 2.0,
        "geometry": {"d_min_km": 600.0, "d_max_km": 1500.0, "pass_slots": 250,
                     "peak_snr_db": 11.0, "path_loss_exp": 2.2},
    },
    "attacker": {"mode": "dp", "reward_weight": 9.0, "base_cost": 0.2, "cost_scale": 0.4,
                 "memory": 0.2, "dp_grid": 64, "exact_horizon": 10, "belief_threshold": 0.6},
    "persuasion": {"z_bins": 3, "n_signals": 9, "credibility": 0.3, "prior_scan": 0.4,
                   "subdivisions": 20, "budget_points": 7, "delay_max_ms": 300.0,
                   "delay_snr_lo_db": 1.0, "delay_snr_hi_db": 12.0},
    "policy": "stardis",
    "sp_scan_period": 25,
    "sp_scan_rule": "delta-u",
}


def config_leaves(obj, prefix=""):
    """Dotted field path -> value for every compared field of a config."""
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            if f.compare:
                out.update(config_leaves(getattr(obj, f.name), f"{prefix}{f.name}."))
        return out
    if isinstance(obj, tuple) and obj and dataclasses.is_dataclass(obj[0]):
        out = {}
        for i, item in enumerate(obj):
            out.update(config_leaves(item, f"{prefix}{i}."))
        return out
    if isinstance(obj, np.ndarray):
        obj = tuple(obj.tolist())
    elif isinstance(obj, enum.Enum):
        obj = obj.value
    return {prefix.rstrip("."): obj}


def test_sp_scan_preempts_routine_work():
    from satdefsim.scheduler import GreedyPlanner, UtilityParams
    from conftest import make_instance

    cfg = default_scenario()
    sched = cfg.scheduler_config()
    queue = [
        make_instance(uid=k, tid="routine", demand=(0.05, 0.15), power=0.13,
                      processing=18, deadline=50)
        for k in range(8)
    ]
    with_scan = GreedyPlanner(UtilityParams(), sched, 0, 5).schedule_slot(queue, 0, forced_scan=True)
    without = GreedyPlanner(UtilityParams(), sched, 0, 5).schedule_slot(queue, 0, forced_scan=False)
    assert len(with_scan.running) < len(without.running)


def test_credibility_sweep_attacker_monotone():
    # end-to-end consequence of solver monotonicity, seed-paired episodes
    cfg = default_scenario()
    rows = sweep(cfg, "credibility", [0.01, 0.1, 0.2, 0.5], range(8), policies=("stardis",))
    means = [r["attacker_realized_mean"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_stardis_dominates_star_at_every_budget():
    # seed-paired sign comparison at each budget in the sweep range
    cfg = default_scenario()
    seeds = range(8)
    for c in (0.01, 0.1, 0.2, 0.5):
        from dataclasses import replace

        cfg_c = replace(cfg, persuasion=replace(cfg.persuasion, credibility=float(c)))
        star = np.array([run_episode(cfg_c, s, "star")[0].attacker_realized for s in seeds])
        dis = np.array([run_episode(cfg_c, s, "stardis")[0].attacker_realized for s in seeds])
        wins = int(np.sum(dis < star))
        from scipy.stats import binomtest

        assert np.mean(dis) <= np.mean(star)
        assert binomtest(wins, len(star), alternative="greater").pvalue < 0.05, (c, wins)


class TestDeceptionPipeline:
    def test_star_reveals_stardis_conceals(self):
        cfg = small_cfg(horizon=300)
        m_star, tr_star = run_episode(cfg, 9, "star")
        m_dis, tr_dis = run_episode(cfg, 9, "stardis")
        # identical scheduling (paired streams), different signaling
        assert m_star.scan_freq == m_dis.scan_freq
        assert m_star.defender_utility == pytest.approx(m_dis.defender_utility)
        assert max(tr_dis.slots["budget"]) > 0.0
        assert max(tr_star.slots["budget"]) == 0.0

    def test_drift_nonnegative_in_windows(self):
        cfg = small_cfg(horizon=300)
        _, tr = run_episode(cfg, 11, "star-static")
        drifts = [w["drift"] for w in tr.windows if w["drift"] != ""]
        assert all(d >= -1e-9 for d in drifts)

    def test_stardis_delays_exceed_static(self):
        cfg = small_cfg(horizon=300)
        _, tr_dis = run_episode(cfg, 13, "stardis")
        _, tr_sta = run_episode(cfg, 13, "star-static")
        assert np.mean(tr_dis.slots["delay_slots"]) > np.mean(tr_sta.slots["delay_slots"])
