import dataclasses
import enum
import json
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satdefsim import attacker, engine
from satdefsim.attacker import AttackerParams, best_response, dp_decision
from satdefsim.config import ConfigError, PersuasionSettings, default_scenario, from_dict, load_config
from satdefsim.engine import (
    EpisodeRunner,
    Interceptor,
    SignalTable,
    belief_entry,
    persuasion_assets,
    run_benchmark_suite,
    run_episode,
    sweep,
    write_slot_traces,
)
from satdefsim.persuasion import build_scan_game
from satdefsim.scheduler import UtilityParams

from conftest import clear_engine_caches
from test_golden import record


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


def policy_cases(policies):
    """``(policy, overrides)`` cases: ``policies`` on the default scenario,
    and sp with its marginal-utility scan trigger instead of the periodic one."""
    return [pytest.param(p, {}, id=p) for p in policies] + [
        pytest.param("sp", {"sp_scan_rule": "delta-u"}, id="sp-delta-u")
    ]


class TestAccounting:
    @pytest.mark.parametrize("policy,overrides", policy_cases(POLICIES))
    def test_instance_identity(self, policy, overrides):
        m, _ = run_episode(small_cfg(**overrides), 5, policy)
        assert m.generated == m.completed + m.dropped + m.missed + m.residual

    @pytest.mark.parametrize("policy", ["star-static", "stardis"])
    def test_five_load_bins(self, policy):
        # 10 states: past the largest state count the old simplex grids covered
        cfg = small_cfg(persuasion={"z_bins": 5})
        m, tr = run_episode(cfg, 0, policy)
        assert m.generated == m.completed + m.dropped + m.missed + m.residual
        assert persuasion_assets(cfg).static_solution(0.2).lp_columns == 10 + 5 * 5
        again = run_episode(cfg, 0, policy)
        assert (m, tr.slots, tr.windows) == (again[0], again[1].slots, again[1].windows)

    @pytest.mark.parametrize("policy,overrides", policy_cases(POLICIES))
    def test_capacity_and_power_never_violated(self, policy, overrides):
        cfg = small_cfg(**overrides)
        _, tr = run_episode(cfg, 2, policy)
        assert min(tr.slots["z"]) >= -1e-9  # per-slot capacity
        assert max(tr.slots["power"]) <= cfg.power_budget + 1e-9

    @pytest.mark.parametrize("policy,overrides", policy_cases(("sp", "star", "star-static", "stardis")))
    def test_scan_blocks_have_exact_duration(self, policy, overrides):
        cfg = small_cfg(**overrides)
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


#: the signaling policies whose plans read the downlink: the base delays
#: and stardis's allocation and artificial delays
LINK_POLICIES = ("star", "stardis")


def downlink_tables(cfg):
    """The cached link tables and the star and stardis signal plans of a scenario."""
    link = engine._link_tables(cfg.horizon, cfg.geometry, cfg.proc_delay_ms, cfg.slot_ms)
    return link, tuple(engine._signal_plan(cfg, pol) for pol in LINK_POLICIES)


#: a scenario in which each change of ``DOWNLINK_INPUTS`` changes a cached
#: table: the budget curve falls in unequal steps and the 12 dB threshold
#: puts the pass edges near certain outage, so the allocation weighs
#: outage values, not only their order; the 60 ms processing delay puts
#: the base latency near a slot boundary
KEY_SCENARIO = small_cfg(
    attacker={"mode": "threshold", "base_cost": 3.0},
    persuasion={"credibility": 0.3},
    channel={
        "fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
        "snr_threshold_db": 12.0,
        "proc_delay_ms": 60.0,
        "geometry": {"d_min_km": 550.0, "d_max_km": 1600.0, "peak_snr_db": 12.0},
    },
)


def plan_facts(plan) -> tuple:
    """Everything a signal plan fixes, as plain values."""
    return (
        plan.budgets.tolist(), plan.window_budgets.tolist(), plan.delays,
        [table.policy.tolist() for table in plan.tables],
    )


def same_tables(x, y) -> bool:
    (link_x, plans_x), (link_y, plans_y) = x, y
    return (
        all(np.array_equal(u, v) for u, v in zip(link_x, link_y))
        and list(map(plan_facts, plans_x)) == list(map(plan_facts, plans_y))
    )


def _change(section=None, **values):
    """A function that changes ``values`` in one sub-config (or at the top
    level) of a scenario."""
    if section is None:
        return lambda c: dataclasses.replace(c, **values)
    return lambda c: dataclasses.replace(c, **{section: dataclasses.replace(getattr(c, section), **values)})


#: one-input changes of the scenario, each read by the downlink tables
DOWNLINK_INPUTS = {
    "geometry.peak_snr_db": _change("geometry", peak_snr_db=8.0),
    "geometry.pass_slots": _change("geometry", pass_slots=120),
    "channel.omega": _change("channel", omega=0.6),
    "channel.snr_threshold_db": _change("channel", snr_threshold_db=8.0),
    "proc_delay_ms": _change(proc_delay_ms=120.0),
    "slot_ms": _change(slot_ms=40.0),
    "window": _change(window=7),
    "persuasion.credibility": _change("persuasion", credibility=0.1),
    "delay_max_ms": _change("persuasion", delay_max_ms=150.0),
    "delay_snr_hi_db": _change("persuasion", delay_snr_hi_db=6.0),
    "budget_points": _change("persuasion", budget_points=5),
    "prior_scan": _change("persuasion", prior_scan=0.35),
}


class TestDownlinkCache:
    """The seed-independent downlink tables and signal plans are built
    once per scenario and must leave every episode as it would be without
    the cache."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cold_and_warm_episodes_identical(self, policy):
        cfg = small_cfg()
        clear_engine_caches()
        cold = record(cfg, 3, policy)
        warm = record(cfg, 3, policy)
        assert warm == cold

    @pytest.mark.parametrize("field", sorted(DOWNLINK_INPUTS))
    def test_cache_key_covers_every_input(self, field):
        a = KEY_SCENARIO
        b = DOWNLINK_INPUTS[field](a)
        clear_engine_caches()
        first = [record(a, 2, pol) for pol in LINK_POLICIES]
        misses = engine._signal_plan.cache_info().misses
        warm = [record(b, 2, pol) for pol in LINK_POLICIES]  # caches hold a's plans too
        assert engine._signal_plan.cache_info().misses == misses + len(LINK_POLICIES)
        warm_tables = downlink_tables(b)
        clear_engine_caches()
        cold = [record(b, 2, pol) for pol in LINK_POLICIES]
        cold_tables = downlink_tables(b)
        assert warm == cold
        assert same_tables(warm_tables, cold_tables)
        # the input changes the episodes and a table, so a key without it fails
        assert cold != first
        clear_engine_caches()
        assert not same_tables(downlink_tables(a), cold_tables)

    def test_cached_tables_are_read_only(self):
        cfg = small_cfg()
        run_episode(cfg, 0, "stardis")
        (mean_snr, prop_ms, delays), plans = downlink_tables(cfg)
        arrays = [mean_snr, prop_ms]
        for plan in plans:
            arrays += [plan.budgets, plan.window_budgets]
            assert isinstance(plan.tables, tuple) and isinstance(plan.delays, tuple)
            assert len(plan.tables) == len(plan.budgets) == len(plan.delays) == cfg.horizon
            assert len(plan.window_budgets) == -(-cfg.horizon // cfg.window)
            with pytest.raises(dataclasses.FrozenInstanceError):
                plan.budgets = None
        for table in arrays:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[0]
        assert isinstance(delays, tuple) and plans[0].delays is delays
        assert EpisodeRunner(cfg, 1, "stardis").mean_snr is mean_snr

    def test_built_once_per_scenario(self, monkeypatch):
        built = {"outage": 0, "forecast": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "OutageTable", counting("outage", engine.OutageTable))
        monkeypatch.setattr(engine, "predict_mean_snr", counting("forecast", engine.predict_mean_snr))
        clear_engine_caches()
        cfg = small_cfg()
        for seed in range(3):
            run_episode(cfg, seed, "stardis")
        assert built == {"outage": 1, "forecast": 1}
        for policy in POLICIES:
            run_episode(cfg, 4, policy)
        assert built == {"outage": 1, "forecast": 1}
        # the outage forecast reads no persuasion setting
        sweep(cfg, "credibility", [0.01, 0.1, 0.2, 0.5], range(2), policies=("stardis",))
        assert built == {"outage": 1, "forecast": 1}

    def test_sweep_builds_each_plan_once(self):
        # seeds are the sweep's outer loop, so each seed cycles through all
        # 4 x 3 (credibility, policy) plans: a smaller cache rebuilds them all
        clear_engine_caches()
        sweep(small_cfg(horizon=100), "credibility", [0.01, 0.1, 0.2, 0.5], range(3))
        info = engine._signal_plan.cache_info()
        assert (info.misses, info.hits) == (12, 24)


@pytest.mark.parametrize("order", [(0.5, 0.5 + 1e-13), (0.5 + 1e-13, 0.5)], ids=["exact-first", "nudged-first"])
def test_nearby_priors_each_get_their_own_game(order):
    def cfg(prior):
        return small_cfg(persuasion={"prior_scan": prior})

    cold = {}
    for prior in order:
        clear_engine_caches()
        cold[prior] = record(cfg(prior), 0, "star-static")
    clear_engine_caches()
    for prior in order:
        assert record(cfg(prior), 0, "star-static") == cold[prior]
        expected = build_scan_game(10.0, 0.1, prior)  # the default attacker weights
        assert engine.persuasion_assets(cfg(prior)).game.prior.tolist() == expected.prior.tolist()


STAR_FAMILY = ("star", "star-static", "stardis")


def count_defender_calls(monkeypatch) -> dict[str, int]:
    """Count the defender pass's plan, slot-solver and arrival calls."""
    calls = {"plan_horizon": 0, "schedule_slot": 0, "generate_arrivals": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "plan_horizon", counting("plan_horizon", engine.plan_horizon))
    monkeypatch.setattr(engine, "generate_arrivals", counting("generate_arrivals", engine.generate_arrivals))
    monkeypatch.setattr(
        engine.GreedyPlanner, "schedule_slot",
        counting("schedule_slot", engine.GreedyPlanner.schedule_slot),
    )
    return calls


#: a scenario in which each change of ``SCHEDULE_INPUTS`` changes the
#: defender's trajectory: with a window twice the scan's length and a
#: weak detection reward, the window and the slot margin rules disagree
SCHEDULE_SCENARIO = small_cfg(window=10, utility={"detect_reward": 3.0})

#: one-input changes of the scenario, each read by the defender pass
SCHEDULE_INPUTS = {
    "horizon": _change(horizon=150),
    "window": _change(window=8),
    "tasks": lambda c: dataclasses.replace(c, tasks=tuple(
        dataclasses.replace(s, processing=12) if s.id == "routine" else s for s in c.tasks
    )),
    "scan": _change("scan", power_weight=0.7),
    "utility": _change("utility", load_penalty=20.0),
    "power_budget": _change(power_budget=0.6),
    "scan_margin_rule": _change(scan_margin_rule="slot"),
}

#: changes that leave the defender pass alone: signaling, channel and interceptor
SIGNALING_INPUTS = {
    "persuasion": _change("persuasion", credibility=0.05, prior_scan=0.3),
    "channel": _change("channel", omega=0.6),
    "geometry": _change("geometry", peak_snr_db=8.0),
    "attacker": _change("attacker", base_cost=0.5),
    "attacker_mode": _change(attacker_mode="dp"),
}


class TestScheduleCache:
    """star, star-static and stardis share the defender schedule of the
    last (scheduling inputs, seed); a hit must leave every episode as it
    would be without the cache."""

    @pytest.mark.parametrize("policy", STAR_FAMILY)
    def test_cold_and_hit_episodes_identical(self, policy):
        cfg = small_cfg()
        clear_engine_caches()
        cold = record(cfg, 3, policy)
        for other in STAR_FAMILY:
            clear_engine_caches()
            run_episode(cfg, 3, other)  # builds the schedule
            assert record(cfg, 3, policy) == cold

    def test_hit_runs_no_defender_pass(self, monkeypatch):
        cfg = small_cfg()
        clear_engine_caches()
        calls = count_defender_calls(monkeypatch)
        run_episode(cfg, 3, "star")
        assert calls["plan_horizon"] == cfg.horizon // cfg.window
        assert calls["schedule_slot"] > 0 and calls["generate_arrivals"] == 1
        calls.update(dict.fromkeys(calls, 0))
        for policy in STAR_FAMILY:
            run_episode(cfg, 3, policy)
        assert calls == {"plan_horizon": 0, "schedule_slot": 0, "generate_arrivals": 0}

    @pytest.mark.parametrize("policy", ("fcfs", "sp"))
    def test_other_policies_always_run_their_own_pass(self, monkeypatch, policy):
        cfg = small_cfg()
        run_episode(cfg, 3, "star")
        calls = count_defender_calls(monkeypatch)
        run_episode(cfg, 3, policy)
        assert calls["generate_arrivals"] == 1 and calls["plan_horizon"] == 0

    @pytest.mark.parametrize("field", sorted(SCHEDULE_INPUTS) + ["seed"])
    def test_each_scheduling_input_misses(self, field):
        a, seed_a = SCHEDULE_SCENARIO, 2
        b, seed_b = (a, 3) if field == "seed" else (SCHEDULE_INPUTS[field](a), seed_a)
        clear_engine_caches()
        first = record(a, seed_a, "star")
        warm = record(b, seed_b, "stardis")  # the cache holds a's schedule
        clear_engine_caches()
        cold = record(b, seed_b, "stardis")
        assert warm == cold
        # the input changes the defender trajectory, so a key without it fails
        clear_engine_caches()
        assert record(b, seed_b, "star")["metrics"] != first["metrics"]

    @pytest.mark.parametrize("field", sorted(SIGNALING_INPUTS))
    def test_signaling_inputs_hit(self, monkeypatch, field):
        a = small_cfg()
        b = SIGNALING_INPUTS[field](a)
        clear_engine_caches()
        cold = record(b, 3, "stardis")
        run_episode(a, 3, "star")
        calls = count_defender_calls(monkeypatch)
        assert record(b, 3, "stardis") == cold
        assert calls == {"plan_horizon": 0, "schedule_slot": 0, "generate_arrivals": 0}

    def test_equal_valued_configs_share_a_schedule(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
        clear_engine_caches()
        run_episode(default_scenario(horizon=200), 3, "star")
        calls = count_defender_calls(monkeypatch)
        run_episode(small_cfg(), 3, "stardis")  # equal values, new objects
        loaded = dataclasses.replace(load_config(path), horizon=200)
        run_episode(loaded, 3, "star-static")
        assert calls == {"plan_horizon": 0, "schedule_slot": 0, "generate_arrivals": 0}

    def test_mutating_returned_traces_leaves_the_next_episode(self):
        cfg = small_cfg()
        clear_engine_caches()
        cold = record(cfg, 3, "star-static")
        metrics, traces = run_episode(cfg, 3, "star")
        for column in ("scan_on", "z", "power"):
            traces.slots[column][0] = -7
            traces.slots[column].append(-7)
        traces.windows[0]["scan_freq_realized"] = -7.0
        metrics.utilization["cpu"] = -7.0
        assert record(cfg, 3, "star-static") == cold

    def test_one_schedule_is_kept(self):
        cfg = small_cfg()
        for seed in range(3):
            run_episode(cfg, seed, "star")
        [schedule] = engine._SCHEDULE_CACHE.values()
        assert all(isinstance(getattr(schedule, name), tuple) for name in ("scan_on", "z", "power", "usage_sum"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.completed = 0


@st.composite
def valid_scenarios(draw):
    """A small valid scenario and a seed: 1-3 resources, a mixed set of
    2-4 task specs (either priority, nature and arrival pattern, firm or
    soft deadlines), a horizon often not a multiple of the window and
    often longer than the pass, windows of up to 60 slots, 1-3 capacity
    bins and every attacker mode."""
    n_res = draw(st.integers(1, 3))
    demand = st.lists(st.floats(0.0, 0.45), min_size=n_res, max_size=n_res)
    duration = draw(st.integers(1, 3))
    window = draw(st.integers(duration, 60))
    horizon = draw(st.integers(window, 120))
    tasks = []
    for j in range(draw(st.integers(2, 4))):
        processing = draw(st.integers(1, 20))
        if draw(st.booleans()):
            arrival = {"kind": "periodic", "interval": draw(st.integers(1, 40))}
        else:
            arrival = {"kind": "aperiodic", "rate": draw(st.floats(0.0, 0.6))}
        tasks.append({
            "id": f"task{j}",
            "priority": draw(st.sampled_from(("low", "high"))),
            "nature": draw(st.sampled_from(("mission", "security"))),
            "demand": draw(demand),
            "power": draw(st.floats(0.0, 0.3)),
            "arrival": arrival,
            "processing": processing,
            "deadline": processing + draw(st.integers(0, 40)),
            "firm_deadline": draw(st.booleans()),
        })
    raw = {
        "horizon": horizon,
        "window": window,
        "resources": ["cpu", "fpga", "gpu"][:n_res],
        "tasks": tasks,
        "scan": {"demand": draw(demand), "power": 0.25, "duration": duration},
        "channel": {
            "fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
            "geometry": {"d_min_km": 550.0, "d_max_km": 1600.0, "peak_snr_db": 12.0,
                         "pass_slots": draw(st.integers(1, 150))},
        },
        "attacker": {"mode": draw(st.sampled_from(("none", "threshold", "dp")))},
        "persuasion": {"z_bins": draw(st.integers(1, 3))},
    }
    return from_dict(raw), draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_random_valid_scenarios_run_and_repeat(case):
    cfg, seed = case
    for policy in POLICIES:
        clear_engine_caches()
        cold = record(cfg, seed, policy)  # the engine checks the accounting identity
        m = cold["metrics"]
        assert m["generated"] == m["completed"] + m["dropped"] + m["missed"] + m["residual"]
        assert record(cfg, seed, policy) == cold


DEFENDER_METRICS = (
    "utilization", "routine_completion_pct", "relay_miss_pct", "defender_utility", "scan_freq",
    "generated", "completed", "dropped", "missed", "residual", "infeasible_events",
)
DEFENDER_WINDOW_COLUMNS = ("scan_planned", "z_avg_planned", "scan_freq_realized")


def defender_view(metrics, traces) -> tuple:
    """Everything of an episode that the defender decides."""
    return (
        {k: getattr(metrics, k) for k in DEFENDER_METRICS},
        [traces.slots[k] for k in ("scan_on", "z", "power")],
        [[w[k] for k in DEFENDER_WINDOW_COLUMNS] for w in traces.windows],
    )


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_star_family_shares_one_defender_trajectory(case):
    # signaling never feeds back into the schedule: the premise of the
    # schedule cache, checked here on separately built schedules
    cfg, seed = case
    for mode in ("none", "threshold", "dp"):
        cfg_m = dataclasses.replace(cfg, attacker_mode=mode)
        views = []
        for policy in STAR_FAMILY:
            clear_engine_caches()
            views.append(defender_view(*run_episode(cfg_m, seed, policy)))
        assert views[0] == views[1] == views[2], mode


def test_suite_and_sweep_equal_plain_episode_loops():
    cfg = small_cfg(horizon=100)
    seeds = [0, 1, 2]

    def plain(cfg_v, policy):
        out = []
        for s in seeds:
            clear_engine_caches()
            out.append(run_episode(cfg_v, s, policy)[0])
        return out

    res = run_benchmark_suite(cfg, POLICIES, seeds)
    for policy in POLICIES:
        episodes = plain(cfg, policy)
        assert res.episodes[policy] == episodes
        rows = [m.to_row() for m in episodes]
        for key, (mean, std) in res.stats[policy].items():
            column = [r[key] for r in rows]
            assert (mean, std) == (float(np.mean(column)), float(np.std(column))), (policy, key)

    values = [0.05, 0.3]
    rows = sweep(cfg, "credibility", values, seeds)
    assert [(r["value"], r["policy"]) for r in rows] == [(v, p) for v in values for p in STAR_FAMILY]
    for row in rows:
        cfg_v = dataclasses.replace(cfg, persuasion=dataclasses.replace(cfg.persuasion, credibility=row["value"]))
        episodes = plain(cfg_v, row["policy"])
        realized = [m.attacker_realized for m in episodes]
        assert row["attacker_realized_mean"] == float(np.mean(realized))
        assert row["attacker_realized_std"] == float(np.std(realized))
        assert row["attacker_believed_mean"] == float(np.mean([m.attacker_believed for m in episodes]))
        assert row["defender_utility_mean"] == float(np.mean([m.defender_utility for m in episodes]))


def test_long_dp_window_runs_and_repeats():
    # the dp interceptor replans over up to 30 remaining slots per window
    cfg = small_cfg(horizon=400, window=30, attacker={"mode": "dp"})
    first = record(cfg, 0, "stardis")
    assert first["metrics"]["attack_count"] > 0
    assert record(cfg, 0, "stardis") == first


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
        runner = engine.DefenderPass(cfg, 0, "fcfs")
        live = []
        for inst in runner.arrivals_by_slot[0]:
            from satdefsim.workload import admit
            admit(inst, 0)
            live.append(inst)
        running, usage, _ = runner._fcfs_slot(live)
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

    @pytest.mark.parametrize("args,message", [
        (("nonsense", [], [0]), "sweep param"),
        (("nonsense", [0.1], []), "sweep param"),
        (("credibility", [], [0]), "at least one sweep value"),
        (("prior", [0.3], []), "at least one seed"),
        (("credibility", [0.1, -1.0], [0]), "credibility budget"),
    ], ids=["bad-param-no-values", "bad-param-no-seeds", "no-values", "no-seeds", "bad-value"])
    def test_sweep_arguments_rejected_before_any_episode(self, monkeypatch, args, message):
        def no_episode(*a, **kw):
            raise AssertionError("an episode ran before the sweep arguments were checked")

        monkeypatch.setattr(engine, "run_episode", no_episode)
        with pytest.raises(ValueError, match=message):
            sweep(small_cfg(), *args)

    def test_empty_sweep_policy_list_rejected(self):
        with pytest.raises(ValueError, match="empty policy list"):
            sweep(small_cfg(), "credibility", [0.1], [0], policies=())

    @pytest.mark.parametrize("run", [
        lambda cfg: run_benchmark_suite(cfg, ["fcfs", "sp", "stra"], range(4)),
        lambda cfg: sweep(cfg, "credibility", [0.1, 0.2], range(4), policies=("star", "stra")),
    ], ids=["suite", "sweep"])
    def test_unknown_policy_rejected_before_any_episode(self, monkeypatch, run):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the policy list was checked")

        monkeypatch.setattr(engine, "run_episode", no_episode)
        with pytest.raises(ValueError, match="unknown policy 'stra'"):
            run(small_cfg())

    def test_prior_sweep_runs(self):
        rows = sweep(small_cfg(horizon=100), "prior", [0.3, 0.7], [0], policies=("star",))
        assert len(rows) == 2
        assert {r["value"] for r in rows} == {0.3, 0.7}


# One window of a scripted interaction: the channel state and the scan
# state of all its slots, its realized idle capacity and the signal
# delivered in each slot (none in an erased window).
Window = namedtuple("Window", "erased scan_true z_true signal", defaults=(None,))


def scripted_trace(windows, policy, game, params, threshold, window_len):
    """Drive the engine's threshold interceptor through scripted windows.
    Delivery is immediate: each slot's packet carries its window's signal
    and arrives in that slot, so the belief's response to each forced
    channel state is isolated.  A row's ``utility`` is the change of the
    interceptor's realized total in its slot."""
    table = SignalTable(policy, game)
    step = Interceptor(params, belief_entry(game.prior, game), threshold)
    rows = []
    for wi, win in enumerate(windows):
        for k in range(window_len):
            t = wi * window_len + k
            step.receive(win.erased, [] if win.signal is None else [(t, win.signal, table)])
            before = step.realized
            x_att, _, _ = step.act(win.scan_true, win.z_true, win.erased, window_len - k)
            rows.append({
                "window": wi,
                "belief_scan": step.p_scan,
                "x_att": x_att,
                "utility": step.realized - before,
            })
    return rows


class TestScriptedBeliefDynamics:
    def test_erasure_resets_and_deception_holds(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=1)
        # pooled signal 0: sent always when scanning, 2/3 of the time when
        # vulnerable -> posterior scan-probability 0.6
        policy = np.array([[2 / 3, 1 / 3], [1.0, 0.0]])
        params = AttackerParams()
        windows = [
            Window(erased=True, scan_true=False, z_true=0.2),
            Window(erased=False, scan_true=False, z_true=0.2, signal=0),
            Window(erased=False, scan_true=False, z_true=0.2, signal=1),
        ]
        rows = scripted_trace(windows, policy, game, params, 0.55, window_len=4)
        w0 = [r for r in rows if r["window"] == 0]
        assert all(r["x_att"] == 1 for r in w0)  # prior 0.5 < 0.55
        assert all(r["utility"] < 0 for r in w0)  # blind attacks fail
        w1 = [r for r in rows if r["window"] == 1]
        assert all(r["belief_scan"] == pytest.approx(0.6) for r in w1)
        assert all(r["x_att"] == 0 for r in w1)  # deception holds
        w2 = [r for r in rows if r["window"] == 2]
        assert all(r["x_att"] == 1 for r in w2)  # revealed vulnerability
        assert sum(r["utility"] for r in w2) > 0


class TestInterceptorStep:
    GAME = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=1)
    # signal 0 pools (scan probability 0.6), signal 1 reveals a vulnerable state
    POLICY = np.array([[2 / 3, 1 / 3], [1.0, 0.0]])

    def make(self, threshold=0.55):
        prior = belief_entry(self.GAME.prior, self.GAME)
        return SignalTable(self.POLICY, self.GAME), prior, Interceptor(AttackerParams(), prior, threshold)

    def test_newest_packet_sets_the_belief(self):
        table, _, step = self.make()
        assert step.receive(False, [(5, 1, table), (3, 0, table)]) == "1"
        assert step.p_scan == 0.0
        assert step.receive(False, [(3, 1, table), (5, 0, table)]) == "0"
        assert step.belief is table.posteriors[0][0]
        assert step.p_scan == pytest.approx(0.6)

    def test_erased_slot_resets_to_prior_and_drops_its_packets(self):
        table, prior, step = self.make()
        step.receive(False, [(0, 0, table)])
        assert step.receive(True, [(1, 1, table), (2, 0, table)]) == ""
        assert step.belief is prior[0] and step.p_scan == prior[1] and step.idle_gap == prior[2]

    def test_slot_with_nothing_due_keeps_the_belief(self):
        table, _, step = self.make()
        step.receive(False, [(0, 0, table)])
        for due in (None, []):
            assert step.receive(False, due) == ""
            assert step.belief is table.posteriors[0][0]

    def test_attack_into_a_scan_is_blocked_and_still_pays(self):
        params = AttackerParams()
        _, prior, step = self.make()  # prior scan probability 0.5 < 0.55: attack
        assert step.act(True, 0.2, False, 1) == (1, 1, 0.0)
        assert (step.attacks, step.blocked) == (1, 1)
        assert step.realized == -params.base_cost
        assert step.believed == params.reward_weight * prior[2] - params.base_cost
        assert step.intensity == params.memory
        # the next attack lands: no scan and intercepted telemetry
        x_att, blocked, reward = step.act(False, 0.2, False, 1)
        assert (x_att, blocked, reward) == (1, 0, params.reward_weight * (1.0 - 0.2))
        cost = params.base_cost * (1.0 + params.cost_scale * params.memory)
        assert step.realized == -params.base_cost + (reward - cost)
        assert (step.attacks, step.blocked) == (2, 1)

    def test_dp_decides_every_slot_from_memoized_layers(self, monkeypatch):
        # one dp_decision per slot, whose layers are built once per
        # distinct (gap, remaining): the first decision of a fresh plan
        calls, builds = [], []
        build = attacker._earlier_layer
        monkeypatch.setattr(attacker, "_earlier_layer", lambda *a: builds.append(1) or build(*a))
        monkeypatch.setattr(attacker, "_LAYER_CACHE", {})

        def counted(*args):
            x = dp_decision(*args)
            calls.append((args, x))
            return x

        monkeypatch.setattr(engine, "dp_decision", counted)
        table, _, step = self.make(threshold=None)
        for remaining in (3, 2, 1):  # the prior's gap: the value of 1 and of 2 slots is built
            step.receive(False, None)
            step.act(False, 0.2, False, remaining)
        step.receive(False, [(3, 1, table)])
        step.act(False, 0.2, False, 4)  # a new gap: of 1, 2 and 3 slots
        # an equal belief from another table, and the prior after an erasure
        step.receive(False, [(4, 1, SignalTable(self.POLICY, self.GAME))])
        step.act(False, 0.2, False, 3)
        step.receive(True, None)
        step.act(False, 0.2, True, 2)
        assert len(builds) == 5
        assert [remaining for (_, remaining, _, _), _ in calls] == [3, 2, 1, 4, 3, 2]
        for (gap, remaining, params, intensity), x in calls:
            plan = best_response([gap] * remaining, [0] * remaining, params, start_intensity=intensity)
            assert x == plan.decisions[0]


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

    def test_duplicate_task_ids_rejected(self):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        raw["tasks"].append(json.loads(json.dumps(raw["tasks"][0])))
        with pytest.raises(ConfigError, match="duplicate task ids"):
            from_dict(raw)
        base = default_scenario()
        with pytest.raises(ConfigError, match="duplicate task ids"):
            dataclasses.replace(base, tasks=base.tasks + base.tasks[:1])

    def test_n_signals_below_split_support_rejected(self):
        # 2 * z_bins = 4 states: an optimal split may need 5 signals
        for bad in (-1, 1, 4):
            with pytest.raises(ConfigError, match="n_signals"):
                default_scenario(persuasion={"z_bins": 2, "n_signals": bad})
        for ok in (0, 5, 6):
            assert default_scenario(persuasion={"z_bins": 2, "n_signals": ok}).persuasion.n_signals == ok

    @pytest.mark.parametrize("bad", [0, -2, 2.5, "6", True])
    def test_bad_subdivisions_rejected(self, bad):
        with pytest.raises(ConfigError, match="subdivisions"):
            default_scenario(persuasion={"subdivisions": bad})

    @pytest.mark.parametrize("ok", [None, 1, 60])
    def test_subdivisions_accepted(self, ok):
        assert default_scenario(persuasion={"subdivisions": ok}).persuasion.subdivisions == ok

    @pytest.mark.parametrize("section,key", [
        ("persuasion", "units_per_slot"),
        ("attacker", "dp_grid"),
        ("attacker", "exact_horizon"),
        ("channel", "series_truncation"),
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

    @pytest.mark.parametrize("key", ["reward_weight", "base_cost", "cost_scale"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_attacker_weights_rejected(self, key, bad):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        raw["attacker"][key] = bad
        with pytest.raises(ConfigError, match="finite"):
            from_dict(raw)

    @pytest.mark.parametrize("key,bad,message", [
        ("slot_ms", 0.0, "slot_ms"),
        ("slot_ms", float("nan"), "slot_ms"),
        ("power_budget", float("nan"), "power_budget"),
        ("power_budget", 0.0, "power budget"),
        ("scan_margin_rule", "both", "margin_rule"),
        ("scan.power", -0.1, "scan power"),
        ("scan.power", float("inf"), "scan.power_weight"),
        ("tasks.0.power", float("nan"), "tasks.0.power_weight"),
        ("tasks.1.arrival.rate", float("inf"), "tasks.1.arrival.rate"),
        ("utility.load_penalty", float("nan"), "utility.load_penalty"),
        ("channel.proc_delay_ms", float("nan"), "proc_delay_ms"),
        ("channel.proc_delay_ms", -1.0, "proc_delay_ms"),
        ("channel.snr_threshold_db", float("nan"), "channel.snr_threshold_db"),
        ("channel.fading.omega", float("nan"), "channel.omega"),
        ("channel.geometry.peak_snr_db", float("nan"), "geometry.peak_snr_db"),
        ("channel.geometry.d_max_km", float("inf"), "geometry.d_max_km"),
        ("persuasion.credibility", float("nan"), "persuasion.credibility"),
        ("persuasion.credibility", float("inf"), "persuasion.credibility"),
        ("persuasion.n_signals", float("nan"), "persuasion.n_signals"),
        ("persuasion.budget_points", 0, "budget_points"),
        ("persuasion.delay_snr_hi_db", float("nan"), "persuasion.delay_snr_hi_db"),
        # the pass edge is 1,500 km away: 5.0 ms of propagation
        ("persuasion.delay_max_ms", 4.0, "delay_max_ms 4.0 is below"),
    ])
    def test_non_finite_and_out_of_range_scalars_rejected(self, key, bad, message):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        *parents, leaf = key.split(".")
        target = raw
        for k in parents:
            target = target[int(k)] if k.isdigit() else target[k]
        target[leaf] = bad
        with pytest.raises(ConfigError, match=message):
            from_dict(raw)

    @pytest.mark.parametrize("bad", ["cf", "cpu", ["cpu", 1], [], 2, None])
    def test_resources_must_be_a_list_of_strings(self, bad):
        # a string once loaded as its characters: "cf" became ("c", "f")
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        raw["resources"] = bad
        with pytest.raises(ConfigError, match="resources"):
            from_dict(raw)
        with pytest.raises(ConfigError, match="resources"):
            default_scenario(resources=bad)
        with pytest.raises(ConfigError, match="resources"):
            dataclasses.replace(default_scenario(), resources=bad)
        listed = dataclasses.replace(default_scenario(), resources=["cpu", "fpga"])
        assert listed.resources == ("cpu", "fpga")

    def test_config_echo_round_trips_every_field(self):
        cfg = from_dict(NON_DEFAULT_SCENARIO)
        leaves = config_leaves(cfg)
        defaults = config_leaves(default_scenario())
        # the scenario sets every field away from its default, so a field
        # the echo drops would come back changed
        assert {k for k, v in leaves.items() if defaults.get(k) == v} == {"persuasion.units_per_slot"}
        echo = json.loads(json.dumps(cfg.to_jsonable()))
        assert config_leaves(from_dict(echo)) == leaves

    def test_default_yaml_is_the_default_scenario(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
        assert load_config(path).to_jsonable() == default_scenario().to_jsonable()

    def test_every_config_dataclass_rejects_non_finite_floats(self):
        # built directly, not loaded: each dataclass checks its own fields.
        # No float field of a scenario is valid at +-inf, so none is left out
        cfg = from_dict(NON_DEFAULT_SCENARIO)
        checked = set()
        for obj in config_dataclasses(cfg) + [cfg.scheduler_config()]:
            for f in dataclasses.fields(obj):
                if f.init and f.type in ("float", "float | None"):
                    for bad in (float("nan"), float("inf"), float("-inf")):
                        with pytest.raises(ValueError, match=f.name):
                            dataclasses.replace(obj, **{f.name: bad})
                    checked.add(f"{type(obj).__name__}.{f.name}")
        assert {"ScenarioConfig.slot_ms", "ScenarioConfig.proc_delay_ms", "SchedulerConfig.power_budget",
                "PassGeometry.d_max_km", "PassGeometry.peak_snr_db", "ScanTask.power_weight",
                "TaskSpec.power_weight", "TaskSpec.mean_demand", "Arrival.rate",
                "PersuasionSettings.credibility", "PersuasionSettings.delay_max_ms"} <= checked
        assert len(checked) == 32

    def test_sections_keep_their_casts_and_keys(self):
        def ints(value):
            """``value`` with every whole float written as an int."""
            if isinstance(value, dict):
                return {k: ints(v) for k, v in value.items()}
            if isinstance(value, list):
                return [ints(v) for v in value]
            return int(value) if isinstance(value, float) and value.is_integer() else value

        raw = ints(NON_DEFAULT_SCENARIO)
        assert raw["utility"]["detect_reward"] == 8 and type(raw["utility"]["detect_reward"]) is int
        cfg = from_dict(raw)
        assert type(cfg.utility.detect_reward) is float
        # a float field loads as a float: the echo prints 8.0, not 8
        assert json.dumps(cfg.to_jsonable()) == json.dumps(from_dict(NON_DEFAULT_SCENARIO).to_jsonable())
        raw["persuasion"]["budget_points"] = 7.0
        assert type(from_dict(raw).persuasion.budget_points) is int
        # an empty section (``utility:`` alone in YAML, or {}) or an absent
        # one is the dataclass's defaults
        for empty in ({}, None, "absent"):
            raw = {**default_scenario().to_jsonable(), "utility": empty, "persuasion": empty, "attacker": empty}
            if empty == "absent":
                del raw["utility"], raw["persuasion"], raw["attacker"]
            cfg = from_dict(raw)
            assert cfg.utility == UtilityParams() and cfg.attacker == AttackerParams()
            assert cfg.persuasion == PersuasionSettings()
        # the belief threshold is an attacker key only
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        raw["persuasion"]["belief_threshold"] = 0.6
        with pytest.raises(ConfigError, match="unknown keys in persuasion: \\['belief_threshold'\\]"):
            from_dict(raw)

    def test_equal_configs_compare_and_hash_equal(self):
        a, b = default_scenario(), default_scenario()
        assert a == b and hash(a) == hash(b)
        assert hash(a.tasks[0]) == hash(b.tasks[0]) and hash(a.scan) == hash(b.scan)
        task = dataclasses.replace(a.tasks[0], demand=(0.06, 0.15))
        assert task != b.tasks[0]
        assert dataclasses.replace(a, tasks=(task,) + a.tasks[1:]) != b
        assert dataclasses.replace(a, scan=dataclasses.replace(a.scan, demand=(0.15, 0.06))) != b


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
        "proc_delay_ms": 2.0,
        "geometry": {"d_min_km": 600.0, "d_max_km": 1500.0, "pass_slots": 250,
                     "peak_snr_db": 11.0, "path_loss_exp": 2.2},
    },
    "attacker": {"mode": "dp", "reward_weight": 9.0, "base_cost": 0.2, "cost_scale": 0.4,
                 "memory": 0.2, "belief_threshold": 0.6},
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
    if isinstance(obj, enum.Enum):
        obj = obj.value
    return {prefix.rstrip("."): obj}


def config_dataclasses(obj) -> list:
    """``obj`` and every dataclass nested in its fields."""
    found = [obj]
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(item):
                found += config_dataclasses(item)
    return found


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
    # seed-paired sign comparison at each budget in the sweep range; the
    # seeds are the outer loop, so each seed's defender schedule is built once
    from scipy.stats import binomtest

    cfg = default_scenario()
    budgets = (0.01, 0.1, 0.2, 0.5)
    cfgs = [dataclasses.replace(cfg, persuasion=dataclasses.replace(cfg.persuasion, credibility=c))
            for c in budgets]
    for c, runs in zip(budgets, engine._run_by_seed(cfgs, ("star", "stardis"), range(8))):
        star = np.array([m.attacker_realized for m in runs["star"]])
        dis = np.array([m.attacker_realized for m in runs["stardis"]])
        wins = int(np.sum(dis < star))
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
