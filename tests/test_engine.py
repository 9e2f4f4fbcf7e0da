import dataclasses
import enum
import json
import re
import subprocess
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import satdefsim
from satdefsim import attacker, engine
from satdefsim.attacker import AttackerParams, best_response, dp_decision
from satdefsim.config import (
    ConfigError,
    PersuasionSettings,
    default_scenario,
    from_dict,
    load_config,
    set_scenario_value,
    with_scenario_values,
)
from satdefsim.engine import (
    EpisodeRunner,
    SignalTable,
    SlotTables,
    belief_entry,
    intercept,
    persuasion_assets,
    run_benchmark_suite,
    run_episode,
    sweep,
    write_slot_traces,
)
from satdefsim.persuasion import build_scan_game, quantize_state
from satdefsim.scheduler import EdfQueue, UtilityParams, plan_horizon
from satdefsim.workload import InstanceState, admit

from conftest import BENCH_SCENARIOS, clear_engine_caches, head_of_line_scenario
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


class TestAccounting:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_instance_identity(self, policy):
        m, _ = run_episode(small_cfg(), 5, policy)
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_and_power_never_violated(self, policy):
        cfg = small_cfg()
        _, tr = run_episode(cfg, 2, policy)
        assert min(tr.slots["z"]) >= -1e-9  # per-slot capacity
        assert max(tr.slots["power"]) <= cfg.power_budget + 1e-9

    @pytest.mark.parametrize("policy", ["sp", "star", "star-static", "stardis"])
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


#: the signaling policies whose plans read the downlink: the base delays
#: and stardis's allocation and artificial delays
LINK_POLICIES = ("star", "stardis")


def downlink_tables(cfg):
    """The star and stardis signal plans of a scenario."""
    return tuple(engine._signal_plan(cfg, pol) for pol in LINK_POLICIES)


#: a scenario in which each change of ``DOWNLINK_INPUTS`` changes a
#: signal plan: the budget curve falls in unequal steps and the 12 dB threshold
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
        plan.mean_snr.tolist(), plan.budgets.tolist(), plan.window_budgets.tolist(), plan.delays.tolist(),
        plan.delivered.tolist(), [table.policy.tolist() for table in plan.tables],
    )


def same_tables(x, y) -> bool:
    return list(map(plan_facts, x)) == list(map(plan_facts, y))


def _change(section=None, **values):
    """A function that changes ``values`` in one sub-config (or at the top
    level) of a scenario."""
    if section is None:
        return lambda c: dataclasses.replace(c, **values)
    return lambda c: dataclasses.replace(c, **{section: dataclasses.replace(getattr(c, section), **values)})


#: one-input changes of the scenario, each read by the signal plans
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
    """The seed-independent signal plans, with the downlink forecast each
    holds, are built once per (scenario, policy) and must leave every
    episode as it would be without the cache."""

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
        warm = [record(b, 2, pol) for pol in LINK_POLICIES]  # the cache holds a's plans too
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
        for plan in downlink_tables(cfg):
            assert isinstance(plan.tables, SlotTables)
            assert isinstance(plan.tables.distinct, tuple) and isinstance(plan.tables.beliefs, tuple)
            assert len(plan.mean_snr) == len(plan.tables) == len(plan.budgets) == len(plan.delays) == cfg.horizon
            assert len(plan.delivered) == cfg.horizon
            assert len(plan.window_budgets) == -(-cfg.horizon // cfg.window)
            with pytest.raises(dataclasses.FrozenInstanceError):
                plan.budgets = None
            tables = plan.tables
            for array in (plan.mean_snr, plan.budgets, plan.window_budgets, plan.delays, plan.delivered,
                          tables.index, tables.p_scan, tables.idle_gap, tables.has_mass):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = array[0]
        assert EpisodeRunner(cfg, 1, "stardis").mean_snr is engine._signal_plan(cfg, "stardis").mean_snr

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
        # one forecast per plan: star, star-static and the plan without
        # signaling, which fcfs and sp share
        for policy in POLICIES:
            run_episode(cfg, 4, policy)
        assert built == {"outage": 1, "forecast": 4}
        for policy in POLICIES:
            run_episode(cfg, 5, policy)
        assert built == {"outage": 1, "forecast": 4}
        # each new credibility is a stardis plan of its own; 0.2 is cfg's
        sweep(cfg, "persuasion.credibility", [0.01, 0.1, 0.2, 0.5], range(2), policies=("stardis",))
        assert built == {"outage": 4, "forecast": 7}

    def test_sweep_builds_each_plan_once(self):
        # seeds are the sweep's outer loop, so each seed cycles through all
        # 5 x 4 (credibility, plan) plans, fcfs and sp sharing the one
        # without signaling: a smaller cache rebuilds them all
        clear_engine_caches()
        sweep(small_cfg(horizon=100), "persuasion.credibility", [0.01, 0.05, 0.1, 0.2, 0.5], range(4), POLICIES)
        info = engine._signal_plan.cache_info()
        assert (info.misses, info.hits) == (20, 80)


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


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
@pytest.mark.parametrize("policy", ["sp", "star"])
def test_executed_slots_are_the_decisions(policy, workload, monkeypatch):
    """sp and the star family execute each slot's forced decision as
    decided: the schedule's z, power and usage total are the decisions',
    and each decision's usage and power are a fresh sum in decision
    order, the scan's demand and power first."""
    cfg = load_config(BENCH_SCENARIOS / f"{workload}.yaml")
    decisions = []
    schedule_slot = engine.GreedyPlanner.schedule_slot

    def recording(self, queue, t, forced_scan=None):
        dec = schedule_slot(self, queue, t, forced_scan)
        if forced_scan is not None:  # the execution path, not a window plan
            decisions.append(dec)
        return dec

    monkeypatch.setattr(engine.GreedyPlanner, "schedule_slot", recording)
    defender = engine.DefenderPass(cfg, 1, policy)
    schedule = defender.run()
    assert [dec.t for dec in decisions] == list(range(cfg.horizon))
    usage_sum = (0.0,) * len(cfg.resources)
    for dec in decisions:
        want_usage = cfg.scan.demand if dec.scan_on else (0.0,) * len(cfg.resources)
        want_power = cfg.scan.power_weight if dec.scan_on else 0.0
        for uid in dec.running:
            spec = defender.instances[uid].spec
            want_usage = tuple(u + d for u, d in zip(want_usage, spec.demand))
            want_power += spec.power_weight
        assert dec.usage == want_usage
        assert dec.power == want_power
        assert dec.z == 1.0 - max(dec.usage)
        assert schedule.z[dec.t] == dec.z
        assert schedule.power[dec.t] == dec.power
        assert schedule.scan_on[dec.t] == int(dec.scan_on)
        usage_sum = tuple(a + b for a, b in zip(usage_sum, dec.usage))
    assert schedule.usage_sum == usage_sum
    assert any(dec.scan_on and dec.running for dec in decisions)


#: a scenario in which each change of ``SCHEDULE_INPUTS`` changes the
#: defender's trajectory: a window twice the scan's length and a weak
#: detection reward
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
        for name in ("scan_on", "z", "power", "z_avg", "scan_freq"):
            assert isinstance(getattr(schedule, name), np.ndarray) and not getattr(schedule, name).flags.writeable
        assert isinstance(schedule.usage_sum, tuple)
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
        admissions = []

        def admitting(inst, t):
            state = admit(inst, t)
            admissions.append((inst.req, t, state))
            return state

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "admit", admitting)
            cold = record(cfg, seed, policy)  # the engine checks the accounting identity
        m = cold["metrics"]
        assert m["generated"] == m["completed"] + m["dropped"] + m["missed"] + m["residual"]
        # every generated instance is admitted, in its request slot
        assert len(admissions) == m["generated"]
        assert all(t == req and state is InstanceState.ADMITTED for req, t, state in admissions)
        assert record(cfg, seed, policy) == cold


def newest_arrivals(delays) -> tuple[int, ...]:
    """Brute force: the generation slot of each slot's newest arriving
    packet, or -1."""
    delays = delays.tolist()  # Python ints: the loop below runs h * h times
    h = len(delays)
    return tuple(max((s for s in range(h) if s + delays[s] == t), default=-1) for t in range(h))


class TestPlanDeliveries:
    """Each plan fixes which packet every slot receives: the newest of
    those its delays bring to that slot."""

    @pytest.mark.parametrize("scenario", ["default", "horizon-3000", "congested-dp"])
    def test_delivered_is_the_newest_arriving_packet(self, scenario):
        cfg = {
            "default": default_scenario,
            "horizon-3000": lambda: default_scenario(horizon=3000),
            "congested-dp": lambda: load_config(BENCH_SCENARIOS / "congested-dp.yaml"),
        }[scenario]()
        for policy in STAR_FAMILY:
            plan = engine._signal_plan(cfg, policy)
            assert plan.delivered.tolist() == list(newest_arrivals(plan.delays)), policy

    def test_some_default_stardis_slot_receives_two_packets(self):
        # where two packets arrive in one slot, the older one is never read
        delays = engine._signal_plan(default_scenario(), "stardis").delays
        arrivals = Counter(s + d for s, d in enumerate(delays))
        assert max(arrivals.values()) >= 2


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_random_stardis_plans_deliver_the_newest_packet(case):
    cfg, _ = case
    plan = engine._signal_plan(cfg, "stardis")
    assert plan.delivered.tolist() == list(newest_arrivals(plan.delays))


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


def assert_window_rows_carry_the_plan(cfg, seed):
    """A cold star episode's window rows hold what each window's
    ``plan_horizon`` returned: whether it scans, its ``z_avg`` bit for bit
    and the state quantized from the two."""
    plans = []

    def recording(*args, **kwargs):
        plans.append(plan_horizon(*args, **kwargs))
        return plans[-1]

    clear_engine_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "plan_horizon", recording)
        _, traces = run_episode(cfg, seed, "star")
    assert len(plans) == len(traces.windows)
    for row, plan in zip(traces.windows, plans):
        scans = bool(plan.scan_on.any())
        assert (row["start"], row["length"]) == (plan.start, plan.length)
        assert row["scan_planned"] == int(scans)
        assert row["z_avg_planned"].hex() == plan.z_avg.hex()
        assert row["state"] == quantize_state(scans, min(max(plan.z_avg, 0.0), 1.0), cfg.persuasion.z_bins)


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_benchmark_window_rows_carry_the_plan(workload):
    cfg = load_config(BENCH_SCENARIOS / f"{workload}.yaml")
    for seed in (1, 2, 3):
        assert_window_rows_carry_the_plan(cfg, seed)


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_random_window_rows_carry_the_plan(case):
    cfg, seed = case
    assume(cfg.horizon % cfg.window)  # a short last window
    if cfg.attacker_mode == "none":
        cfg = dataclasses.replace(cfg, attacker_mode="threshold")
    assert_window_rows_carry_the_plan(cfg, seed)


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
    rows = sweep(cfg, "persuasion.credibility", values, seeds)
    assert [(r["value"], r["policy"]) for r in rows] == [(v, p) for v in values for p in STAR_FAMILY]
    for row in rows:
        cfg_v = with_scenario_values(cfg, {"persuasion.credibility": row["value"]})
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
        cfg = head_of_line_scenario()
        runner = engine.DefenderPass(cfg, 0, "fcfs")
        live = EdfQueue()  # filled in uid order, as the pass fills it
        for inst in runner.arrivals_by_slot[0]:
            admit(inst, 0)
            live.add(inst)
        running, usage, _ = runner._fcfs_slot(live)
        ids = {i.spec.id for i in running}
        assert "hog" in ids and "hog2" not in ids
        assert "light" not in ids  # blocked behind hog2 despite idle fpga
        assert usage[1] == 0.0

    def test_sp_preempts_routine_for_scan(self, monkeypatch):
        # saturate the fpga with routine work; when the periodic scan
        # fires, fewer routine instances run: counted from each executed
        # slot decision, both the most and the mean routine instances in a
        # scan slot are below those in a slot without one
        cfg = small_cfg(sp_scan_period=30)
        decisions = []
        schedule_slot = engine.GreedyPlanner.schedule_slot

        def recording(self, queue, t, forced_scan=None):
            dec = schedule_slot(self, queue, t, forced_scan)
            decisions.append(dec)
            return dec

        monkeypatch.setattr(engine.GreedyPlanner, "schedule_slot", recording)
        defender = engine.DefenderPass(cfg, 7, "sp")
        schedule = defender.run()
        assert [dec.t for dec in decisions] == list(range(cfg.horizon))  # sp makes no plan
        routine = {True: [], False: []}
        for dec in decisions:
            ran = [defender.instances[uid].spec.id for uid in dec.running]
            routine[dec.scan_on].append(ran.count("routine"))
        assert [int(dec.scan_on) for dec in decisions] == list(schedule.scan_on)
        assert routine[True] and routine[False]
        assert max(routine[True]) < max(routine[False])
        assert np.mean(routine[True]) < np.mean(routine[False])

    @pytest.mark.parametrize("period,duration", [(3, 5), (4, 6), (5, 5), (20, 5)])
    def test_sp_scan_cadence_matches_the_stateful_rule(self, period, duration):
        # sp's rule as a loop with state: a block starts at a multiple of
        # the period once the last block has ended
        cfg = small_cfg(window=10, sp_scan_period=period,
                        scan={"demand": [0.15, 0.05], "power": 0.25, "duration": duration})
        want, until = [], 0
        for t in range(cfg.horizon):
            if t % period == 0 and t >= until:
                until = t + duration
            want.append(int(t < until))
        assert list(engine.DefenderPass(cfg, 3, "sp").run().scan_on) == want

    def test_empty_task_list_all_zero(self):
        cfg = default_scenario(horizon=40, tasks=[], attacker={"mode": "none"})
        m, tr = run_episode(cfg, 0, "fcfs")
        assert m.generated == 0
        assert all(z == 1.0 for z in tr.slots["z"])
        m2, _ = run_episode(cfg, 0, "sp")
        assert m2.generated == 0


@pytest.mark.parametrize("error", [OSError("no git"), subprocess.TimeoutExpired(["git"], 5)], ids=["no-git", "timeout"])
def test_build_id_falls_back_to_the_version(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(engine.subprocess, "run", failing)
    assert engine.build_id() == f"satdefsim-{satdefsim.__version__}"


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
        # the sweep's former short names are no scenario keys
        for key in ("nonsense", "credibility", "prior"):
            with pytest.raises(ValueError, match=f"the scenario holds no key '{key}'"):
                sweep(small_cfg(), key, [0.1], [0])

    @pytest.mark.parametrize("args,message", [
        (("nonsense", [], [0]), "at least one sweep value"),
        (("nonsense", [0.1], []), "at least one seed"),
        (("persuasion.credibility", [], [0]), "at least one sweep value"),
        (("persuasion.prior_scan", [0.3], []), "at least one seed"),
        (("persuasion.credibility", [0.1, -1.0], [0]), "credibility budget"),
        # the policies argument sets each episode's policy
        (("policy", ["fcfs"], [0]), "sweep key 'policy' would be ignored"),
        # keys the echo does not hold: read at load only, or kept under attacker
        (("power_scale", [2.0], [0]), "the scenario holds no key 'power_scale'"),
        (("persuasion.belief_threshold", [0.6], [0]), "no key 'persuasion.belief_threshold'"),
        (("tasks.0.arrival.interval", [4], [0]), "no key 'tasks.0.arrival.interval'"),  # routine is aperiodic
        (("tasks.2.arrival.rate", [0.1], [0]), "no key 'tasks.2.arrival.rate'"),
        (("window", [5, 3], [0]), "scan duration must fit inside the window"),
        # checked as a scenario file's values are
        (("persuasion.credibility", [0.1, True], [0]), "persuasion.credibility must be a number, got True"),
        (("persuasion.prior_scan", ["0.3"], [0]), "persuasion.prior_scan must be a number, got '0.3'"),
        (("window", [5.5], [0]), "window must be a whole number, got 5.5"),
    ], ids=["bad-param-no-values", "bad-param-no-seeds", "no-values", "no-seeds", "bad-value", "policy",
            "power_scale", "belief_threshold-under-persuasion", "unused-arrival-key", "no-such-task",
            "window-below-scan", "bool", "quoted-number", "fractional-int"])
    def test_sweep_arguments_rejected_before_any_episode(self, monkeypatch, args, message):
        def no_episode(*a, **kw):
            raise AssertionError("an episode ran before the sweep arguments were checked")

        monkeypatch.setattr(engine, "run_episode", no_episode)
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(small_cfg(), *args)

    def test_empty_sweep_policy_list_rejected(self):
        with pytest.raises(ValueError, match="empty policy list"):
            sweep(small_cfg(), "persuasion.credibility", [0.1], [0], policies=())

    @pytest.mark.parametrize("run", [
        lambda cfg: run_benchmark_suite(cfg, ["fcfs", "sp", "stra"], range(4)),
        lambda cfg: sweep(cfg, "persuasion.credibility", [0.1, 0.2], range(4), policies=("star", "stra")),
    ], ids=["suite", "sweep"])
    def test_unknown_policy_rejected_before_any_episode(self, monkeypatch, run):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the policy list was checked")

        monkeypatch.setattr(engine, "run_episode", no_episode)
        with pytest.raises(ValueError, match="unknown policy 'stra'"):
            run(small_cfg())

    @pytest.mark.parametrize("run,message", [
        (lambda cfg: run_benchmark_suite(cfg, ["fcfs", "star"], [1, 1]), "duplicate seed 1"),
        (lambda cfg: run_benchmark_suite(cfg, ["fcfs", "star", "star"], [1, 1]), "duplicate policy 'star'"),
        (lambda cfg: run_benchmark_suite(cfg, ["sp", "fcfs", "sp", "fcfs"], [2]), "duplicate policy 'sp', 'fcfs'"),
        (lambda cfg: sweep(cfg, "persuasion.credibility", [0.1], [0, 2, 0]), "duplicate seed 0"),
        (lambda cfg: sweep(cfg, "persuasion.credibility", [0.1], [3], policies=("star", "stardis", "star")),
         "duplicate policy 'star'"),
    ], ids=["suite-seed", "suite-policy", "suite-policies", "sweep-seed", "sweep-policy"])
    def test_duplicates_rejected_before_any_episode(self, monkeypatch, run, message):
        # a repeated seed would count its episode twice in every mean and std
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the seeds and policies were checked")

        monkeypatch.setattr(engine, "run_episode", no_episode)
        with pytest.raises(ValueError, match=re.escape(message)):
            run(small_cfg())

    def test_game_sweep_builds_each_game_once(self, monkeypatch):
        # seeds are the outer loop, so each seed cycles through all 17
        # games: a cache of 16 would rebuild them in every seed
        built = []
        build = engine.build_scan_game
        monkeypatch.setattr(engine, "build_scan_game", lambda *a, **kw: built.append(1) or build(*a, **kw))
        clear_engine_caches()
        priors = np.linspace(0.1, 0.9, 17).tolist()
        sweep(small_cfg(horizon=100), "persuasion.prior_scan", priors, range(3), policies=("star-static",))
        assert len(built) == 17

    def test_prior_sweep_runs(self):
        rows = sweep(small_cfg(horizon=100), "persuasion.prior_scan", [0.3, 0.7], [0], policies=("star",))
        assert len(rows) == 2
        assert {r["value"] for r in rows} == {0.3, 0.7}

    @pytest.mark.parametrize("key,values,read", [
        ("window", [5, 10], lambda c: c.window),
        ("tasks.0.arrival.rate", [0.1, 0.5], lambda c: c.tasks[0].arrival.rate),
        ("attacker.mode", ["none", "dp"], lambda c: c.attacker_mode),
    ], ids=["int", "list-indexed", "string"])
    def test_sweep_of_any_key_equals_episodes_of_its_configs(self, key, values, read):
        cfg = small_cfg(horizon=100)
        rows = sweep(cfg, key, values, [0, 1], policies=("stardis",))
        assert [(r["param"], r["value"]) for r in rows] == [(key, v) for v in values]
        for row in rows:
            cfg_v = with_scenario_values(cfg, {key: row["value"]})
            assert read(cfg_v) == row["value"]
            realized = [run_episode(cfg_v, s, "stardis")[0].attacker_realized for s in (0, 1)]
            assert row["attacker_realized_mean"] == float(np.mean(realized))
        # each value moves the episodes, so the key was set
        assert rows[0]["attacker_realized_mean"] != rows[1]["attacker_realized_mean"]


# One window of a scripted interaction: the channel state and the scan
# state of all its slots, its realized idle capacity and the signal
# delivered in each slot (none in an erased window).
Window = namedtuple("Window", "erased scan_true z_true signal", defaults=(None,))


def scripted_trace(windows, policy, game, params, threshold, window_len):
    """Drive the engine's telemetry pass (``intercept``) through scripted
    windows.  Delivery is immediate: each slot receives its window's
    signal (none where the window has none), so the belief's response to
    each forced channel state is isolated.  A row's ``utility`` is the
    slot's realized attack utility: its reward less the attack's cost at
    the intensity the slot opens with."""
    slots = [win for win in windows for _ in range(window_len)]
    tables = SlotTables([SignalTable(policy, game)] * len(slots), belief_entry(game.prior, game))
    seen = intercept(
        tables,
        np.array([-1 if win.signal is None else t for t, win in enumerate(slots)]),
        np.array([0 if win.signal is None else win.signal for win in slots]),
        [win.erased for win in slots], [win.scan_true for win in slots], [win.z_true for win in slots],
        window_len, params, threshold,
    )
    rows = []
    opened = 0.0  # the intensity a slot opens with
    for t, x_att in enumerate(seen.x_att):
        cost = params.base_cost * (1.0 + params.cost_scale * opened) if x_att else 0.0
        rows.append({
            "window": t // window_len,
            "belief_scan": seen.belief_scan[t],
            "x_att": x_att,
            "utility": seen.realized_reward[t] - cost,
        })
        opened = seen.intensity[t]
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
    """The interceptor's slot rules in ``intercept``, on scripted slots."""

    GAME = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=1)
    # signal 0 pools (scan probability 0.6), signal 1 reveals a vulnerable state
    POLICY = np.array([[2 / 3, 1 / 3], [1.0, 0.0]])
    PRIOR = belief_entry(GAME.prior, GAME)

    def run(self, delivered, signals, erased, scan_on=None, z=None, threshold=0.55, window=None, tables=None):
        """``intercept`` over ``len(delivered)`` slots of one table (no
        scans, idle capacity 0.2 and one window unless given)."""
        n = len(delivered)
        if tables is None:
            tables = SlotTables([SignalTable(self.POLICY, self.GAME)] * n, self.PRIOR)
        return tables, intercept(
            tables, np.array(delivered), np.array(signals), erased,
            [False] * n if scan_on is None else scan_on, [0.2] * n if z is None else z,
            window or n, AttackerParams(), threshold,
        )

    def test_received_signal_sets_the_belief(self):
        tables, seen = self.run([0, 1], [1, 0], [False, False])
        table = tables.distinct[0]
        assert seen.signal == ["1", "0"]
        assert seen.belief_scan[0] == 0.0
        assert seen.belief_scan[1] == table.posteriors[0][1] == pytest.approx(0.6)

    def test_erased_slot_resets_to_prior_and_drops_its_packets(self):
        # slot 1's packet is lost with its slot; slot 3 has none due
        tables, seen = self.run([0, 1, 2, -1], [0, 1, 0, 0], [False, True, False, True])
        pooled = tables.distinct[0].posteriors[0][1]
        assert seen.signal == ["0", "", "0", ""]
        assert seen.belief_scan == [pooled, self.PRIOR[1], pooled, self.PRIOR[1]]

    def test_slot_with_nothing_due_keeps_the_belief(self):
        tables, seen = self.run([0, -1, -1], [0, 1, 1], [False, False, False])
        assert seen.signal == ["0", "", ""]
        assert seen.belief_scan == [tables.distinct[0].posteriors[0][1]] * 3

    def test_attack_into_a_scan_is_blocked_and_still_pays(self):
        params = AttackerParams()
        # nothing received: prior scan probability 0.5 < 0.55, so attack
        _, seen = self.run([-1, -1], [0, 0], [False, False], scan_on=[True, False], window=1)
        assert seen.x_att == [1, 1] and seen.attack_blocked == [1, 0]
        assert (seen.attacks, seen.blocked) == (2, 1)
        assert seen.intensity[0] == params.memory
        # the second attack lands: no scan and intercepted telemetry
        reward = params.reward_weight * (1.0 - 0.2)
        assert seen.realized_reward == [0.0, reward]
        cost = params.base_cost * (1.0 + params.cost_scale * params.memory)
        assert seen.realized == (0.0 - params.base_cost) + (reward - cost)
        gap = params.reward_weight * self.PRIOR[2]
        assert seen.believed == (gap - params.base_cost) + (gap - cost)

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
        # two windows of 4 slots, one table each, both with POLICY
        first, second = SignalTable(self.POLICY, self.GAME), SignalTable(self.POLICY, self.GAME)
        tables = SlotTables([first] * 4 + [second] * 4, self.PRIOR)
        # slots 0-3 keep the prior (its gap: the value of 1, 2 and 3 slots
        # is built); slot 4 receives slot 0's signal 1 (a new gap: of 1, 2
        # and 3 slots); slot 5 an equal belief from the other table; slot 6
        # is erased and slot 7 keeps the prior
        self.run([-1, -1, -1, -1, 0, 5, -1, -1], [1, 0, 0, 0, 0, 1, 0, 0], [False] * 6 + [True, False],
                 threshold=None, window=4, tables=tables)
        assert len(builds) == 6
        assert [remaining for (_, remaining, _, _), _ in calls] == [4, 3, 2, 1, 4, 3, 2, 1]
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
        # a renamed key is named by its scenario path
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        del raw["tasks"][0]["deadline"]
        with pytest.raises(ConfigError, match=r"^missing required key 'tasks\.0\.deadline'$"):
            from_dict(raw)

    def test_duplicate_task_ids_rejected(self):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        raw["tasks"].append(json.loads(json.dumps(raw["tasks"][0])))
        with pytest.raises(ConfigError, match="duplicate task ids"):
            from_dict(raw)
        base = default_scenario()
        with pytest.raises(ConfigError, match="duplicate task ids"):
            dataclasses.replace(base, tasks=base.tasks + base.tasks[:1])

    @pytest.mark.parametrize("bad", [0, -2, 2.5, "6", True])
    def test_bad_subdivisions_rejected(self, bad):
        with pytest.raises(ConfigError, match="subdivisions"):
            default_scenario(persuasion={"subdivisions": bad})

    @pytest.mark.parametrize("ok", [None, 1, 60])
    def test_subdivisions_accepted(self, ok):
        assert default_scenario(persuasion={"subdivisions": ok}).persuasion.subdivisions == ok

    @pytest.mark.parametrize("section,key", [
        ("persuasion", "units_per_slot"),
        ("persuasion", "n_signals"),
        ("attacker", "dp_grid"),
        ("attacker", "exact_horizon"),
        ("channel", "series_truncation"),
        ("geometry", "tx_power_w"),
        ("geometry", "tx_gain_dbi"),
        ("geometry", "rx_gain_dbi"),
        ("geometry", "noise_w"),
        # retired top-level keys, at values they once took
        pytest.param(None, "scan_margin_rule", id="top-scan_margin_rule"),
        pytest.param(None, "sp_scan_rule", id="top-sp_scan_rule"),
    ])
    def test_unused_keys_rejected(self, section, key):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        if section is None:
            raw[key] = {"scan_margin_rule": "window", "sp_scan_rule": "periodic"}[key]
        else:
            target = raw["channel"]["geometry"] if section == "geometry" else raw[section]
            target[key] = 1.0
        with pytest.raises(ConfigError, match=rf"unknown keys in [\w.]+: \['{key}'\]"):
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
        ("persuasion.budget_points", 0, "budget_points"),
        ("persuasion.delay_snr_hi_db", float("nan"), "persuasion.delay_snr_hi_db"),
        # the pass edge is 1,500 km away: 5.0 ms of propagation
        ("persuasion.delay_max_ms", 4.0, "delay_max_ms 4.0 is below"),
    ])
    def test_non_finite_and_out_of_range_scalars_rejected(self, key, bad, message):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        set_scenario_value(raw, key, bad)
        with pytest.raises(ConfigError, match=message):
            from_dict(raw)

    #: the int fields among the cases below; the others are floats
    INT_KEYS = {"window", "horizon", "tasks.1.processing", "scan.duration", "persuasion.z_bins",
                "tasks.0.deadline", "tasks.0.arrival.interval", "channel.geometry.pass_slots",
                "persuasion.budget_points"}

    @pytest.mark.parametrize("key,bad", [
        # each loaded as another value: int() truncates, bool() is true for any non-empty string
        ("window", 5.9),
        ("horizon", 2000.7),
        ("tasks.1.processing", 8.9),
        ("scan.duration", 4.5),
        ("persuasion.z_bins", 2.9),
        ("window", True),
        ("tasks.1.firm_deadline", "false"),
        ("tasks.1.firm_deadline", 0),
        ("tasks.0.deadline", 9.5),
        ("tasks.0.arrival.interval", 7.5),
        ("channel.geometry.pass_slots", False),
        ("persuasion.budget_points", "7"),
        # float() takes a bool and a numeric string
        ("slot_ms", True),
        ("slot_ms", "50"),
        ("utility.load_penalty", True),
        ("power_scale", True),
        ("tasks.0.mean_demand", "2.5"),
        ("tasks.0.power", "0.05"),
        ("tasks.1.demand.2", True),
        ("tasks.1.arrival.rate", "0.2"),
        ("scan.power", "0.25"),
        ("scan.demand.0", True),
        ("scan.demand.1", "0.05"),
        ("channel.snr_threshold_db", True),
        ("channel.proc_delay_ms", "2.0"),
        ("channel.fading.m", "5.0"),
        ("attacker.belief_threshold", "0.6"),
        ("persuasion.credibility", False),
    ])
    def test_casts_that_change_a_value_rejected(self, key, bad):
        raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
        set_scenario_value(raw, key, bad)
        if key.endswith("firm_deadline"):
            expected = "true or false"
        elif key not in self.INT_KEYS:
            expected = "a number"
        else:
            expected = "a whole number"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be {expected}, got {re.escape(repr(bad))}$"):
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

    @pytest.mark.parametrize("source", [
        "default_scenario", "configs/default.yaml", "suite-default.yaml", "congested-dp.yaml", "power_scale",
    ])
    def test_config_block_round_trips(self, source):
        # the block episode.json echoes under "config" loads back as the same scenario
        if source == "default_scenario":
            cfg = default_scenario()
        elif source == "power_scale":  # the echo writes the relay's scaled power, and no power_scale
            raw = default_scenario().to_jsonable()
            del raw["tasks"][1]["power"]
            cfg = from_dict({**raw, "power_scale": 3.0})
            assert cfg.tasks[1].power_weight == pytest.approx(3.0 * 0.15)
        elif source == "configs/default.yaml":
            cfg = load_config(Path(__file__).resolve().parent.parent / source)
        else:
            cfg = load_config(BENCH_SCENARIOS / source)
        assert from_dict(json.loads(json.dumps(cfg.to_jsonable()))) == cfg

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
        # a whole float loads as an int, also where the loader casts the key itself
        raw["persuasion"]["budget_points"], raw["horizon"], raw["tasks"][0]["deadline"] = 7.0, 300.0, 9.0
        cfg = from_dict(raw)
        assert (cfg.persuasion.budget_points, cfg.horizon, cfg.tasks[0].relative_deadline) == (7, 300, 9)
        assert all(type(v) is int for v in (cfg.persuasion.budget_points, cfg.horizon, cfg.tasks[0].relative_deadline))
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
    "power_scale": 2.0,  # scales only a task without a power
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
    "channel": {
        "fading": {"b0": 0.2, "m": 5.0, "omega": 1.0},
        "snr_threshold_db": 4.0,
        "proc_delay_ms": 2.0,
        "geometry": {"d_min_km": 600.0, "d_max_km": 1500.0, "pass_slots": 250,
                     "peak_snr_db": 11.0, "path_loss_exp": 2.2},
    },
    "attacker": {"mode": "dp", "reward_weight": 9.0, "base_cost": 0.2, "cost_scale": 0.4,
                 "memory": 0.2, "belief_threshold": 0.6},
    "persuasion": {"z_bins": 3, "credibility": 0.3, "prior_scan": 0.4,
                   "subdivisions": 20, "budget_points": 7, "delay_max_ms": 300.0,
                   "delay_snr_lo_db": 1.0, "delay_snr_hi_db": 12.0},
    "policy": "stardis",
    "sp_scan_period": 25,
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


# ---------------------------------------------------------------------------
# Knob liveness: every scenario key moves some episode
# ---------------------------------------------------------------------------

def scenario_keys() -> set[str]:
    """Every scenario key, by its config field path, with the task index
    written as ``*``; ``power_scale`` is read at load only."""
    leaves = config_leaves(from_dict(NON_DEFAULT_SCENARIO))
    keys = {re.sub(r"^tasks\.\d+\.", "tasks.*.", k) for k in leaves}
    return keys - {"persuasion.units_per_slot"} | {"power_scale"}


def liveness_outputs(*changes) -> tuple:
    """Metrics (without their labels), slot columns and window rows of a
    seed-1 episode of ``NON_DEFAULT_SCENARIO`` cut to 120 slots and a
    4-step grid, with each change (scenario path -> value) applied."""
    raw = json.loads(json.dumps(NON_DEFAULT_SCENARIO))
    raw["horizon"] = 120
    raw["channel"]["geometry"]["pass_slots"] = 100
    raw["persuasion"]["subdivisions"] = 4
    for change in changes:
        for path, value in change.items():
            set_scenario_value(raw, path, value)
    metrics, traces = run_episode(from_dict(raw), 1)
    values = {k: v for k, v in dataclasses.asdict(metrics).items() if k not in ("policy", "seed")}
    return values, traces.slots, traces.windows


#: (key, the scenario as changes to the base, a change of the key that
#: moves its episode).  The base runs stardis against the dp interceptor;
#: bulk (tasks.1) is the aperiodic low-priority task, beacon (tasks.0)
#: the periodic high-priority one.
LIVENESS_CASES = [
    ("horizon", {}, {"horizon": 90}),
    ("window", {"policy": "star"}, {"window": 5}),
    ("slot_ms", {}, {"slot_ms": 2.0}),
    ("resources", {}, {"resources": ["cpu", "fpga", "npu"]}),  # the names label the utilization metrics
    # ids order the per-spec arrival draws: two aperiodic tasks swap turns
    ("tasks.*.id", {"tasks.0.arrival": {"kind": "aperiodic", "rate": 0.3}}, {"tasks.0.id": "zulu"}),
    ("tasks.*.nature", {"policy": "star"}, {"tasks.1.nature": "mission"}),  # gives bulk a quota
    ("tasks.*.priority", {"policy": "star"}, {"tasks.1.priority": "high"}),
    ("tasks.*.arrival.kind", {}, {"tasks.1.arrival": {"kind": "periodic", "interval": 5}}),
    ("tasks.*.arrival.interval", {}, {"tasks.0.arrival.interval": 5}),
    ("tasks.*.arrival.rate", {}, {"tasks.1.arrival.rate": 0.5}),
    ("tasks.*.demand", {}, {"tasks.1.demand": [0.3, 0.05, 0.5]}),
    ("tasks.*.power_weight", {}, {"tasks.1.power": 0.5}),
    ("tasks.*.processing", {}, {"tasks.1.processing": 6}),
    # deadlines bind only on an overloaded queue
    ("tasks.*.relative_deadline", {"policy": "fcfs", "tasks.1.arrival.rate": 1.5}, {"tasks.1.deadline": 6}),
    ("tasks.*.firm_deadline", {"policy": "fcfs", "tasks.1.arrival.rate": 1.5}, {"tasks.1.firm_deadline": True}),
    # the quota's size matters where a scan can start after a window's first slot
    ("tasks.*.mean_demand",
     {"policy": "star", "window": 10, "scan.duration": 4, "tasks.1.nature": "mission", "tasks.1.arrival.rate": 1.5},
     {"tasks.1.mean_demand": 0.5}),
    ("scan.demand", {}, {"scan.demand": [0.3, 0.1, 0.2]}),
    ("scan.duration", {}, {"scan.duration": 2}),
    ("scan.power_weight", {}, {"scan.power": 0.7}),
    ("utility.detect_reward", {}, {"utility.detect_reward": 2.0}),
    ("utility.scan_cost", {}, {"utility.scan_cost": 0.1}),
    ("utility.load_penalty", {}, {"utility.load_penalty": 0.5}),
    ("utility.steepness", {}, {"utility.steepness": 0.9}),
    ("utility.midpoint", {}, {"utility.midpoint": 0.6}),
    ("utility.ceiling", {}, {"utility.ceiling": 0.5}),
    ("power_budget", {}, {"power_budget": 0.6}),
    ("power_scale", {"tasks.1.power": None}, {"power_scale": 3.0}),  # scales a task without a power
    ("channel.b0", {}, {"channel.fading.b0": 0.1}),
    ("channel.m", {}, {"channel.fading.m": 2.0}),
    ("channel.omega", {}, {"channel.fading.omega": 0.5}),
    ("channel.snr_threshold_db", {}, {"channel.snr_threshold_db": 8.0}),
    ("geometry.d_min_km", {}, {"channel.geometry.d_min_km": 500.0}),
    ("geometry.d_max_km", {}, {"channel.geometry.d_max_km": 1800.0}),
    ("geometry.pass_slots", {}, {"channel.geometry.pass_slots": 80}),
    ("geometry.peak_snr_db", {}, {"channel.geometry.peak_snr_db": 14.0}),
    ("geometry.path_loss_exp", {}, {"channel.geometry.path_loss_exp": 3.0}),
    ("proc_delay_ms", {}, {"channel.proc_delay_ms": 60.0}),
    ("attacker.reward_weight", {}, {"attacker.reward_weight": 2.0}),
    ("attacker.base_cost", {}, {"attacker.base_cost": 1.0}),
    ("attacker.cost_scale", {}, {"attacker.cost_scale": 2.0}),
    ("attacker.memory", {}, {"attacker.memory": 0.8}),
    ("attacker_mode", {}, {"attacker.mode": "threshold"}),
    ("persuasion.z_bins", {}, {"persuasion.z_bins": 2}),
    ("persuasion.credibility", {}, {"persuasion.credibility": 0.05}),
    ("persuasion.prior_scan", {}, {"persuasion.prior_scan": 0.7}),
    # the posteriors must fall on both sides of the threshold
    ("persuasion.belief_threshold",
     {"attacker.mode": "threshold", "persuasion.prior_scan": 0.6}, {"attacker.belief_threshold": 0.8}),
    ("persuasion.subdivisions", {}, {"persuasion.subdivisions": 2}),
    ("persuasion.budget_points", {}, {"persuasion.budget_points": 3}),
    ("persuasion.delay_max_ms", {}, {"persuasion.delay_max_ms": 100.0}),
    ("persuasion.delay_snr_lo_db", {}, {"persuasion.delay_snr_lo_db": 8.0}),
    ("persuasion.delay_snr_hi_db", {}, {"persuasion.delay_snr_hi_db": 9.0}),
    ("policy", {}, {"policy": "star"}),
    ("sp_scan_period", {"policy": "sp"}, {"sp_scan_period": 10}),
]


def test_every_scenario_key_has_a_liveness_case():
    assert {key for key, _, _ in LIVENESS_CASES} == scenario_keys()


@pytest.mark.parametrize("key,scenario,change", [pytest.param(*case, id=case[0]) for case in LIVENESS_CASES] + [
    pytest.param(
        "tasks.*.mean_demand",
        {"policy": "star", "window": 10, "scan.duration": 10, "tasks.1.nature": "mission", "tasks.1.arrival.rate": 1.5},
        {"tasks.1.mean_demand": 0.5},
        id="tasks.*.mean_demand-scan-fills-window",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: with scan.duration == window the quota is checked only at a window's "
            "first slot, where every positive target is behind, so its size cannot move an episode"
        )),
    ),
])
def test_scenario_key_moves_an_episode(key, scenario, change):
    base = liveness_outputs(scenario)
    # values, compared after a second run: a NaN would pass for a change
    assert liveness_outputs(scenario) == base
    assert liveness_outputs(scenario, change) != base


def test_sp_scan_preempts_routine_work():
    from satdefsim.scheduler import EdfQueue, GreedyPlanner, UtilityParams
    from conftest import make_instance

    cfg = default_scenario()
    sched = cfg.scheduler_config()
    queue = EdfQueue(
        make_instance(uid=k, tid="routine", demand=(0.05, 0.15), power=0.13,
                      processing=18, deadline=50)
        for k in range(8)
    )
    with_scan = GreedyPlanner(UtilityParams(), sched, 0, 5).schedule_slot(queue, 0, forced_scan=True)
    without = GreedyPlanner(UtilityParams(), sched, 0, 5).schedule_slot(queue, 0, forced_scan=False)
    assert len(with_scan.running) < len(without.running)


def test_credibility_sweep_attacker_monotone():
    # end-to-end consequence of solver monotonicity, seed-paired episodes
    cfg = default_scenario()
    rows = sweep(cfg, "persuasion.credibility", [0.01, 0.1, 0.2, 0.5], range(8), policies=("stardis",))
    means = [r["attacker_realized_mean"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_stardis_dominates_star_at_every_budget():
    # seed-paired sign comparison at each budget in the sweep range; the
    # seeds are the outer loop, so each seed's defender schedule is built once
    from scipy.stats import binomtest

    cfg = default_scenario()
    budgets = (0.01, 0.1, 0.2, 0.5)
    cfgs = [with_scenario_values(cfg, {"persuasion.credibility": c}) for c in budgets]
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
