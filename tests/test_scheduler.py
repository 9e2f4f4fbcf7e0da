import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satdefsim.scheduler import (
    GreedyPlanner,
    InfeasibleScheduleError,
    InstanceTooLargeError,
    ScanTask,
    SchedulerConfig,
    UtilityParams,
    check_plan,
    detection_performance,
    exact_schedule,
    plan_horizon,
    slot_utility,
)
from satdefsim.workload import Arrival, Nature, Priority, TaskInstance, TaskSpec

from conftest import make_instance, make_spec, micro_instance

UTIL = UtilityParams()
SCAN = ScanTask(demand=np.array([0.15, 0.05]), power_weight=0.1, duration=5)
CFG = SchedulerConfig(scan=SCAN)


class TestDetectionCurve:
    def test_midpoint(self):
        assert detection_performance(0.1, 5, UTIL) == pytest.approx(0.5)  # f*d_s = theta

    def test_saturation(self):
        assert detection_performance(1.0, 1000, UTIL) == pytest.approx(1.0, abs=1e-9)

    def test_table_point(self):
        y = detection_performance(0.2, 5, UTIL)
        assert y == pytest.approx(1.0 / (1.0 + math.exp(-0.25)), abs=1e-12)
        assert y == pytest.approx(0.5622, abs=1e-4)

    def test_strictly_increasing_in_effort(self):
        ys = [detection_performance(f, 5, UTIL) for f in np.linspace(0, 1, 21)]
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestSlotUtility:
    def test_full_idle_no_penalty(self):
        y = 0.7
        assert slot_utility(y, False, 1.0, UTIL) == pytest.approx(10 * y * y)

    def test_hand_example(self):
        assert slot_utility(0.5, True, 0.65, UTIL) == pytest.approx(1.825)

    def test_zero_detection(self):
        assert slot_utility(0.0, True, 0.3, UTIL) == pytest.approx(-0.5)

    def test_non_increasing_in_load(self):
        us = [slot_utility(0.6, True, z, UTIL) for z in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(us, us[1:]))


class TestGreedySlot:
    def test_empty_queue_scan_activates(self):
        dec = GreedyPlanner(UTIL, CFG, 0, SCAN.duration).schedule_slot([], 0)
        assert dec.scan_on and dec.running == []
        assert dec.z == pytest.approx(1.0 - 0.15)

    def test_scan_disabled(self):
        cfg = SchedulerConfig(scan=SCAN, scan_enabled=False)
        dec = GreedyPlanner(UTIL, cfg, 0, SCAN.duration).schedule_slot([], 0)
        assert not dec.scan_on and dec.z == 1.0

    def test_relay_first_routine_deferred(self):
        # firm-deadline relay plus routine work exceeding capacity: the
        # relay runs, excess routine waits
        relay = make_instance(uid=0, tid="relay", priority=Priority.HIGH,
                              demand=(0.20, 0.10), processing=2, deadline=2, firm=True)
        routines = [
            make_instance(uid=k + 1, tid="routine", demand=(0.05, 0.15), processing=4, deadline=12)
            for k in range(7)
        ]
        planner = GreedyPlanner(UTIL, SchedulerConfig(scan=SCAN, scan_enabled=False), 0, 5)
        dec = planner.schedule_slot([relay] + routines, 0)
        assert relay.uid in dec.running
        # FPGA: 0.10 + n*0.15 <= 1 -> at most 6 routines
        assert len(dec.running) == 7

    def test_scan_midflight_with_arriving_high_priority(self):
        planner = GreedyPlanner(UTIL, CFG, 0, 10)
        dec0 = planner.schedule_slot([], 0)
        assert dec0.scan_on
        relay = make_instance(uid=0, tid="relay", priority=Priority.HIGH,
                              demand=(0.20, 0.10), processing=2, deadline=2, firm=True)
        dec1 = planner.schedule_slot([relay], 1)
        assert dec1.scan_on and relay.uid in dec1.running
        assert dec1.z == pytest.approx(1.0 - 0.35)

    def test_oversized_high_priority_is_infeasible_event(self):
        big = make_instance(uid=0, tid="big", priority=Priority.HIGH,
                            demand=(0.9, 0.9), processing=1, deadline=1, firm=True,
                            power=2.0)
        cfg = SchedulerConfig(scan=SCAN, power_budget=1.0, scan_enabled=False)
        planner = GreedyPlanner(UTIL, cfg, 0, 5)
        dec = planner.schedule_slot([big], 0)
        assert big.uid not in dec.running
        assert any(kind == "infeasible-slot" for _, kind, _ in dec.events)


class TestPlanHorizon:
    def test_no_arrivals_no_scan(self):
        cfg = SchedulerConfig(scan=SCAN, scan_enabled=False)
        plan = plan_horizon([], 0, 20, UTIL, cfg, specs=[], project_arrivals=False)
        assert np.all(plan.z == 1.0)
        assert plan.scan_freq == 0.0

    def test_window_equal_to_scan_duration(self):
        plan = plan_horizon([], 0, SCAN.duration, UTIL, CFG, specs=[], project_arrivals=False)
        assert plan.scan_freq == 1.0
        assert plan.has_scan

    def test_deterministic(self):
        w, cfg, insts, _ = micro_instance(np.random.default_rng(5))
        p1 = plan_horizon(copy.deepcopy(insts), 0, w, UTIL, cfg, project_arrivals=False)
        p2 = plan_horizon(copy.deepcopy(insts), 0, w, UTIL, cfg, project_arrivals=False)
        assert np.array_equal(p1.scan_on, p2.scan_on)
        assert p1.running == p2.running
        assert p1.objective == p2.objective

    def test_benchmark_workload_plan_is_clean(self):
        from satdefsim.config import default_scenario
        from satdefsim.workload import generate_arrivals

        cfg = default_scenario(horizon=100, window=100)
        insts = generate_arrivals(list(cfg.tasks), 100, seed=3)
        plan = plan_horizon(insts, 0, 100, UTIL, cfg.scheduler_config(),
                            specs=cfg.tasks, stability_targets=cfg.stability_targets(),
                            project_arrivals=False)
        violations = check_plan(plan, {i.uid: i for i in insts}, cfg.scheduler_config(),
                                cfg.stability_targets())
        assert violations == []

    def test_plan_json_roundtrip(self):
        import json

        w, cfg, insts, _ = micro_instance(np.random.default_rng(8))
        plan = plan_horizon(insts, 0, w, UTIL, cfg, project_arrivals=False)
        doc = json.loads(json.dumps(plan.to_jsonable()))
        assert doc["scan_on"] == plan.scan_on.tolist()
        assert doc["running"] == plan.running
        assert doc["objective"] == pytest.approx(plan.objective)

    def test_projected_arrivals_cover_periodic(self):
        spec = make_spec(tid="p", arrival=Arrival(kind="periodic", interval=10),
                         priority=Priority.HIGH, demand=(0.2, 0.1), processing=2,
                         deadline=9, firm=True)
        plan = plan_horizon([], 0, 30, UTIL, CFG, specs=[spec])
        used_slots = [k for k, uids in enumerate(plan.running) if uids]
        assert used_slots[0] == 0 and any(k >= 10 for k in used_slots)


class TestChecker:
    def test_clean_plans_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w, cfg, insts, targets = micro_instance(rng, max_tasks=3, with_quota=True)
            snapshot = {i.uid: copy.deepcopy(i) for i in insts}
            plan = plan_horizon(copy.deepcopy(insts), 0, w, UTIL, cfg,
                                stability_targets=targets, project_arrivals=False)
            assert check_plan(plan, snapshot, cfg, targets) == []

    def test_flags_capacity_violation(self):
        inst = make_instance(uid=0, demand=(0.7, 0.7), processing=2, deadline=8)
        plan = plan_horizon([copy.deepcopy(inst)], 0, 4, UTIL,
                            SchedulerConfig(scan=SCAN, scan_enabled=False),
                            project_arrivals=False)
        plan.running[0] = [0, 0]  # forge a double allocation
        bad = check_plan(plan, {0: make_instance(uid=0, demand=(0.7, 0.7), processing=2, deadline=8)},
                         SchedulerConfig(scan=SCAN, scan_enabled=False))
        assert any("capacity" in v for v in bad)

    def test_flags_broken_scan_block(self):
        plan = plan_horizon([], 0, 6, UTIL, CFG, specs=[], project_arrivals=False)
        plan.scan_on = np.array([1, 1, 0, 0, 0, 0])  # 2-slot fragment, duration 5
        bad = check_plan(plan, {}, CFG)
        assert any("scan run" in v for v in bad)

    def test_flags_wasted_slack_under_quota(self):
        spec = make_spec(tid="q", demand=(0.1, 0.1), processing=6, deadline=12)
        inst = TaskInstance(uid=0, spec=spec, req=0, start_after=0)
        cfg = SchedulerConfig(scan=SCAN, scan_enabled=False)
        plan = plan_horizon([copy.deepcopy(inst)], 0, 6, UTIL, cfg, project_arrivals=False)
        plan.running = [[] for _ in range(6)]  # forge idleness
        bad = check_plan(plan, {0: inst}, cfg, {"q": 0.5})
        assert any("stability" in v for v in bad)


class TestExactOracle:
    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w, cfg, insts, _ = micro_instance(rng)
            res = exact_schedule(copy.deepcopy(insts), w, UTIL, cfg)
            plan = plan_horizon(copy.deepcopy(insts), 0, w, UTIL, cfg, project_arrivals=False)
            assert plan.objective <= res.objective + 1e-9

    def test_empty_instance_packs_scans(self):
        # positive net gain for every extra block: the oracle fills all
        # block-aligned slots; verified against direct enumeration of the
        # block-count levels
        scan = ScanTask(demand=np.array([0.15, 0.05]), power_weight=0.1, duration=3)
        cfg = SchedulerConfig(scan=scan)
        w = 9
        res = exact_schedule([], w, UTIL, cfg)
        best = None
        for blocks in range(0, w // 3 + 1):
            f = blocks * 3 / w
            y = detection_performance(f, 3, UTIL)
            z_pen = blocks * 3 * float(np.max(scan.demand))
            obj = w * 10 * y * y - 0.5 * blocks * 3 - 2.0 * y * y * z_pen
            if best is None or obj > best[0]:
                best = (obj, blocks)
        assert res.scan_on.sum() == best[1] * 3
        assert res.objective == pytest.approx(best[0], abs=1e-9)

    def test_unsatisfiable_quota_is_infeasible(self):
        inst = make_instance(uid=0, processing=3, deadline=10)
        with pytest.raises(InfeasibleScheduleError):
            exact_schedule([inst], 6, UTIL, CFG, stability_targets={"task": 1.5})

    def test_oversized_space_rejected(self):
        insts = [make_instance(uid=k, tid=f"t{k}", processing=6, deadline=12) for k in range(6)]
        with pytest.raises(InstanceTooLargeError):
            exact_schedule(insts, 12, UTIL, CFG, max_space=1 << 10)

    def test_oracle_respects_firm_deadlines(self):
        inst = make_instance(uid=0, priority=Priority.HIGH, demand=(0.3, 0.3),
                             processing=2, deadline=2, firm=True)
        res = exact_schedule([copy.deepcopy(inst)], 8,
                             UTIL, SchedulerConfig(scan=SCAN, scan_enabled=False))
        pat = res.activations[0]
        assert pat[3:].sum() == 0  # nothing past the absolute deadline


@st.composite
def random_window(draw):
    """A random window on 1-3 resource types: scan, power budget, instances."""
    n_res = draw(st.integers(1, 3))
    w = draw(st.integers(2, 10))
    frac = st.floats(0.0, 0.6, allow_nan=False)
    scan = ScanTask(
        demand=np.array(draw(st.lists(frac, min_size=n_res, max_size=n_res))),
        power_weight=draw(st.floats(0.0, 0.6)),
        duration=draw(st.integers(1, w)),
    )
    cfg = SchedulerConfig(scan=scan, power_budget=draw(st.floats(0.2, 1.5)),
                          scan_enabled=draw(st.booleans()))
    insts = []
    for uid in range(draw(st.integers(0, 8))):
        processing = draw(st.integers(1, 4))
        high = draw(st.booleans())
        spec = TaskSpec(
            id=f"t{uid}",
            nature=Nature.MISSION,
            priority=Priority.HIGH if high else Priority.LOW,
            arrival=Arrival(kind="aperiodic", rate=0.1),
            demand=np.array(draw(st.lists(frac, min_size=n_res, max_size=n_res))),
            power_weight=draw(st.floats(0.0, 0.6)),
            processing=processing,
            relative_deadline=draw(st.integers(processing, w + 3)),
            firm_deadline=high and draw(st.booleans()),
        )
        req = draw(st.integers(0, w - 1))
        insts.append(TaskInstance(uid=uid, spec=spec, req=req, start_after=req))
    targets = {
        i.spec.id: draw(st.floats(0.05, 0.5))
        for i in insts if i.spec.priority == Priority.LOW and draw(st.booleans())
    }
    return w, cfg, insts, targets


class TestScalarPathProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_window())
    def test_plans_respect_capacity_and_power(self, window):
        w, cfg, insts, targets = window
        snapshot = {i.uid: copy.deepcopy(i) for i in insts}
        plan = plan_horizon(insts, 0, w, UTIL, cfg, stability_targets=targets, project_arrivals=False)
        violations = check_plan(plan, snapshot, cfg, targets)
        assert [v for v in violations if "stability" not in v] == []

    @settings(max_examples=150, deadline=None)
    @given(random_window())
    def test_decision_z_is_min_idle_capacity(self, window):
        w, cfg, insts, targets = window
        specs = {i.uid: i.spec for i in insts}
        plan = plan_horizon(insts, 0, w, UTIL, cfg, stability_targets=targets, project_arrivals=False)
        for k in range(w):
            usage = np.zeros(len(cfg.scan.demand))
            if plan.scan_on[k]:
                usage += cfg.scan.demand
            for uid in plan.running[k]:
                usage += specs[uid].demand
            assert plan.z[k] == pytest.approx(float(np.min(1.0 - usage)), abs=1e-12)
