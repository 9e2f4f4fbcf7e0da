"""Slot-solver oracle: a frozen reference copy of the greedy slot solver.

``ReferencePlanner`` keeps ``schedule_slot``, ``_fill_low`` and
``_quota_displaced`` exactly as they were before the solver moved onto
plain locals (enum members bound at module level, ``try_fit`` inlined),
with ``try_fit`` copied alongside.  On random queues the live solver must
make the same decision (running uids, scan state, idle capacity, events,
compared bit for bit) and leave the planner in the same state, slot after
slot through a window.  Do not edit the reference to make a change pass:
a change of decisions is a change of results.
"""
from __future__ import annotations

import dataclasses
from operator import add, attrgetter, sub

import numpy as np
import pytest

from satdefsim.scheduler import (
    GreedyPlanner,
    ScanTask,
    SchedulerConfig,
    SlotDecision,
    UtilityParams,
)
from satdefsim.workload import Arrival, Nature, Priority, TaskInstance, TaskSpec

_EPS = 1e-9
_CAP = 1.0 + _EPS
_EDF_KEY = attrgetter("deadline", "uid")


def _ref_try_fit(usage, power, demand, w, budget):
    new = tuple(map(add, usage, demand))
    return new if max(new) <= _CAP and power + w <= budget + _EPS else None


class ReferencePlanner(GreedyPlanner):
    """The slot solver as it stood before the plain-locals rewrite."""

    def _fill_low(self, low, usage, power):
        chosen = []
        counts: dict[str, int] = {}
        budget = self.config.power_budget
        rejected: set[int] = set()
        for inst in low:
            spec = inst.spec
            if id(spec) in rejected:
                continue
            new = _ref_try_fit(usage, power, spec.demand, spec.power_weight, budget)
            if new is None:
                rejected.add(id(spec))
                continue
            usage = new
            power += spec.power_weight
            chosen.append(inst)
            counts[spec.id] = counts.get(spec.id, 0) + 1
        return chosen, usage, power, counts

    def _quota_displaced(self, t, low, usage, power):
        behind = set()
        elapsed = t - self.window_start + 1
        for spec_id, frac in self.stability_targets.items():
            if frac <= 0:
                continue
            if self.served_in_window.get(spec_id, 0) + _EPS < frac * elapsed:
                behind.add(spec_id)
        if not behind:
            return False, None
        scan = self.config.scan
        fill_scan = self._fill_low(low, tuple(map(add, usage, scan.demand)), power + scan.power_weight)
        fill_idle = self._fill_low(low, usage, power)
        with_scan, without = fill_scan[3], fill_idle[3]
        if any(with_scan.get(s, 0) < without.get(s, 0) for s in behind):
            return True, fill_idle
        return False, fill_scan

    def schedule_slot(self, queue, t, forced_scan=None):
        cfg = self.config
        scan = cfg.scan
        scan_d = scan.demand
        budget = cfg.power_budget
        usage = (0.0,) * len(scan_d)
        power = 0.0
        events = []
        chosen = []

        high = []
        low = []
        for inst in sorted(queue, key=_EDF_KEY):
            if inst.spec.priority == Priority.HIGH:
                high.append(inst)
            elif inst.spec.priority == Priority.LOW:
                low.append(inst)

        if forced_scan is not None:
            scan_on = bool(forced_scan)
        else:
            scan_on = t < self.scan_active_until
        if scan_on:
            usage = tuple(map(add, usage, scan_d))
            power += scan.power_weight

        for inst in high:
            spec = inst.spec
            new = _ref_try_fit(usage, power, spec.demand, spec.power_weight, budget)
            if new is not None:
                usage = new
                power += spec.power_weight
                chosen.append(inst)
            elif scan_on and _ref_try_fit(
                tuple(map(sub, usage, scan_d)), power - scan.power_weight,
                spec.demand, spec.power_weight, budget,
            ) is not None:
                events.append((t, "deferred-high-priority", spec.id))
            else:
                events.append((t, "infeasible-slot", spec.id))

        z_now = 1.0 - max(usage)

        fill = None
        if (
            forced_scan is None
            and not scan_on
            and t + scan.duration <= self.window_end
            and z_now >= max(scan_d) - _EPS
            and power + scan.power_weight <= budget + _EPS
        ):
            z_scan = min(1.0 - u - s for u, s in zip(usage, scan_d))
            if self._scan_margin(z_now, z_scan) > 0:
                displaced, fill = self._quota_displaced(t, low, usage, power)
                if not displaced:
                    scan_on = True
                    usage = tuple(map(add, usage, scan_d))
                    power += scan.power_weight
                    self.scan_active_until = t + scan.duration
                    self.scan_slots_committed += scan.duration

        if fill is None:
            fill = self._fill_low(low, usage, power)
        low_chosen, usage, power, counts = fill
        for spec_id, c in counts.items():
            self.served_in_window[spec_id] = self.served_in_window.get(spec_id, 0) + c
        for inst in chosen:
            if inst.spec.id in self.stability_targets:
                self.served_in_window[inst.spec.id] = self.served_in_window.get(inst.spec.id, 0) + 1
        chosen.extend(low_chosen)

        z = 1.0 - max(usage)
        return SlotDecision(t=t, running=[i.uid for i in chosen], scan_on=bool(scan_on), z=z, events=events)


def _planner_state(p: GreedyPlanner):
    return (p.scan_slots_committed, p.scan_active_until, dict(p.served_in_window))


def _random_specs(rng, n_res):
    specs = []
    n_low, n_high = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    for j, priority in enumerate([Priority.LOW] * n_low + [Priority.HIGH] * n_high):
        processing = int(rng.integers(1, 6))
        specs.append(TaskSpec(
            id=f"{priority.value}{j}",
            nature=Nature.MISSION,
            priority=priority,
            arrival=Arrival(kind="aperiodic", rate=0.2),
            demand=rng.uniform(0.0, 0.5, n_res).round(2),
            power_weight=round(float(rng.uniform(0.0, 0.4)), 2),
            processing=processing,
            relative_deadline=processing + int(rng.integers(0, 10)),
        ))
    return specs


def _random_case(rng):
    n_res = int(rng.integers(1, 4))
    specs = _random_specs(rng, n_res)
    scan = ScanTask(
        demand=rng.uniform(0.0, 0.4, n_res).round(2),
        power_weight=round(float(rng.uniform(0.05, 0.4)), 2),
        duration=int(rng.integers(1, 4)),
    )
    budget = round(float(rng.uniform(0.5, 1.5)), 2)
    if rng.random() >= 0.85:  # a scan over the power budget never starts
        scan = dataclasses.replace(scan, power_weight=budget + 0.5)
    config = SchedulerConfig(scan=scan, power_budget=budget)
    # stability targets on some specs, some above what a window can serve
    targets = {s.id: float(rng.uniform(0.0, 1.5)) for s in specs if rng.random() < 0.6}
    # cheap scans and steep utility make scan activation a live choice
    utility = UtilityParams(
        detect_reward=float(rng.uniform(1.0, 20.0)),
        scan_cost=float(rng.uniform(0.05, 2.0)),
        load_penalty=float(rng.uniform(0.1, 4.0)),
    )
    pool = []
    for uid in rng.permutation(np.arange(-40, 40))[: int(rng.integers(1, 30))]:
        spec = specs[int(rng.integers(len(specs)))]
        req = int(rng.integers(0, 12))
        pool.append(TaskInstance(uid=int(uid), spec=spec, req=req, start_after=req))
    return utility, config, targets, pool


@pytest.mark.parametrize("forcing", ["free", "forced", "mixed"])
def test_slot_solver_matches_reference(forcing):
    rng = np.random.default_rng({"free": 1, "forced": 2, "mixed": 3}[forcing])
    checked = dict.fromkeys(
        ("scan", "deferred", "infeasible", "low_left_out", "quota_displaced", "quota_kept"), 0
    )
    for _ in range(150):
        utility, config, targets, pool = _random_case(rng)
        w_start, w_len = int(rng.integers(0, 10)), int(rng.integers(1, 9))
        live = GreedyPlanner(utility, config, w_start, w_len, targets)
        ref = ReferencePlanner(utility, config, w_start, w_len, targets)
        quota_check = ref._quota_displaced

        def counting(*args):
            displaced, fill = quota_check(*args)
            if fill is not None:
                checked["quota_displaced" if displaced else "quota_kept"] += 1
            return displaced, fill

        ref._quota_displaced = counting
        for k in range(w_len):
            t = w_start + k
            queue = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(0, len(pool) + 1))]]
            if forcing == "free" or (forcing == "mixed" and rng.random() < 0.5):
                forced = None
            else:
                forced = bool(rng.random() < 0.5)
            got = live.schedule_slot(list(queue), t, forced)
            want = ref.schedule_slot(list(queue), t, forced)
            assert got.t == want.t
            assert got.running == want.running
            assert got.scan_on is want.scan_on
            assert got.z.hex() == want.z.hex()
            assert got.events == want.events
            assert _planner_state(live) == _planner_state(ref)
            checked["scan"] += want.scan_on
            checked["deferred"] += sum(e[1] == "deferred-high-priority" for e in want.events)
            checked["infeasible"] += sum(e[1] == "infeasible-slot" for e in want.events)
            checked["low_left_out"] += any(
                i.spec.priority is Priority.LOW and i.uid not in want.running for i in queue
            )
    # the random cases reach every branch of the solver (forced runs never
    # consider a scan, so they skip the quota check)
    if forcing == "forced":
        del checked["quota_displaced"], checked["quota_kept"]
    assert all(v > 0 for v in checked.values()), checked


def _shape_spec(spec_id, priority, demand, power):
    return TaskSpec(
        id=spec_id, nature=Nature.MISSION, priority=priority,
        arrival=Arrival(kind="aperiodic", rate=0.2), demand=demand,
        power_weight=power, processing=4, relative_deadline=30,
    )


def _shape_queues():
    """Queues whose low-priority part falls into runs of one spec in
    earliest-deadline-first order, by the shapes the run fill depends on."""
    def instances(spec, reqs, uid0):
        return [TaskInstance(uid=uid0 + k, spec=spec, req=r, start_after=r) for k, r in enumerate(reqs)]

    low, high = Priority.LOW, Priority.HIGH
    # 45 small instances of one spec all fit: the run outlasts one chain
    small = _shape_spec("small", low, [0.02, 0.01], 0.01)
    # exactly 32 of these fill the first resource to 1.0, the 33rd does not
    exact = _shape_spec("exact", low, [0.03125, 0.0], 0.0)
    # no demand and no power: its chain never ends by itself
    free = _shape_spec("free", low, [0.0, 0.0], 0.0)
    big = _shape_spec("big", low, [0.3, 0.2], 0.2)
    mid = _shape_spec("mid", low, [0.1, 0.25], 0.1)
    urgent = _shape_spec("urgent", high, [0.15, 0.1], 0.15)
    return {
        "one spec, 45 instances": instances(small, [0] * 45, 0),
        "one spec, 32 fit of 40": instances(exact, [0] * 40, 0),
        "zero demand and power": instances(free, [0] * 70, 0) + instances(big, [1] * 5, 70),
        # high-priority deadlines fall between those of one low spec
        "high splits a low run": instances(mid, [0, 0, 1, 1, 2, 2, 3, 3], 0)
        + instances(urgent, [0, 1, 2], 100),
        # three low specs take turns by deadline
        "interleaved low specs": instances(big, [0, 3, 6, 9], 0)
        + instances(mid, [1, 4, 7, 10], 10) + instances(small, [2, 5, 8, 11] * 3, 20),
    }


@pytest.mark.parametrize("shape", list(_shape_queues()))
def test_run_fill_matches_reference_on_queue_shapes(shape):
    queue = _shape_queues()[shape]
    longest = 0
    left_out = False
    for budget in (0.6, 1.0, 3.0):
        # the second scan is over the power budget, so it never starts
        for scan_power in (0.25, budget + 0.5):
            scan = ScanTask(demand=[0.15, 0.05], power_weight=scan_power, duration=2)
            config = SchedulerConfig(scan=scan, power_budget=budget)
            # a large target keeps every low spec behind its quota, so a
            # scan start weighs both fills
            targets = {s.id: 5.0 for s in {i.spec for i in queue}}
            live = GreedyPlanner(UtilityParams(), config, 0, 6, targets)
            ref = ReferencePlanner(UtilityParams(), config, 0, 6, targets)
            for t, forced in enumerate((None, None, True, False, None, None)):
                got = live.schedule_slot(list(queue), t, forced)
                want = ref.schedule_slot(list(queue), t, forced)
                assert got.running == want.running
                assert got.scan_on is want.scan_on
                assert got.z.hex() == want.z.hex()
                assert got.events == want.events
                assert _planner_state(live) == _planner_state(ref)
                ran = [i.spec.id for i in queue if i.uid in want.running]
                longest = max(longest, max((ran.count(s) for s in set(ran)), default=0))
                left_out = left_out or any(
                    i.spec.priority is Priority.LOW and i.uid not in want.running for i in queue
                )
    if shape == "one spec, 45 instances":
        assert longest == 45  # more than one chain's length in one run
    elif shape == "one spec, 32 fit of 40":
        assert longest == 32
    elif shape == "zero demand and power":
        assert longest == 70
    assert left_out


def test_forced_decisions_read_only_the_config():
    """The defender pass executes every slot with one planner, built at
    ``(0, w)`` without targets.  A forced decision must not depend on the
    planner's window, its stability targets, the service it has counted
    or the scan slots it has committed."""
    rng = np.random.default_rng(4)
    seen = dict.fromkeys(("committed", "forced on", "forced off"), 0)
    for _ in range(150):
        utility, config, targets, pool = _random_case(rng)
        one = GreedyPlanner(utility, config, 0, int(rng.integers(1, 9)))
        w_start, w_len = int(rng.integers(0, 10)), int(rng.integers(2, 9))
        window = GreedyPlanner(utility, config, w_start, w_len, targets)
        for k in range(w_len):
            t = w_start + k
            queue = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(0, len(pool) + 1))]]
            if k < w_len // 2:  # free slots: the window planner commits scans and counts service
                window.schedule_slot(list(queue), t)
                continue
            seen["committed"] += window.scan_slots_committed > 0
            forced = bool(rng.random() < 0.5)
            seen["forced on" if forced else "forced off"] += 1
            got = one.schedule_slot(list(queue), t, forced)
            want = window.schedule_slot(list(queue), t, forced)
            assert got.running == want.running
            assert got.scan_on is want.scan_on
            assert got.z.hex() == want.z.hex()
            assert got.events == want.events
    assert all(v > 0 for v in seen.values()), seen
