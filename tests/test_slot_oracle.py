"""Slot-solver oracle: a frozen reference copy of the greedy slot solver.

``ReferencePlanner`` keeps ``schedule_slot``, ``_fill_low`` and
``_quota_displaced`` exactly as they were before the solver moved onto
plain locals (enum members bound at module level, ``try_fit`` inlined),
with ``try_fit`` copied alongside; its ``SlotDecision`` also returns the
usage and power it summed, which decide nothing.  On random queues the
live solver must make the same decision (running uids, scan state, idle
capacity, usage, power, events, compared bit for bit) and leave the
planner in the same state, slot after slot through a window.  Do not
edit the reference to make a change pass: a change of decisions is a
change of results.

``reference_plan_horizon`` does the same for the receding-horizon plan:
``plan_horizon`` as it stood before it kept its eligible set between
slots and projected arrivals from templates, solving each slot with
``ReferencePlanner``.

``_ref_edf_split`` is the slot solver's split of its queue as it stood
before ``EdfQueue`` kept the split up to date: a full sort and one walk.
After every ``add`` and ``discard`` of random sequences, the queue's
split must equal the walk's and that of a queue built afresh.
"""
from __future__ import annotations

import copy
import dataclasses
import math
from operator import add, attrgetter, sub

import numpy as np
import pytest

from satdefsim import engine, scheduler
from satdefsim.config import load_config
from satdefsim.scheduler import (
    EdfQueue,
    GreedyPlanner,
    ScanTask,
    SchedulerConfig,
    SlotDecision,
    UtilityParams,
    detection_performance,
    plan_horizon,
    slot_utility,
    stability_targets_of,
    window_utility,
)
from satdefsim.workload import Arrival, InstanceState, Nature, Priority, TaskInstance, TaskSpec

from conftest import BENCH_SCENARIOS, clear_engine_caches

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
        return SlotDecision(
            t=t, running=[i.uid for i in chosen], scan_on=bool(scan_on), z=z,
            usage=usage, power=power, events=events,
        )


def _planner_state(p: GreedyPlanner):
    return (p.scan_slots_committed, p.scan_active_until, dict(p.served_in_window))


def _assert_same_decision(got, want, live, ref):
    assert got.t == want.t
    assert got.running == want.running
    assert got.scan_on is want.scan_on
    assert got.z.hex() == want.z.hex()
    assert got.usage == want.usage
    assert got.power == want.power
    assert got.events == want.events
    assert _planner_state(live) == _planner_state(ref)


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
    utility, config, targets = _random_scope(rng, specs, n_res)
    pool = []
    for uid in rng.permutation(np.arange(-40, 40))[: int(rng.integers(1, 30))]:
        spec = specs[int(rng.integers(len(specs)))]
        req = int(rng.integers(0, 12))
        pool.append(TaskInstance(uid=int(uid), spec=spec, req=req))
    return utility, config, targets, pool


def _random_scope(rng, specs, n_res):
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
    return utility, config, targets


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
            got = live.schedule_slot(EdfQueue(queue), t, forced)
            want = ref.schedule_slot(list(queue), t, forced)
            _assert_same_decision(got, want, live, ref)
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
        return [TaskInstance(uid=uid0 + k, spec=spec, req=r) for k, r in enumerate(reqs)]

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
                got = live.schedule_slot(EdfQueue(queue), t, forced)
                want = ref.schedule_slot(list(queue), t, forced)
                _assert_same_decision(got, want, live, ref)
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
                window.schedule_slot(EdfQueue(queue), t)
                continue
            seen["committed"] += window.scan_slots_committed > 0
            forced = bool(rng.random() < 0.5)
            seen["forced on" if forced else "forced off"] += 1
            got = one.schedule_slot(EdfQueue(queue), t, forced)
            want = window.schedule_slot(EdfQueue(queue), t, forced)
            assert got.running == want.running
            assert got.scan_on is want.scan_on
            assert got.z.hex() == want.z.hex()
            assert got.usage == want.usage
            assert got.power == want.power
            assert got.events == want.events
    assert all(v > 0 for v in seen.values()), seen


# -- the reuse paths: the queue's split and the slot memo ---------------------------

def _ref_edf_split(queue):
    """The queue's split as ``GreedyPlanner._edf_split`` built it before
    the queue kept its own: one full earliest-deadline-first sort, then
    one walk that appends each low-priority instance to the open run of
    its spec or opens a new run."""
    high_uids, high_specs, run_uids, run_specs = [], [], [], []
    run_spec = None
    for inst in sorted(queue, key=_EDF_KEY):
        spec = inst.spec
        if spec is run_spec:
            run.append(inst.uid)
        elif spec.priority is Priority.HIGH:
            high_uids.append(inst.uid)
            high_specs.append(spec)
        elif spec.priority is Priority.LOW:
            run_spec = spec
            run = [inst.uid]
            run_uids.append(run)
            run_specs.append(spec)
    runs = [(spec, len(uids)) for spec, uids in zip(run_specs, run_uids)]
    shape = (tuple(map(id, high_specs)), tuple((id(spec), n) for spec, n in runs))
    return high_uids, run_uids, high_specs, runs, shape


def _split_by_identity(split):
    """A split with its specs replaced by their ids, so that two splits
    compare equal only if they name the same spec objects.  Each run
    becomes ``(id(spec), length)``: the reference walk gives its runs as
    ``(spec, length)`` pairs, a queue its run specs, whose lengths are
    those of its run uid lists."""
    high_uids, run_uids, high_specs, runs, shape = split
    runs = [
        run if isinstance(run, tuple) else (run, len(uids))
        for run, uids in zip(runs, run_uids, strict=True)
    ]
    return (
        list(high_uids), [list(uids) for uids in run_uids], [id(s) for s in high_specs],
        [(id(s), n) for s, n in runs], shape,
    )


def _edf_spec(spec_id, priority, relative_deadline):
    return TaskSpec(
        id=spec_id, nature=Nature.MISSION, priority=priority,
        arrival=Arrival(kind="aperiodic", rate=0.2), demand=[0.1, 0.1],
        power_weight=0.05, processing=1, relative_deadline=relative_deadline,
    )


def _high_inside_a_run(queue) -> bool:
    """Does a high-priority instance fall between two instances of one
    low-priority run in earliest-deadline-first order?"""
    last_low, high_since = None, False
    for inst in sorted(queue, key=_EDF_KEY):
        if inst.spec.priority is Priority.HIGH:
            high_since = True
        elif inst.spec is last_low and high_since:
            return True
        else:
            last_low, high_since = inst.spec, False
    return False


def test_queue_split_matches_a_fresh_build_and_the_reference_walk():
    """Random add and discard sequences: after every update the queue's
    split equals that of a queue built afresh from the same instances,
    that of the reference walk and that of the queue's copy; the next
    update of the queue leaves the copy's split as it was.  Arrivals come
    in time order, as in an episode, with some out of uid order; "long"
    arrivals have deadlines far enough ahead that a "short" arrival lands
    in the middle of a "long" run and splits it."""
    rng = np.random.default_rng(11)
    low, high = Priority.LOW, Priority.HIGH
    seen = dict.fromkeys(("run split", "runs merged", "high inside a run", "out of uid order"), 0)
    for _ in range(200):
        specs = [_edf_spec("long", low, 12), _edf_spec("short", low, 2), _edf_spec("mid", low, 5)]
        specs = specs[: int(rng.integers(2, 4))]
        specs += [_edf_spec("urgent", high, 3), _edf_spec("relay", high, 8)][: int(rng.integers(0, 3))]
        queue = EdfQueue()
        held: dict[int, TaskInstance] = {}
        t, next_uid = 0, 0
        dup, dup_want = queue.copy(), _split_by_identity(_ref_edf_split([]))
        for _ in range(60):
            runs_before = len(queue.split()[3])
            if held and rng.random() < 0.4:
                inst = held.pop(int(rng.choice(list(held))))
                queue.discard(inst)
                spec = inst.spec
                seen["runs merged"] += spec.priority is low and len(queue.split()[3]) == runs_before - 2
            else:
                t += int(rng.integers(0, 2))
                if rng.random() < 0.1:  # a uid below every other, as the plan's stand-ins take
                    uid = -1 - next_uid
                    seen["out of uid order"] += 1
                else:
                    uid = next_uid
                next_uid += 1
                spec = specs[int(rng.integers(len(specs)))]
                inst = held[uid] = TaskInstance(uid=uid, spec=spec, req=t)
                queue.add(inst)
                seen["run split"] += spec.priority is low and len(queue.split()[3]) == runs_before + 2
            assert _split_by_identity(dup.split()) == dup_want  # the copy kept its split
            want = _split_by_identity(_ref_edf_split(list(held.values())))
            assert _split_by_identity(queue.split()) == want
            assert _split_by_identity(EdfQueue(held.values()).split()) == want
            assert _split_by_identity(queue.copy().split()) == want
            dup, dup_want = queue.copy(), want  # split only after the next update
            assert len(queue) == len(held)
            assert [i.uid for i in queue] == list(held)  # the order of adding
            seen["high inside a run"] += _high_inside_a_run(held.values())
    assert all(v > 0 for v in seen.values()), seen


def test_queue_refuses_a_uid_it_holds_and_an_instance_it_does_not():
    spec = _edf_spec("long", Priority.LOW, 12)
    inst = TaskInstance(uid=3, spec=spec, req=0)
    queue = EdfQueue([inst])
    with pytest.raises(ValueError):
        queue.add(TaskInstance(uid=3, spec=spec, req=1))
    with pytest.raises(KeyError):
        queue.discard(TaskInstance(uid=4, spec=spec, req=0))
    with pytest.raises(KeyError):  # the same uid, another instance
        queue.discard(TaskInstance(uid=3, spec=spec, req=0))
    queue.discard(inst)
    with pytest.raises(KeyError):
        queue.discard(inst)
    assert len(queue) == 0 and _split_by_identity(queue.split()) == _split_by_identity(_ref_edf_split([]))


def test_an_unchanged_queue_reuses_its_split():
    """The split is built once per change: an unchanged queue hands back
    the same split object, and an add or a discard makes a new one."""
    rng = np.random.default_rng(10)
    for _ in range(50):
        _, _, _, pool = _random_case(rng)
        queue = EdfQueue(pool)
        split = queue.split()
        assert queue.split() is split
        inst = pool[int(rng.integers(len(pool)))]
        queue.discard(inst)
        assert queue.split() is not split
        split = queue.split()
        assert queue.split() is split
        queue.add(inst)
        assert queue.split() is not split
        assert _split_by_identity(queue.split()) == _split_by_identity(_ref_edf_split(pool))


@pytest.mark.parametrize("forcing", ["free", "forced"])
def test_queue_updates_decide_as_reference(forcing):
    """One queue kept slot after slot by adds and discards, as the
    defender pass and the plan keep theirs, decides as the reference
    does on a list of the same instances; a slot whose queue did not
    change reuses its split."""
    rng = np.random.default_rng({"free": 5, "forced": 6}[forcing])
    seen = dict.fromkeys(("added", "discarded", "split reused"), 0)
    for _ in range(100):
        utility, config, targets, pool = _random_case(rng)
        if rng.random() < 0.5:  # no quota, so a scan block can follow another
            targets = {}
        w_start, w_len = int(rng.integers(0, 10)), int(rng.integers(2, 13))
        live = GreedyPlanner(utility, config, w_start, w_len, targets)
        ref = ReferencePlanner(utility, config, w_start, w_len, targets)
        queue = EdfQueue()
        held: dict[int, TaskInstance] = {}
        for k in range(w_len):
            split = queue.split()
            changed = rng.random() < 0.7
            for j in rng.permutation(len(pool))[: int(rng.integers(1, 4))] if changed else ():
                inst = pool[j]
                if held.pop(inst.uid, None) is None:
                    queue.add(inst)
                    held[inst.uid] = inst
                    seen["added"] += 1
                else:
                    queue.discard(inst)
                    seen["discarded"] += 1
            forced = None if forcing == "free" else bool(rng.random() < 0.5)
            got = live.schedule_slot(queue, w_start + k, forced)
            want = ref.schedule_slot(list(held.values()), w_start + k, forced)
            _assert_same_decision(got, want, live, ref)
            if not changed:
                assert queue.split() is split
                seen["split reused"] += 1
    assert all(v > 0 for v in seen.values()), seen


def test_window_planners_share_decisions_by_scope():
    """A fresh planner per window, as ``plan_horizon`` makes them, built
    from equal but new values: the windows of one length share one memo
    and replay its decisions, the short last window has its own, and
    every slot decides as the reference does."""
    rng = np.random.default_rng(7)
    replayed = 0
    for _ in range(60):
        utility, config, targets, pool = _random_case(rng)
        w_len = int(rng.integers(2, 6))
        horizon = 3 * w_len + int(rng.integers(1, w_len))  # a short last window
        queue = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(0, len(pool) + 1))]]
        memos = set()
        for w_start in range(0, horizon, w_len):
            n = min(w_len, horizon - w_start)
            live = GreedyPlanner(
                dataclasses.replace(utility), dataclasses.replace(config), w_start, n, dict(targets),
            )
            ref = ReferencePlanner(utility, config, w_start, n, targets)
            stored = len(live._memo)
            for t in range(w_start, w_start + n):
                got = live.schedule_slot(EdfQueue(queue), t)
                want = ref.schedule_slot(list(queue), t)
                _assert_same_decision(got, want, live, ref)
            memos.add(id(live._memo))
            # the queue repeats, so every later full window replays the first
            replayed += 0 < w_start and n == w_len and len(live._memo) == stored
        assert len(memos) == 2
    assert replayed > 0


def test_a_full_memo_is_emptied(monkeypatch):
    monkeypatch.setattr(scheduler, "_MEMO_MAX", 3)
    rng = np.random.default_rng(9)
    for _ in range(30):
        utility, config, targets, pool = _random_case(rng)
        live = GreedyPlanner(utility, config, 0, 8, targets)
        ref = ReferencePlanner(utility, config, 0, 8, targets)
        for t in range(8):
            queue = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(0, len(pool) + 1))]]
            _assert_same_decision(live.schedule_slot(EdfQueue(queue), t), ref.schedule_slot(queue, t), live, ref)
            assert 0 < len(live._memo) <= 3


# -- the receding-horizon plan ---------------------------------------------------

def _ref_project_aperiodic(spec, window_start: int, window_len: int, uid_base: int) -> list[TaskInstance]:
    """Deterministic evenly spaced stand-ins for an aperiodic stream."""
    rate = spec.arrival.rate
    n = int(math.floor(rate * window_len + 0.5))
    out = []
    for i in range(n):
        t = window_start + int(math.floor((i + 0.5) / rate)) if rate > 0 else window_start
        t = min(t, window_start + window_len - 1)
        out.append(TaskInstance(uid=uid_base - n + 1 + i, spec=spec, req=t))
    return out


def reference_plan_horizon(queue, window_start, window_len, utility, config, specs=None, stability_targets=None):
    """``plan_horizon`` with ``_project_aperiodic`` as they stood before
    the reuse paths, solving each slot with ``ReferencePlanner``.  The
    stand-in uids are the one change: each spec's stand-ins take the
    next block of uids below the last, rising with the release slot.
    Before, an aperiodic spec numbered its stand-ins up from the next
    free uid, so one could share the uid of the stand-in above it."""
    if stability_targets is None:
        stability_targets = stability_targets_of(specs or ())

    sim = [inst for inst in queue if inst.active]
    uid_base = -1_000_000  # projected instances use negative uids
    if specs:
        for spec in sorted(specs, key=lambda s: s.id):
            if spec.arrival.kind == "periodic":
                first = window_start + (-window_start) % spec.arrival.interval
                releases = range(first, window_start + window_len, spec.arrival.interval)
                for k, t in enumerate(releases):
                    sim.append(TaskInstance(uid=uid_base - len(releases) + 1 + k, spec=spec, req=t))
                uid_base -= len(releases)
            elif spec.arrival.rate > 0:
                proj = _ref_project_aperiodic(spec, window_start, window_len, uid_base)
                sim.extend(proj)
                uid_base -= len(proj)

    planner = ReferencePlanner(utility, config, window_start, window_len, stability_targets)
    scan_on: list[int] = []
    zs: list[float] = []
    running: list[list[int]] = []
    events: list[tuple[int, str, str]] = []
    left = {i.uid: i.remaining for i in sim}

    for t in range(window_start, window_start + window_len):
        eligible = [
            i for i in sim
            if i.req <= t and not (i.spec.firm_deadline and t > i.deadline)
        ]
        dec = planner.schedule_slot(eligible, t)
        scan_on.append(int(dec.scan_on))
        zs.append(dec.z)
        running.append(dec.running)
        events.extend(dec.events)
        finished = False
        for uid in dec.running:
            left[uid] -= 1
            finished = finished or left[uid] == 0
        if finished:  # sim holds only instances with work left
            sim = [i for i in sim if left[i.uid]]

    f = sum(scan_on) / window_len  # exact: an integer count over the length
    y = detection_performance(f, config.scan.duration, utility)
    objective = 0.0  # a plain loop: from Python 3.12 on, sum() of floats is compensated
    for x, z in zip(scan_on, zs):
        objective += slot_utility(y, x, z, utility)
    z_arr = np.array(zs)
    return dict(
        scan_on=scan_on, running=running, z=zs, scan_freq=f,
        z_avg=float(np.mean(z_arr)), objective=objective, events=events,
    )


def _assert_same_plan(got, want, utility, config):
    assert got.scan_on.tolist() == want["scan_on"]
    assert got.running == want["running"]
    assert [z.hex() for z in got.z.tolist()] == [z.hex() for z in want["z"]]
    assert got.scan_freq.hex() == want["scan_freq"].hex()
    assert got.z_avg.hex() == want["z_avg"].hex()
    objective = window_utility(got.scan_on.tolist(), got.z.tolist(), config.scan.duration, utility)
    assert objective.hex() == want["objective"].hex()
    assert got.events == want["events"]
    for uids in got.running:
        assert len(set(uids)) == len(uids)


def _random_window(rng):
    """Specs with aperiodic streams at random rates and periodic ones,
    half with firm deadlines that pass inside a window, and a backlog
    with partial work left, some of it no longer active or released
    later."""
    n_res = int(rng.integers(1, 4))
    specs = [
        dataclasses.replace(
            s, arrival=Arrival(kind="aperiodic", rate=round(float(rng.uniform(0.0, 0.8)), 2)),
            firm_deadline=bool(rng.random() < 0.5),
        )
        for s in _random_specs(rng, n_res)
    ]
    for j in range(int(rng.integers(0, 3))):
        processing = int(rng.integers(1, 4))
        specs.append(TaskSpec(
            id=f"periodic{j}",
            nature=Nature.MISSION,
            priority=Priority.HIGH if rng.random() < 0.5 else Priority.LOW,
            arrival=Arrival(kind="periodic", interval=int(rng.integers(1, 8))),
            demand=rng.uniform(0.0, 0.5, n_res).round(2),
            power_weight=round(float(rng.uniform(0.0, 0.4)), 2),
            processing=processing,
            relative_deadline=processing + int(rng.integers(0, 4)),
            firm_deadline=bool(rng.random() < 0.6),
        ))
    utility, config, targets = _random_scope(rng, specs, n_res)
    w_start, w_len = int(rng.integers(0, 40)), int(rng.integers(1, 11))
    queue = []
    for uid in range(int(rng.integers(0, 25))):
        spec = specs[int(rng.integers(len(specs)))]
        req = w_start + int(rng.integers(-12, 3))
        inst = TaskInstance(uid=uid, spec=spec, req=req)
        inst.remaining = int(rng.integers(1, spec.processing + 1))
        if rng.random() < 0.1:
            inst.state = InstanceState.COMPLETED
        queue.append(inst)
    return queue, w_start, w_len, utility, config, specs, targets


def test_plan_matches_reference_on_random_windows():
    rng = np.random.default_rng(8)
    seen = dict.fromkeys(("scan", "events", "stand-in runs", "firm expiry"), 0)
    for _ in range(400):
        queue, w_start, w_len, utility, config, specs, targets = _random_window(rng)
        with_targets = rng.random() < 0.5  # or the targets plan_horizon derives from the specs
        kwargs = dict(specs=specs, stability_targets=targets if with_targets else None)
        want = reference_plan_horizon(queue, w_start, w_len, utility, config, **kwargs)
        got = plan_horizon(EdfQueue(queue), w_start, w_len, utility, config, **kwargs)
        _assert_same_plan(got, want, utility, config)
        seen["scan"] += any(want["scan_on"])
        seen["events"] += bool(want["events"])
        seen["stand-in runs"] += any(uid < 0 for uids in want["running"] for uid in uids)
        seen["firm expiry"] += any(
            i.active and i.spec.firm_deadline and w_start <= i.deadline < w_start + w_len - 1 for i in queue
        )
    assert all(v > 0 for v in seen.values()), seen


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_plan_matches_reference_on_benchmark_episodes(workload, monkeypatch):
    """Every plan of seeds 1-3, ``z_avg`` bit for bit against the
    reference's ``np.mean``."""
    cfg = load_config(BENCH_SCENARIOS / f"{workload}.yaml")
    compared = []

    def both(queue, w_start, w_len, utility, config, **kwargs):
        want = reference_plan_horizon(queue, w_start, w_len, utility, config, **kwargs)
        got = plan_horizon(queue, w_start, w_len, utility, config, **kwargs)
        _assert_same_plan(got, want, utility, config)
        compared.append(got.start)
        return got

    monkeypatch.setattr(engine, "plan_horizon", both)
    for seed in (1, 2, 3):
        compared.clear()
        engine.DefenderPass(cfg, seed, "star").run()
        assert compared == list(range(0, cfg.horizon, cfg.window))


def _plan_fields(plan):
    """A plan's fields, floats as hex, so that ``==`` compares bits."""
    return (
        plan.start, plan.length, plan.scan_on.dtype, plan.scan_on.tolist(), plan.running,
        [z.hex() for z in plan.z.tolist()], plan.scan_freq.hex(), plan.z_avg.hex(), plan.events,
    )


def _queue_state(queue):
    return (
        _split_by_identity(queue.split()), len(queue),
        [(i.uid, i.remaining, i.state, i.service) for i in queue],
    )


def test_plans_do_not_depend_on_the_plans_before_them(monkeypatch):
    """A plan reuses the planner of its scope and copies the caller's
    queue.  Replanning one default episode's windows in reverse order,
    every other one right after a plan of another scope (another window
    length and other targets), gives the plans of the episode's in-order
    run; and no plan changes the caller's queue or its instances."""
    cfg = load_config(BENCH_SCENARIOS / "suite-default.yaml")
    clear_engine_caches()
    windows = []

    def recording(queue, w_start, w_len, utility, config, **kwargs):
        before = _queue_state(queue)
        plan = plan_horizon(queue, w_start, w_len, utility, config, **kwargs)
        assert _queue_state(queue) == before
        snapshot = EdfQueue(map(copy.copy, queue))
        windows.append((snapshot, w_start, w_len, utility, config, kwargs, _plan_fields(plan)))
        return plan

    monkeypatch.setattr(engine, "plan_horizon", recording)
    engine.DefenderPass(cfg, 1, "star").run()
    assert len(windows) == cfg.horizon // cfg.window

    other_targets = {"routine": 0.3, "relay": 0.2}
    reused = 0
    for k, (queue, w_start, w_len, utility, config, kwargs, want) in enumerate(reversed(windows)):
        before = _queue_state(queue)
        if k % 2:
            plan_horizon(queue, w_start, w_len + 3, utility, config, specs=cfg.tasks, stability_targets=other_targets)
        held = scheduler._held_planner[0]
        got = plan_horizon(queue, w_start, w_len, utility, config, **kwargs)
        reused += scheduler._held_planner[0] is held
        assert _plan_fields(got) == want, w_start
        assert _queue_state(queue) == before
    assert reused == len(windows) // 2  # the windows planned right after one of their scope


def _template_specs():
    """Two periodic specs of coprime intervals, one of them firm with a
    deadline that passes inside a window, and an aperiodic stream; built
    afresh on every call."""
    return [
        TaskSpec(
            id="relay", nature=Nature.MISSION, priority=Priority.HIGH,
            arrival=Arrival(kind="periodic", interval=7), demand=[0.9, 0.2],
            power_weight=0.15, processing=1, relative_deadline=2, firm_deadline=True,
        ),
        TaskSpec(
            id="sweep", nature=Nature.SECURITY, priority=Priority.LOW,
            arrival=Arrival(kind="periodic", interval=30), demand=[0.4, 0.3],
            power_weight=0.2, processing=12, relative_deadline=40,
        ),
        TaskSpec(
            id="routine", nature=Nature.MISSION, priority=Priority.LOW,
            arrival=Arrival(kind="aperiodic", rate=0.6), demand=[0.05, 0.15],
            power_weight=0.13, processing=2, relative_deadline=10,
        ),
    ]


def _template_plan(specs, w_start, w_len, utility, config):
    """The plan of one window over a backlog of the specs' instances."""
    backlog = [TaskInstance(uid=1, spec=specs[2], req=0), TaskInstance(uid=2, spec=specs[1], req=0)]
    for inst in backlog:
        inst.state = InstanceState.ADMITTED
    return _plan_fields(plan_horizon(EdfQueue(backlog), w_start, w_len, utility, config, specs=specs))


def test_stand_in_templates_plan_as_fresh_specs(monkeypatch):
    """Every window phase of the two periodic specs (7 x 30 window
    starts), at window lengths 5 and 8: the plans of one spec list, which
    reuse the planner's template of each phase, equal the plans of equal
    specs built afresh for each call.  A spec replaced in the list in
    place is followed by the next plan."""
    utility = UtilityParams()
    config = SchedulerConfig(scan=ScanTask(demand=[0.15, 0.05], duration=2, power_weight=0.25))
    built = []
    build = scheduler._build_stand_ins

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(scheduler, "_build_stand_ins", counting)
    starts = range(7 * 30)
    for w_len in (5, 8):
        specs = _template_specs()
        built.clear()
        kept = [_template_plan(specs, w_start, w_len, utility, config) for w_start in starts]
        assert [_template_plan(specs, w_start, w_len, utility, config) for w_start in starts] == kept
        assert len(built) == len(starts)  # one template per phase, reused in the second pass
        fresh = [_template_plan(_template_specs(), w_start, w_len, utility, config) for w_start in starts]
        assert fresh == kept
        assert any(uid < 0 for plan in kept for uids in plan[4] for uid in uids)
        assert any(any(plan[3]) for plan in kept) and any(plan[-1] for plan in kept)  # scans, events

        w_start = 14  # the window opens with a release of the replaced spec
        before = _template_plan(specs, w_start, w_len, utility, config)
        specs[0] = dataclasses.replace(specs[0], arrival=Arrival(kind="periodic", interval=3))
        after = _template_plan(specs, w_start, w_len, utility, config)
        want = _template_plan([dataclasses.replace(s) for s in specs], w_start, w_len, utility, config)
        assert after == want and after != before
