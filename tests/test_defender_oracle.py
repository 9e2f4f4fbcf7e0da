"""Defender-pass oracles: the fcfs rule and the deadline reaper.

``reference_fcfs_slot`` is ``DefenderPass._fcfs_slot`` as it stood before
the fcfs slot read its started prefix of ``live`` and reused its usage:
it scans all of ``live`` for started instances and sorts the queue by
``(req, uid)``, with ``try_fit`` copied alongside.  ``ReaperOracle``
applies the reaper's old full-scan predicate (``t > deadline and
remaining > 0 and (firm or service == 0)``) to every instance that was
live at the start of a slot.  In every slot of a pass the live code must
agree with both, bit for bit.  Do not edit the references to make a
change pass: a change of decisions is a change of results.
"""
from __future__ import annotations

import copy
from operator import add

import pytest

from satdefsim import engine
from satdefsim.config import default_scenario, from_dict, load_config
from satdefsim.scheduler import GreedyPlanner
from satdefsim.workload import InstanceState

from conftest import BENCH_SCENARIOS, clear_plan_memo, head_of_line_scenario

_EPS = 1e-9
_CAP = 1.0 + _EPS
_ADMITTED, _COMPLETED = InstanceState.ADMITTED, InstanceState.COMPLETED


def _ref_try_fit(usage, power, demand, w, budget):
    new = tuple(map(add, usage, demand))
    return new if max(new) <= _CAP and power + w <= budget + _EPS else None


def reference_fcfs_slot(self, live):
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
        new = _ref_try_fit(usage, power, inst.spec.demand, inst.spec.power_weight, self.cfg.power_budget)
        if new is None:
            break
        usage = new
        power += inst.spec.power_weight
        running.append(inst)
    return running, usage, power


def bench_cfg(workload):
    return load_config(BENCH_SCENARIOS / f"{workload}.yaml")


def expiry_edge_scenario():
    """A 40-slot scenario in which sp's 5-slot scan blocks (every 10
    slots, demand 0.5 on both resources) keep a 0.6-demand task from
    running.  The firm task released at 0 starts at 5 and is missed at 8
    with one slot of work left.  The soft task released at 0 starts at 5,
    is still running at its deadline 7, is preempted by the scan block at
    10 and completes afterwards, never reaped."""
    return from_dict({
        "horizon": 40,
        "window": 5,
        "sp_scan_period": 10,
        "tasks": [
            {"id": "soft", "nature": "mission", "priority": "low",
             "arrival": {"kind": "periodic", "interval": 40},
             "demand": [0.6, 0.0], "power": 0.2, "processing": 6, "deadline": 7},
            {"id": "firm", "nature": "security", "priority": "high",
             "arrival": {"kind": "periodic", "interval": 20},
             "demand": [0.0, 0.6], "power": 0.2, "processing": 4, "deadline": 7},
        ],
        "scan": {"demand": [0.5, 0.5], "power": 0.1, "duration": 5},
        "channel": {"fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
                    "geometry": {"d_min_km": 550, "d_max_km": 1600, "peak_snr_db": 12}},
        "attacker": {"mode": "none"},
    })


# ---------------------------------------------------------------------------
# fcfs
# ---------------------------------------------------------------------------

def run_fcfs_against_reference(cfg, seed, monkeypatch) -> int:
    """One fcfs pass with every slot checked against the reference rule;
    the number of slots checked."""
    fcfs_slot = engine.DefenderPass._fcfs_slot
    slots = []

    def checked(self, live):
        started = [i.service > 0 for i in live]
        assert started == sorted(started, reverse=True)  # no waiting one before a started one
        want = reference_fcfs_slot(self, live)
        running, usage, power = fcfs_slot(self, live)
        assert [i.uid for i in running] == [i.uid for i in want[0]]
        assert usage == want[1]
        assert power == want[2]
        slots.append(len(running))
        return running, usage, power

    with monkeypatch.context() as patch:
        patch.setattr(engine.DefenderPass, "_fcfs_slot", checked)
        engine.DefenderPass(cfg, seed, "fcfs").run()
    return len(slots)


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_fcfs_slot_matches_reference_on_benchmark_episodes(workload, monkeypatch):
    cfg = bench_cfg(workload)
    for seed in (1, 2, 3):
        assert run_fcfs_against_reference(cfg, seed, monkeypatch) == cfg.horizon


def test_fcfs_slot_matches_reference_behind_a_blocked_head(monkeypatch):
    cfg = head_of_line_scenario()
    assert run_fcfs_against_reference(cfg, 0, monkeypatch) == cfg.horizon


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_fcfs_running_sums_are_a_fresh_sum(workload, monkeypatch):
    """An fcfs slot carries the usage and power of its running list to
    the next slot.  In every slot they must equal a fresh sum over the
    running list in uid order, and a pass must both reuse a carried sum
    (the started prefix is the last running list) and sum afresh (an
    instance left)."""
    cfg = bench_cfg(workload)
    fcfs_slot = engine.DefenderPass._fcfs_slot
    last = []
    kept = left = 0

    def checked(self, live):
        nonlocal kept, left
        started = sum(1 for i in live if i.service > 0)
        if last:
            kept += started == last[-1]
            left += started < last[-1]
        running, usage, power = fcfs_slot(self, live)
        assert [i.uid for i in running] == sorted(i.uid for i in running)
        want_usage = (0.0,) * len(cfg.resources)
        want_power = 0.0
        for inst in running:
            want_usage = tuple(u + d for u, d in zip(want_usage, inst.spec.demand))
            want_power += inst.spec.power_weight
        assert usage == want_usage
        assert power == want_power
        last.append(len(running))
        return running, usage, power

    monkeypatch.setattr(engine.DefenderPass, "_fcfs_slot", checked)
    engine.DefenderPass(cfg, 1, "fcfs").run()
    assert len(last) == cfg.horizon
    assert max(last) > 0 and kept > 0 and left > 0


# ---------------------------------------------------------------------------
# Deadline reaper
# ---------------------------------------------------------------------------

class ReaperOracle:
    """Checks each slot's reaping from the live list the slot schedules.

    The instances live at the start of slot t, before reaping, are the
    unfinished ones of the last slot's ``live`` and those admitted at t.
    Reaping changes only their state, and an instance that leaves ``live``
    keeps its ``remaining`` and ``service`` for good, so the old predicate
    can be read at the scheduling step: the slot's ``live`` must be
    exactly those that fail it, in the same order, and those that pass it
    must be missed (firm) or dropped (soft)."""

    def __init__(self, defender: engine.DefenderPass):
        self.defender = defender
        self.prev: list = []
        self.slots = 0
        self.reaped: list[tuple[int, object]] = []

    def check(self, live, t):
        assert t == self.slots
        arrived = [i for i in self.defender.arrivals_by_slot.get(t, ()) if i.state is _ADMITTED]
        before = [i for i in self.prev if i.state is not _COMPLETED] + arrived

        def expires(i):
            return t > i.deadline and i.remaining > 0 and (i.spec.firm_deadline or i.service == 0)

        assert [i.uid for i in live] == [i.uid for i in before if not expires(i)]
        for inst in before:
            if expires(inst):
                want = InstanceState.MISSED if inst.spec.firm_deadline else InstanceState.DROPPED
                assert inst.state is want
                self.reaped.append((t, inst))
        self.prev = list(live)
        self.slots += 1


def run_reaper_oracle(cfg, seed, policy, monkeypatch):
    """One defender pass with every slot's reaping checked; the oracle and
    each slot's running uids."""
    defender = engine.DefenderPass(cfg, seed, policy)
    oracle = ReaperOracle(defender)
    ran: list[set[int]] = []
    if policy == "fcfs":
        fcfs_slot = engine.DefenderPass._fcfs_slot

        def checked_fcfs(self, live):
            oracle.check(live, oracle.slots)
            running, usage, power = fcfs_slot(self, live)
            ran.append({i.uid for i in running})
            return running, usage, power

        target, name, wrapper = engine.DefenderPass, "_fcfs_slot", checked_fcfs
    else:
        schedule_slot = GreedyPlanner.schedule_slot

        def checked_slot(self, queue, t, forced_scan=None):
            dec = schedule_slot(self, queue, t, forced_scan=forced_scan)
            if forced_scan is not None:  # the pass's execution, not a plan
                # the queue iterates in the order instances joined, which
                # is uid order for every policy
                oracle.check(list(queue), t)
                ran.append(set(dec.running))
            return dec

        target, name, wrapper = GreedyPlanner, "schedule_slot", checked_slot
    with monkeypatch.context() as patch:
        patch.setattr(target, name, wrapper)
        defender.run()
    assert oracle.slots == cfg.horizon
    return oracle, ran


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
@pytest.mark.parametrize("policy", ["fcfs", "sp", "star"])
def test_reaper_matches_full_scan_on_benchmark_episodes(policy, workload, monkeypatch):
    cfg = bench_cfg(workload)
    reaped = 0
    for seed in (1, 2):
        oracle, _ = run_reaper_oracle(cfg, seed, policy, monkeypatch)
        reaped += len(oracle.reaped)
    if policy == "fcfs" or workload == "congested-dp":
        assert reaped > 0  # every policy reaps on congested-dp, fcfs on both


@pytest.mark.parametrize("policy", ["fcfs", "sp", "star"])
def test_reaper_matches_full_scan_at_the_expiry_edges(policy, monkeypatch):
    cfg = expiry_edge_scenario()
    oracle, ran = run_reaper_oracle(cfg, 0, policy, monkeypatch)
    if policy != "sp":
        return
    # a firm instance expires while it runs, one slot of work short
    firm = [inst for t, inst in oracle.reaped if inst.spec.id == "firm"]
    assert firm and all(i.service > 0 and i.remaining == 1 for i in firm)
    assert [t for t, inst in oracle.reaped] == [i.deadline + 1 for i in firm]
    # the started soft instance runs past its deadline, is preempted and
    # completes unreaped
    (soft,) = [i for i in oracle.defender.instances if i.spec.id == "soft"]
    runs = [t for t, uids in enumerate(ran) if soft.uid in uids]
    assert runs[0] <= soft.deadline < runs[-1]
    assert any(t not in runs for t in range(runs[0], runs[-1]))
    assert soft.state is _COMPLETED


# ---------------------------------------------------------------------------
# Repeat rules
# ---------------------------------------------------------------------------

def run_against_bypassed_repeats(cfg, seed, policy, monkeypatch) -> dict[str, int]:
    """One defender pass in which every slot, of the pass and of its
    plans, is checked against the same slot decided with the repeat rule
    bypassed: the slot solver on a copy of the planner that remembers no
    last call, the fcfs rule with no last split.  Every plan starts from
    an empty plan memo, so that each of its slots is solved and checked.
    Returns the slots that repeated (handed back the last call's running
    list), by caller."""
    fired = {"exec": 0, "plan": 0, "fcfs": 0}
    schedule_slot = GreedyPlanner.schedule_slot
    fcfs_slot = engine.DefenderPass._fcfs_slot
    plan_horizon = engine.plan_horizon
    last_running = {}

    def cold_plan(*args, **kwargs):
        clear_plan_memo()
        return plan_horizon(*args, **kwargs)

    def checked_slot(self, queue, t, forced_scan=None):
        fresh = copy.copy(self)
        fresh._last = None
        fresh.served_in_window = dict(self.served_in_window)
        want = schedule_slot(fresh, queue, t, forced_scan)
        got = schedule_slot(self, queue, t, forced_scan)
        assert (got.t, got.running, got.scan_on, got.events) == (want.t, want.running, want.scan_on, want.events)
        assert (got.z.hex(), got.power.hex()) == (want.z.hex(), want.power.hex())
        assert [u.hex() for u in got.usage] == [u.hex() for u in want.usage]
        assert self.served_in_window == fresh.served_in_window
        assert (self.scan_active_until, self.scan_slots_committed) == (
            fresh.scan_active_until, fresh.scan_slots_committed,
        )
        fired["exec" if forced_scan is not None else "plan"] += got.running is last_running.get(id(self))
        last_running[id(self)] = got.running
        return got

    def checked_fcfs(self, queue):
        carried = self._carried
        self._carried = (None, *carried[1:])
        want = fcfs_slot(self, queue)
        self._carried = carried
        got = fcfs_slot(self, queue)
        assert [i.uid for i in got[0]] == [i.uid for i in want[0]]
        assert [u.hex() for u in got[1]] == [u.hex() for u in want[1]]
        assert got[2].hex() == want[2].hex()
        fired["fcfs"] += got[0] is carried[1]
        return got

    with monkeypatch.context() as patch:
        patch.setattr(GreedyPlanner, "schedule_slot", checked_slot)
        patch.setattr(engine.DefenderPass, "_fcfs_slot", checked_fcfs)
        patch.setattr(engine, "plan_horizon", cold_plan)
        engine.DefenderPass(cfg, seed, policy).run()
    return fired


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_repeated_slots_decide_as_a_fresh_slot(workload, monkeypatch):
    """The repeat rules of the slot solver and the fcfs rule are exact:
    on the benchmark's scenarios, every slot of fcfs, sp and star (their
    plans included) decides the uids, usage, power, z, events and served
    counts of the same slot decided afresh, and each rule fires."""
    cfg = bench_cfg(workload)
    fired = {"exec": 0, "plan": 0, "fcfs": 0}
    for seed in (1, 2):
        for policy in ("fcfs", "sp", "star"):
            for caller, n in run_against_bypassed_repeats(cfg, seed, policy, monkeypatch).items():
                fired[caller] += n
    assert min(fired.values()) > 0, fired


def test_slots_that_can_start_a_scan_are_decided_afresh(monkeypatch):
    """With 2-slot scan blocks in 8-slot windows, a plan's slots can start
    a scan one after another, and a small quota (rate 0.6 x mean demand
    0.3) is met in some slots and not in others, so the specs behind it
    change between slots of one split.  Such slots must not repeat the
    last one."""
    cfg = default_scenario(
        horizon=400,
        window=8,
        tasks=[
            {"id": "routine", "nature": "mission", "priority": "low",
             "arrival": {"kind": "aperiodic", "rate": 0.6}, "demand": [0.3, 0.45], "power": 0.13,
             "processing": 4, "deadline": 20, "mean_demand": 0.3},
            {"id": "relay", "nature": "mission", "priority": "high",
             "arrival": {"kind": "periodic", "interval": 30}, "demand": [0.2, 0.1], "power": 0.15,
             "processing": 8, "deadline": 15, "firm_deadline": True},
        ],
        scan={"demand": [0.3, 0.3], "power": 0.25, "duration": 2},
    )
    for seed in (1, 2):
        assert run_against_bypassed_repeats(cfg, seed, "star", monkeypatch)["exec"] > 0
