from pathlib import Path

import numpy as np
import pytest

from satdefsim import attacker, engine, persuasion, scheduler
from satdefsim.config import from_dict
from satdefsim.scheduler import ScanTask, SchedulerConfig, UtilityParams
from satdefsim.workload import Arrival, Nature, Priority, TaskInstance, TaskSpec

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def clear_engine_caches():
    """Empty every engine cache, the slot solver's decision memos, the
    plan memos, the plan's held planner, the interceptor's layer memo and
    the exact split LPs, so that the next episode builds cold."""
    for cached in (engine._game_assets, engine._signal_plan, scheduler._slot_memo, persuasion._exact_split_lp):
        cached.cache_clear()
    clear_plan_memo()
    engine._SCHEDULE_CACHE.clear()
    attacker._LAYER_CACHE.clear()


def clear_plan_memo():
    """Empty the plan memos and drop the held planner, which holds its
    scope's memo, so that the next plan solves every slot of its window."""
    scheduler._plan_memo.cache_clear()
    scheduler._held_planner.clear()


def head_of_line_scenario():
    """A 30-slot fcfs scenario whose first slot queues a CPU hog, a second
    hog and an FPGA-only task, in that order: the second hog blocks the
    light task although the FPGA sits idle."""
    return from_dict({
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


@pytest.fixture
def utility():
    return UtilityParams()


def make_spec(
    tid="task",
    priority=Priority.LOW,
    arrival=None,
    demand=(0.05, 0.15),
    power=0.1,
    processing=4,
    deadline=12,
    firm=False,
    rate=0.3,
):
    if arrival is None:
        arrival = Arrival(kind="aperiodic", rate=rate)
    return TaskSpec(
        id=tid,
        nature=Nature.MISSION,
        priority=priority,
        arrival=arrival,
        demand=np.asarray(demand, dtype=float),
        power_weight=power,
        processing=processing,
        relative_deadline=deadline,
        firm_deadline=firm,
    )


def make_instance(uid=0, req=0, **spec_kwargs):
    return TaskInstance(uid=uid, spec=make_spec(**spec_kwargs), req=req)


def micro_instance(rng, max_tasks=2, with_quota=False):
    """Random small scheduling instance for oracle comparisons."""
    w = int(rng.integers(6, 11))
    d_s = int(rng.integers(2, 4))
    scan = ScanTask(
        demand=rng.uniform(0.1, 0.3, 2),
        power_weight=float(rng.uniform(0.05, 0.3)),
        duration=d_s,
    )
    cfg = SchedulerConfig(scan=scan, power_budget=1.0)
    insts = []
    targets = {}
    for j in range(int(rng.integers(1, max_tasks + 1))):
        p = int(rng.integers(2, 5))
        arr = int(rng.integers(0, max(w - p, 1)))
        firm = bool(rng.random() < 0.3)
        spec = make_spec(
            tid=f"t{j}",
            priority=Priority.HIGH if firm else Priority.LOW,
            demand=rng.uniform(0.1, 0.45, 2),
            power=float(rng.uniform(0.05, 0.3)),
            processing=p,
            deadline=int(rng.integers(p, w + 3)),
            firm=firm,
        )
        insts.append(TaskInstance(uid=j, spec=spec, req=arr))
        if with_quota and not firm and rng.random() < 0.5:
            targets[spec.id] = float(rng.uniform(0.05, min(0.3, p / w)))
    return w, cfg, insts, targets
