"""Golden-episode regression: pinned metrics and trace hashes.

Every ``EpisodeMetrics`` field and a SHA-256 of the slot and window traces
are compared exactly against ``tests/golden_episodes.json`` for 2 seeds x
5 policies on the default scenario and on a congested variant with the
dynamic-programming interceptor.  A change that is meant to leave results
alone (a refactor or a speed-up) must keep this test passing unchanged.

Regenerate the file only for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from satdefsim.config import default_scenario
from satdefsim.engine import run_episode
from satdefsim.workload import Arrival

GOLDEN = Path(__file__).resolve().parent / "golden_episodes.json"
HORIZON = 500
SEEDS = (0, 1)
POLICIES = ("fcfs", "sp", "star", "star-static", "stardis")


def scenarios():
    base = default_scenario(horizon=HORIZON)
    tasks = tuple(
        dataclasses.replace(s, arrival=Arrival(kind="aperiodic", rate=0.4)) if s.id == "routine" else s
        for s in base.tasks
    )
    return {
        "default": base,
        "congested-dp": dataclasses.replace(base, tasks=tasks, attacker_mode="dp"),
    }


def _jsonable(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"cannot hash {type(o).__name__}")


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=_jsonable).encode()).hexdigest()


def record(cfg, seed: int, policy: str) -> dict:
    metrics, traces = run_episode(cfg, seed, policy)
    return {
        "metrics": json.loads(json.dumps(dataclasses.asdict(metrics), default=_jsonable)),
        "slots_sha256": _sha(traces.slots),
        "windows_sha256": _sha(traces.windows),
    }


def key(scenario: str, seed: int, policy: str) -> str:
    return f"{scenario}/seed{seed}/{policy}"


CASES = [(sc, seed, pol) for sc in ("default", "congested-dp") for seed in SEEDS for pol in POLICIES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def configs():
    return scenarios()


def test_congested_variant_differs_only_as_intended(configs):
    base, cong = configs["default"], configs["congested-dp"]
    assert cong.attacker_mode == "dp" and base.attacker_mode == "threshold"
    rates = {s.id: s.arrival.rate for s in cong.tasks}
    assert rates["routine"] == 0.4
    assert dataclasses.replace(cong, tasks=base.tasks, attacker_mode="threshold") == base


@pytest.mark.parametrize("scenario,seed,policy", CASES, ids=[key(*c) for c in CASES])
def test_episode_matches_golden(golden, configs, scenario, seed, policy):
    assert record(configs[scenario], seed, policy) == golden[key(scenario, seed, policy)]


def test_dp_attacker_acts_in_congested_episodes(golden):
    # the congested variant is the episode-level exercise of the dp
    # interceptor: it must actually attack under the star family
    for seed in SEEDS:
        for pol in ("star", "star-static", "stardis"):
            assert golden[key("congested-dp", seed, pol)]["metrics"]["attack_count"] > 0


if __name__ == "__main__":
    cfgs = scenarios()
    out = {key(sc, seed, pol): record(cfgs[sc], seed, pol) for sc, seed, pol in CASES}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} episodes to {GOLDEN}")
