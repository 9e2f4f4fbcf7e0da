"""Golden-episode regression: pinned metrics and trace hashes.

Every ``EpisodeMetrics`` field and a SHA-256 of the slot and window traces
are compared exactly against ``tests/golden_episodes.json`` for 2 seeds x
5 policies on the default scenario and on a congested variant with the
dynamic-programming interceptor.  A change that is meant to leave results
alone (a refactor or a speed-up) must keep this test passing unchanged.

Regenerate the file only for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py

It prints each key whose record differs from the file it replaces, with
the fields that changed, for the change's notes.
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


def changed_fields(old: dict | None, new: dict | None) -> list[str]:
    """The fields of two records that differ, metrics by name as
    ``metrics.<name>``; ``["(added)"]`` or ``["(removed)"]`` where one
    side has no record."""
    if old is None or new is None:
        return ["(added)" if old is None else "(removed)"]
    fields = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if name == "metrics" and isinstance(a, dict) and isinstance(b, dict):
            fields += [f"metrics.{m}" for m in sorted(a.keys() | b.keys()) if a.get(m) != b.get(m)]
        elif a != b:
            fields.append(name)
    return fields


def test_changed_fields_names_each_difference():
    old = {"metrics": {"completed": 3, "utilization": {"cpu": 1.0}}, "slots_sha256": "a", "windows_sha256": "b"}
    new = {"metrics": {"completed": 3, "utilization": {"cpu": 1.5}}, "slots_sha256": "c", "windows_sha256": "b"}
    assert changed_fields(old, new) == ["metrics.utilization", "slots_sha256"]
    assert changed_fields(old, old) == []
    assert changed_fields(None, new) == ["(added)"] and changed_fields(old, None) == ["(removed)"]


if __name__ == "__main__":
    cfgs = scenarios()
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out = {key(sc, seed, pol): record(cfgs[sc], seed, pol) for sc, seed, pol in CASES}
    changed = {
        k: changed_fields(previous.get(k), out.get(k))
        for k in sorted(previous.keys() | out.keys())
        if previous.get(k) != out.get(k)
    }
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} episodes to {GOLDEN}; {len(changed)} changed")
    for k, names in changed.items():
        print(f"  {k}: {', '.join(names)}")
