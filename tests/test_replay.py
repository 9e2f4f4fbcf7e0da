"""Engine replay oracle: headline metrics recomputed from the slot and
window traces with library functions only.

The golden scenarios (2 seeds x 5 policies on the default scenario and on
its congested dynamic-programming variant, horizon 500) are replayed:

- ``defender_utility`` through ``detection_performance`` and
  ``slot_utility`` on each window's realized scan frequency, exactly;
- ``attack_count``, ``blocked_attacks``, ``erasure_count`` and
  ``scan_freq``, exactly;
- ``attacker_realized`` through ``realized_utility``, within 1e-12 (the
  engine accumulates its sum in a different order).
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from satdefsim.attacker import realized_utility
from satdefsim.engine import run_episode
from satdefsim.scheduler import detection_performance, slot_utility

from test_golden import CASES, GOLDEN, key, scenarios


def replay(cfg, traces) -> dict:
    s = traces.slots
    h = len(s["t"])
    assert s["t"] == list(range(h))
    util = cfg.utility
    defender = 0.0
    next_start = 0
    for w in traces.windows:
        start, length = w["start"], w["length"]
        assert start == next_start
        next_start = start + length
        f_w = float(np.mean(s["scan_on"][start:next_start]))
        y_w = detection_performance(f_w, cfg.scan.duration, util)
        for t in range(start, next_start):
            defender += slot_utility(y_w, s["scan_on"][t], s["z"][t], util)
    assert next_start == h
    return {
        "defender_utility": defender / h,
        "attack_count": sum(s["x_att"]),
        "blocked_attacks": sum(x * on for x, on in zip(s["x_att"], s["scan_on"])),
        "erasure_count": s["received"].count(0),
        "scan_freq": float(np.mean(s["scan_on"])),
        "attacker_realized": realized_utility(
            s["x_att"], s["z"], s["received"], cfg.attacker, scan_on=s["scan_on"]
        ),
    }


@pytest.fixture(scope="module")
def configs():
    return scenarios()


@pytest.mark.parametrize("scenario,seed,policy", CASES, ids=[key(*c) for c in CASES])
def test_metrics_replay_from_traces(configs, scenario, seed, policy):
    cfg = configs[scenario]
    metrics, traces = run_episode(cfg, seed, policy)
    got = replay(cfg, traces)
    assert got["defender_utility"] == metrics.defender_utility
    assert got["attack_count"] == metrics.attack_count
    assert got["blocked_attacks"] == metrics.blocked_attacks
    assert got["erasure_count"] == metrics.erasure_count
    assert got["scan_freq"] == metrics.scan_freq
    assert got["attacker_realized"] == pytest.approx(metrics.attacker_realized, rel=0, abs=1e-12)


def test_replayed_cases_include_attacks_and_erasures():
    # the oracle is only as strong as its cases: attacks, blocked attacks
    # and erasures all occur among the replayed episodes
    golden = json.loads(GOLDEN.read_text())
    for name in ("attack_count", "blocked_attacks", "erasure_count"):
        assert sum(golden[key(*case)]["metrics"][name] for case in CASES) > 0, name
