"""Engine replay oracle: headline metrics recomputed from the slot and
window trace files with library functions only.

The golden scenarios (2 seeds x 5 policies on the default scenario and on
its congested dynamic-programming variant, horizon 500) are written with
``write_slot_traces`` and ``write_window_traces``, read back with ``csv``
and replayed, every metric exactly:

- ``defender_utility`` through ``detection_performance`` and
  ``slot_utility`` on each window's realized scan frequency;
- ``attack_count``, ``blocked_attacks``, ``erasure_count`` and
  ``scan_freq``;
- ``attacker_realized`` through ``realized_utility``, which sums the
  attacks in the engine's order.

The same rows are audited: idle capacity never below zero, power within
its budget, and the episode's instance accounting identity.  Every float
cell of both files reads back as the value in memory.

The downlink columns of the slot trace (``mean_snr_db``, ``delay_slots``
and ``budget``) are recomputed slot by slot from the channel and
persuasion functions, exactly, on the golden scenarios and on two more:
a horizon that leaves a short last window and one longer than the pass.
"""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from satdefsim.channel import OutageTable, delivery_delay_slots, predict_mean_snr
from satdefsim.config import default_scenario
from satdefsim.engine import (
    SLOT_TRACE_COLUMNS,
    WINDOW_TRACE_COLUMNS,
    run_episode,
    write_slot_traces,
    write_window_traces,
)
from satdefsim.persuasion import BudgetCurve, allocate_on_grid, build_scan_game, choose_artificial_delay
from satdefsim.scheduler import detection_performance, slot_utility

from oracles import realized_utility
from test_golden import CASES, GOLDEN, POLICIES, key, scenarios


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_and_read(traces, directory) -> tuple[list[dict], list[dict]]:
    """The slot and window rows of ``traces`` as written to CSV files and
    read back, every cell a string."""
    write_slot_traces(traces, directory / "slots.csv")
    write_window_traces(traces, directory / "windows.csv")
    return read_csv(directory / "slots.csv"), read_csv(directory / "windows.csv")


def replay(cfg, slot_rows, window_rows) -> dict:
    """The episode metrics recomputed from the trace files' rows."""
    s = {c: [int(r[c]) for r in slot_rows] for c in ("t", "scan_on", "received", "x_att")}
    s["z"] = [float(r["z"]) for r in slot_rows]
    h = len(slot_rows)
    assert s["t"] == list(range(h))
    util = cfg.utility
    defender = 0.0
    next_start = 0
    for w in window_rows:
        start, length = int(w["start"]), int(w["length"])
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
def test_metrics_replay_from_traces(configs, tmp_path, scenario, seed, policy):
    cfg = configs[scenario]
    metrics, traces = run_episode(cfg, seed, policy)
    slot_rows, window_rows = write_and_read(traces, tmp_path)
    got = replay(cfg, slot_rows, window_rows)
    for name, value in got.items():
        assert value == getattr(metrics, name), name
    # the executed schedule, audited on the same rows
    assert min(float(r["z"]) for r in slot_rows) >= -1e-9
    assert max(float(r["power"]) for r in slot_rows) <= cfg.power_budget + 1e-9
    assert metrics.completed + metrics.dropped + metrics.missed + metrics.residual == metrics.generated


@pytest.mark.parametrize("scenario,seed,policy", CASES, ids=[key(*c) for c in CASES])
def test_trace_files_read_back_exactly(configs, tmp_path, scenario, seed, policy):
    _, traces = run_episode(configs[scenario], seed, policy)
    slot_rows, window_rows = write_and_read(traces, tmp_path)
    written = [(slot_rows, SLOT_TRACE_COLUMNS, list(traces.slot_rows())),
               (window_rows, WINDOW_TRACE_COLUMNS, traces.windows)]
    floats = 0
    for rows, columns, want in written:
        assert len(rows) == len(want)
        for row, mem in zip(rows, want):
            for c in columns:
                if isinstance(mem[c], float):
                    assert float(row[c]) == mem[c], c
                    floats += 1
                else:
                    assert row[c] == str(mem[c]), c
    assert floats > 0


def test_replayed_cases_include_attacks_and_erasures():
    # the oracle is only as strong as its cases: attacks, blocked attacks
    # and erasures all occur among the replayed episodes
    golden = json.loads(GOLDEN.read_text())
    for name in ("attack_count", "blocked_attacks", "erasure_count"):
        assert sum(golden[key(*case)]["metrics"][name] for case in CASES) > 0, name


# ---------------------------------------------------------------------------
# Downlink columns
# ---------------------------------------------------------------------------

def budget_curve(cfg) -> BudgetCurve:
    """The scenario's stardis budget curve, built without the engine."""
    p = cfg.persuasion
    game = build_scan_game(
        reward_weight=cfg.attacker.reward_weight,
        base_cost=cfg.attacker.base_cost,
        prior_scan=p.prior_scan,
        z_bins=p.z_bins,
    )
    return BudgetCurve(game, points=p.budget_points, subdivisions=p.subdivisions)


def downlink_columns(cfg, policy: str, curve: BudgetCurve) -> dict[str, list]:
    """``mean_snr_db``, ``delay_slots`` and ``budget`` of every slot:
    the forecast at the slot, its delivery delay (with stardis's
    artificial delay) and the credibility budget its signal was drawn
    under (none without signaling, the flat budget for star-static and
    the window's outage-weighted allocation for stardis)."""
    geo, p, h = cfg.geometry, cfg.persuasion, cfg.horizon
    signaling = cfg.attacker_mode != "none" and policy in ("star", "star-static", "stardis")
    snr = [float(predict_mean_snr(t, 1, geo)[0]) for t in range(h)]
    prop = [geo.propagation_delay_ms(t) for t in range(h)]
    added = [0.0] * h
    budget = [p.credibility if signaling and policy == "star-static" else 0.0] * h
    if signaling and policy == "stardis":
        outage = OutageTable(cfg.channel, min(snr), max(snr))
        for start in range(0, h, cfg.window):
            slots = range(start, min(start + cfg.window, h))
            pout = outage(np.array([snr[t] for t in slots]))
            for t, level in zip(slots, allocate_on_grid(pout, p.credibility * len(slots), curve)):
                budget[t] = float(curve.budgets[level])
        added = [
            choose_artificial_delay(
                snr[t], prop[t], p.delay_max_ms, cfg.proc_delay_ms, p.delay_snr_lo_db, p.delay_snr_hi_db
            )
            for t in range(h)
        ]
    delay = [int(delivery_delay_slots(prop[t], cfg.proc_delay_ms, added[t], cfg.slot_ms)) for t in range(h)]
    return {"mean_snr_db": snr, "delay_slots": delay, "budget": budget}


def downlink_scenarios():
    """The golden scenarios and two whose windows or pass differ.  The
    default budget buys every stardis slot the same level; the smaller
    one of ``beyond-pass`` buys two slots a window, chosen by outage."""
    out = scenarios()
    out["short-last-window"] = default_scenario(horizon=503, window=5)
    out["beyond-pass"] = default_scenario(
        horizon=600,
        channel={
            "fading": {"b0": 0.158, "m": 19.4, "omega": 1.29},
            "snr_threshold_db": 5.0,
            "geometry": {"d_min_km": 550.0, "d_max_km": 1600.0, "peak_snr_db": 12.0, "pass_slots": 400},
        },
        persuasion={"credibility": 0.05},
    )
    return out


DOWNLINK_CASES = CASES + [
    (sc, 0, pol) for sc in ("short-last-window", "beyond-pass") for pol in POLICIES
]


@pytest.fixture(scope="module")
def downlink_configs():
    return downlink_scenarios()


@pytest.fixture(scope="module")
def curves(downlink_configs):
    return {name: budget_curve(cfg) for name, cfg in downlink_configs.items()}


def test_downlink_scenarios_cover_the_edges(downlink_configs, curves):
    short = downlink_configs["short-last-window"]
    assert short.horizon % short.window != 0
    beyond = downlink_configs["beyond-pass"]
    assert beyond.horizon > beyond.geometry.pass_slots
    # the allocation picks different slots in different windows
    budget = downlink_columns(beyond, "stardis", curves["beyond-pass"])["budget"]
    picked = {
        tuple(k for k in range(beyond.window) if budget[start + k] > 0)
        for start in range(0, beyond.horizon, beyond.window)
    }
    assert len(picked) > 1 and () not in picked


@pytest.mark.parametrize("scenario,seed,policy", DOWNLINK_CASES, ids=[key(*c) for c in DOWNLINK_CASES])
def test_downlink_columns_replay(downlink_configs, curves, scenario, seed, policy):
    cfg = downlink_configs[scenario]
    _, traces = run_episode(cfg, seed, policy)
    want = downlink_columns(cfg, policy, curves[scenario])
    for column, values in want.items():
        assert traces.slots[column] == values, column
