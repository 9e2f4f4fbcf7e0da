"""Telemetry oracle: the engine's array pass against the slot-by-slot loop.

``engine.intercept`` finds each slot's belief with a forward fill, decides
threshold-mode attacks in one call and keeps only the intensity
recursion, the dp decisions and the totals in a loop.  Its oracle in
``oracles.py`` is the per-slot ``Interceptor`` the engine ran before:
``receive`` each slot's packet, then ``act``.  The two must agree under
``==`` in every slot column, every window's drift and state, and the
totals bit for bit.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from satdefsim import engine
from satdefsim.attacker import AttackerParams
from satdefsim.config import load_config
from satdefsim.engine import EpisodeRunner, SignalTable, SlotTables, belief_entry, intercept

from conftest import BENCH_SCENARIOS, clear_engine_caches
from oracles import reference_intercept, reference_telemetry
from test_engine import valid_scenarios
from test_signal_tables import random_game_and_policy

STAR_FAMILY = ("star", "star-static", "stardis")
COLUMNS = ("signal", "belief_scan", "x_att", "attack_blocked", "realized_reward", "intensity", "drift")


def facts(seen) -> tuple:
    """An ``Interception`` as plain values, its floats by their bits."""
    return (
        tuple(getattr(seen, c) for c in COLUMNS),
        tuple(v.hex() for v in seen.intensity),
        seen.realized.hex(), seen.believed.hex(), seen.attacks, seen.blocked,
    )


def assert_pass_matches_the_loop(cfg, seed, policy):
    schedule = engine.defender_schedule(cfg, seed, policy)
    states, seen = EpisodeRunner(cfg, seed, policy).telemetry(schedule)
    ref_states, reference = reference_telemetry(EpisodeRunner(cfg, seed, policy), schedule)
    assert states == ref_states
    assert facts(seen) == facts(reference), (seed, policy)
    # the episode writes the pass's columns and totals
    metrics, traces = engine.run_episode(cfg, seed, policy)
    for column in COLUMNS[:-1]:
        assert traces.slots[column] == getattr(reference, column), column
    assert [w["drift"] for w in traces.windows] == reference.drift
    assert [w["state"] for w in traces.windows] == ref_states
    h = cfg.horizon
    assert metrics.attacker_realized == reference.realized / h
    assert metrics.attacker_believed == reference.believed / h
    assert (metrics.attack_count, metrics.blocked_attacks) == (reference.attacks, reference.blocked)


@pytest.mark.parametrize("mode", ["threshold", "dp"])
@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_benchmark_episodes_match_the_slot_loop(workload, mode):
    cfg = dataclasses.replace(load_config(BENCH_SCENARIOS / f"{workload}.yaml"), attacker_mode=mode)
    for seed in (1, 2, 3):
        for policy in STAR_FAMILY:
            assert_pass_matches_the_loop(cfg, seed, policy)


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_random_episodes_match_the_slot_loop(case):
    cfg, seed = case
    if cfg.attacker_mode == "none":
        cfg = dataclasses.replace(cfg, attacker_mode="threshold")
    clear_engine_caches()
    for policy in STAR_FAMILY:
        assert_pass_matches_the_loop(cfg, seed, policy)


def test_a_received_zero_mass_signal_raises():
    # a zero-prior state draws signals without mass under the prior; the
    # first slot that receives one raises, in the pass and in the loop
    raised = 0
    for seed in range(12):
        game, pol = random_game_and_policy(seed)
        n = 40
        rng = np.random.default_rng(seed)
        table = SignalTable(pol, game)
        prior = belief_entry(game.prior, game)
        tables = SlotTables([table] * n, prior)
        signals = tables.draw(rng.integers(0, len(pol), size=n), rng.random(n))
        erased = rng.random(n) < 0.3
        args = (tables, np.arange(n), signals, erased, [False] * n, [0.5] * n, 5, AttackerParams(), 0.55)
        dead = [m for m, e in zip(signals.tolist(), erased.tolist()) if not e and m not in table.posteriors]
        if not dead:
            assert facts(intercept(*args)) == facts(reference_intercept(*args, prior))
            continue
        raised += 1
        message = f"signal {dead[0]} has zero probability under the prior"
        with pytest.raises(ValueError, match=message):
            intercept(*args)
        with pytest.raises(ValueError, match=message):
            reference_intercept(*args, prior)
    assert raised >= 3
