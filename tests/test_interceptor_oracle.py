"""Interceptor oracle: the dp interceptor against its plan-and-replan form.

``ReferenceInterceptor`` (in ``oracles.py``) plans the rest of the window
with ``best_response`` and follows the plan until the belief changes or
the plan is used up.  The engine's telemetry pass decides every slot with
``dp_decision``.  By the principle of optimality the two must take the
same decisions, so whole episodes must match bit for bit, and
``dp_decision`` must take a plan's decision at every offset.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from satdefsim import engine
from satdefsim.attacker import AttackerParams, best_response, dp_decision, intensity_update
from satdefsim.config import load_config

from conftest import BENCH_SCENARIOS, clear_engine_caches
from oracles import ReferenceInterceptor, reference_telemetry
from test_attacker import random_params
from test_engine import valid_scenarios

STAR_FAMILY = ("star", "star-static", "stardis")


def interceptor_view(cfg, seed, policy, interceptor=None) -> tuple:
    """What the interceptor of one episode does: its per-slot decisions,
    intensities and beliefs, and its totals; from the engine's telemetry
    pass, or from the slot-by-slot reference with ``interceptor``."""
    schedule = engine.defender_schedule(cfg, seed, policy)
    runner = engine.EpisodeRunner(cfg, seed, policy)
    if interceptor is None:
        _, seen = runner.telemetry(schedule)
    else:
        _, seen = reference_telemetry(runner, schedule, interceptor)
    return (
        seen.x_att, seen.intensity, seen.belief_scan,
        seen.realized.hex(), seen.believed.hex(), seen.attacks, seen.blocked,
    )


def assert_same_episodes(cfg, seeds):
    cfg = dataclasses.replace(cfg, attacker_mode="dp")
    for seed in seeds:
        for policy in STAR_FAMILY:
            clear_engine_caches()
            live = interceptor_view(cfg, seed, policy)
            reference = interceptor_view(cfg, seed, policy, ReferenceInterceptor)
            assert live == reference, (seed, policy)


@settings(max_examples=30, deadline=None)
@given(valid_scenarios())
def test_random_dp_episodes_match_the_replanning_interceptor(case):
    cfg, seed = case
    assert_same_episodes(cfg, [seed])


@pytest.mark.parametrize("workload", ["suite-default", "congested-dp"])
def test_benchmark_episodes_match_the_replanning_interceptor(workload):
    # suite-default runs the threshold interceptor; here it runs dp
    assert_same_episodes(load_config(BENCH_SCENARIOS / f"{workload}.yaml"), [1, 2])


def assert_decides_as_the_plan(gap, n, params, start):
    """dp_decision takes the plan's decision at every offset, at the
    intensity the plan reaches there."""
    plan = best_response([gap] * n, [0] * n, params, start_intensity=start).decisions.tolist()
    a = start
    for k, x in enumerate(plan):
        assert dp_decision(gap, n - k, params, a) == x, (gap, n, k, a)
        a = intensity_update(a, x, params.memory)


def test_dp_decision_takes_the_plans_decision_at_every_offset():
    rng = np.random.default_rng(41)
    for _ in range(300):
        params = random_params(rng)
        n = int(rng.integers(1, 61))
        start = float(rng.choice([0.0, 1.0, rng.random()]))
        # random gaps, and gaps that tie attacking and waiting exactly in a
        # last slot (at the start intensity, or at 0 or 1 where it settles)
        tie_at = float(rng.choice([start, 0.0, 1.0]))
        tie = params.base_cost * (1.0 + params.cost_scale * tie_at)
        for gap in (float(rng.uniform(0.0, 3.0)), tie, math.nextafter(tie, math.inf)):
            assert_decides_as_the_plan(gap, n, params, start)


@pytest.mark.parametrize("intensity", [0.0, 0.3, 1.0])
def test_exact_tie_waits(intensity):
    # one slot left: attacking pays gap - cost and waiting 0
    params = AttackerParams()
    cost = params.base_cost * (1.0 + params.cost_scale * intensity)
    assert dp_decision(cost, 1, params, intensity) == 0
    assert dp_decision(math.nextafter(cost, math.inf), 1, params, intensity) == 1
    assert dp_decision(math.nextafter(cost, -math.inf), 1, params, intensity) == 0


@pytest.mark.parametrize("remaining, intensity", [(0, 0.0), (-1, 0.0), (3, -0.1), (3, 1.5), (3, math.nan)])
def test_out_of_range_arguments_rejected(remaining, intensity):
    with pytest.raises(ValueError):
        dp_decision(1.0, remaining, AttackerParams(), intensity)
