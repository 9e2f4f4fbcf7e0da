import numpy as np
import pytest
from hypothesis import given, strategies as st

from satdefsim.attacker import (
    AttackerParams,
    belief_update,
    best_response,
    enumerate_best_response,
    intensity_update,
    realized_utility,
    threshold_decision,
)

PARAMS = AttackerParams()  # reward 10, base cost 0.1, cost scale 0.5, memory 0.1


class TestIntensity:
    def test_attack_from_zero(self):
        assert intensity_update(0.0, 1, 0.1) == pytest.approx(0.1)

    def test_decay(self):
        assert intensity_update(0.5, 0, 0.1) == pytest.approx(0.45)

    def test_full_memory_reset(self):
        for a in (0.0, 0.3, 1.0):
            assert intensity_update(a, 0, 1.0) == 0.0

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
        st.floats(0.01, 1.0),
    )
    def test_stays_in_unit_interval(self, plan, memory):
        a = 0.0
        for x in plan:
            a = intensity_update(a, x, memory)
            assert 0.0 <= a <= 1.0


class TestRealizedUtility:
    def test_never_attacking_is_zero(self):
        n = 10
        assert realized_utility([0] * n, [0.5] * n, [1] * n, PARAMS) == 0.0

    def test_single_successful_attack(self):
        assert realized_utility([1], [0.0], [1], PARAMS) == pytest.approx(9.9)

    def test_blind_attack_pure_cost(self):
        assert realized_utility([1], [0.0], [0], PARAMS) == pytest.approx(-0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            realized_utility([1, 0], [0.5], [1, 1], PARAMS)

    def test_scan_gate_blocks_reward(self):
        with_gate = realized_utility([1], [0.0], [1], PARAMS, scan_on=[1])
        assert with_gate == pytest.approx(-0.1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
    def test_all_erased_never_positive(self, plan):
        n = len(plan)
        val = realized_utility(plan, [0.0] * n, [0] * n, PARAMS)
        assert val <= 0.0


class TestBestResponse:
    def test_no_gap_means_no_attack(self):
        n = 6
        plan = best_response([0.0] * n, [0] * n, PARAMS)
        assert plan.decisions.tolist() == [0] * n
        assert plan.value == 0.0

    def test_two_slot_example(self):
        # rewards are reward_weight*(1-z): z=(1,0) -> (0, 10)
        plan = best_response([0.0, 10.0], [0, 0], PARAMS)
        assert plan.decisions.tolist() == [0, 1]
        assert plan.value == pytest.approx(4.95)

    def test_scan_everywhere_forbids_attacks(self):
        n = 8
        plan = best_response([10.0] * n, [1] * n, PARAMS)
        assert plan.decisions.tolist() == [0] * n

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 13))
            rewards = rng.uniform(-0.5, 1.0, n) * rng.choice([0.0, 1.0], n)
            scans = (rng.random(n) < 0.2).astype(int)
            params = AttackerParams(
                reward_weight=float(rng.uniform(1, 10)),
                base_cost=float(rng.uniform(0.05, 0.5)),
                cost_scale=float(rng.uniform(0.1, 1.0)),
                memory=float(rng.uniform(0.05, 0.9)),
            )
            dp = best_response(rewards, scans, params)
            brute = enumerate_best_response(rewards, scans, params)
            assert dp.value == brute.value
            assert dp.decisions.tolist() == brute.decisions.tolist()

    def test_value_monotone_in_detection_gap(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 8.0, 10)
        v1 = best_response(base, [0] * 10, PARAMS).value
        v2 = best_response(base + 1.0, [0] * 10, PARAMS).value
        assert v2 >= v1 - 1e-12

    def test_long_horizon_grid_path(self):
        n = 60  # beyond the exact-tracking horizon
        plan = best_response([8.0] * n, [0] * n, PARAMS)
        assert plan.value > 0
        assert plan.decisions.sum() > 0

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            best_response([], [], PARAMS)


class TestBelief:
    def test_bayes_example(self):
        pol = np.array([[0.8, 0.2], [0.4, 0.6]])
        post = belief_update(np.array([0.5, 0.5]), 0, pol)
        np.testing.assert_allclose(post, [2 / 3, 1 / 3])

    def test_fully_revealing_point_mass(self):
        pol = np.eye(3)
        post = belief_update(np.array([0.2, 0.5, 0.3]), 1, pol)
        np.testing.assert_allclose(post, [0, 1, 0])

    def test_erasure_resets_to_prior(self):
        prior = np.array([0.5, 0.5])
        post = belief_update(prior, None, np.eye(2))
        np.testing.assert_allclose(post, prior)
        assert post is not prior

    def test_zero_probability_signal_raises(self):
        pol = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            belief_update(np.array([0.5, 0.5]), 1, pol)

    @given(st.integers(0, 3))
    def test_posterior_normalized(self, sig):
        rng = np.random.default_rng(sig)
        pol = rng.dirichlet(np.ones(4), size=3)
        prior = rng.dirichlet(np.ones(3))
        post = belief_update(prior, sig, pol)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)


class TestThreshold:
    def test_prior_below_threshold_attacks(self):
        assert threshold_decision(0.5, 0.55) is True

    def test_above_threshold_waits(self):
        assert threshold_decision(0.6, 0.55) is False

    def test_exact_tie_waits(self):
        assert threshold_decision(0.55, 0.55) is False

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            threshold_decision(0.5, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        AttackerParams(memory=0.0)
    with pytest.raises(ValueError):
        AttackerParams(base_cost=-1.0)
