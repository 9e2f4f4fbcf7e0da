import numpy as np
import pytest
from hypothesis import given, strategies as st

from satdefsim import attacker, engine
from satdefsim.attacker import (
    AttackerParams,
    belief_update,
    best_response,
    dp_decision,
    intensity_update,
    threshold_decision,
)
from satdefsim.config import default_scenario

from conftest import clear_engine_caches
from oracles import enumerate_best_response, realized_utility

PARAMS = AttackerParams()  # reward 10, base cost 0.1, cost scale 0.5, memory 0.1


def lattice_best_response(reward, scan, params, start_intensity=0.0):
    """Reference DP over every reachable intensity, kept as an oracle.

    Exact, and with the same tie rule as ``best_response``, but a layer
    can double with every slot, so it is only run for short horizons.
    """
    eta, beta, kk = params.memory, params.base_cost, params.cost_scale
    n = len(reward)
    reward, scan = list(map(float, reward)), list(map(int, scan))
    keep, rest, hit = 1.0 - eta, eta * 0.0, eta * 1.0
    reachable = [{float(start_intensity)}]
    for t in range(n):
        layer = set()
        for a in reachable[t]:
            layer.add(keep * a + rest)
            if not scan[t]:
                layer.add(keep * a + hit)
        reachable.append(layer)
    value = dict.fromkeys(reachable[n], 0.0)
    attack = [set() for _ in range(n)]
    for t in range(n - 1, -1, -1):
        nxt, current = value, {}
        for a in reachable[t]:
            v_wait = nxt[keep * a + rest]
            current[a] = v_wait
            if not scan[t]:
                v_att = (reward[t] - beta * (1.0 + kk * a)) + nxt[keep * a + hit]
                if v_att > v_wait:
                    current[a] = v_att
                    attack[t].add(a)
        value = current
    plan = []
    a = float(start_intensity)
    for t in range(n):
        plan.append(int(a in attack[t]))
        a = keep * a + (hit if plan[-1] else rest)
    return plan, value[float(start_intensity)] / n


def folded_value(plan, reward, params, start_intensity=0.0):
    """A plan's planned utility, its attack terms summed back to front as
    ``enumerate_best_response`` sums them."""
    intensity = [start_intensity]
    for x in plan:
        intensity.append(intensity_update(intensity[-1], x, params.memory))
    value = 0.0
    for t in range(len(plan) - 1, -1, -1):
        if plan[t]:
            value = (reward[t] - params.base_cost * (1.0 + params.cost_scale * intensity[t])) + value
    return value / len(plan)


def random_params(rng):
    return AttackerParams(
        base_cost=float(rng.uniform(0.05, 0.5)),
        cost_scale=float(rng.uniform(0.1, 1.0)),
        memory=float(rng.choice([rng.uniform(0.05, 1.0), 0.1, 0.5, 1.0])),
    )


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

    @pytest.mark.parametrize("n", [2, 5])
    def test_exact_tie_waits(self, n):
        # from intensity 0 one attack pays (0.1002 > base cost 0.1) and a
        # second does not, so every slot gives the same value: the plan
        # attacks last
        plan = best_response([0.1002] * n, [0] * n, PARAMS)
        assert plan.decisions.tolist() == [0] * (n - 1) + [1]
        assert plan.value == enumerate_best_response([0.1002] * n, [0] * n, PARAMS).value

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

    @pytest.mark.parametrize("case", ["random", "one-slot", "all-scan"])
    def test_matches_enumeration_from_live_intensity(self, case):
        # the engine replans from the intensity the attack history left,
        # never from 0; check that start bit for bit, with the edge masks
        rng = np.random.default_rng({"random": 12, "one-slot": 13, "all-scan": 14}[case])
        for _ in range(25):
            n = 1 if case == "one-slot" else int(rng.integers(2, 11))
            rewards = rng.uniform(-0.5, 3.0, n)
            if case == "all-scan":
                scans = np.ones(n, dtype=int)
            else:
                scans = (rng.random(n) < 0.25).astype(int)
            params = AttackerParams(
                base_cost=float(rng.uniform(0.05, 0.5)),
                cost_scale=float(rng.uniform(0.1, 1.0)),
                memory=float(rng.uniform(0.05, 1.0)),
            )
            start = float(rng.choice([rng.random(), 1.0, 0.5, 1e-300]))
            dp = best_response(rewards, scans, params, start_intensity=start)
            brute = enumerate_best_response(rewards, scans, params, start_intensity=start)
            assert dp.value.hex() == brute.value.hex()
            assert dp.decisions.tolist() == brute.decisions.tolist()
            if case == "all-scan":
                assert dp.decisions.tolist() == [0] * n

    def test_value_monotone_in_detection_gap(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 8.0, 10)
        v1 = best_response(base, [0] * 10, PARAMS).value
        v2 = best_response(base + 1.0, [0] * 10, PARAMS).value
        assert v2 >= v1 - 1e-12

    def test_matches_lattice_on_random_rewards(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 17))
            rewards = rng.uniform(-0.5, 3.0, n)
            scans = (rng.random(n) < 0.2).astype(int)
            params = random_params(rng)
            start = float(rng.choice([0.0, rng.random(), 1.0]))
            dp = best_response(rewards, scans, params, start_intensity=start)
            plan, value = lattice_best_response(rewards, scans, params, start)
            assert dp.decisions.tolist() == plan
            assert dp.value.hex() == value.hex()

    def test_constant_rewards_within_rounding_of_enumeration(self):
        # the engine's pattern: one believed gap for every remaining slot.
        # Real-valued ties are common here, and rounding may break them
        # either way, so only the value is compared
        rng = np.random.default_rng(22)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            rewards = np.full(n, float(rng.uniform(0.0, 3.0)))
            scans = np.zeros(n, dtype=int)
            params = random_params(rng)
            start = float(rng.choice([0.0, rng.random(), 1.0]))
            dp = best_response(rewards, scans, params, start_intensity=start)
            brute = enumerate_best_response(rewards, scans, params, start_intensity=start)
            assert abs(dp.value - brute.value) <= 1e-12
            assert folded_value(dp.decisions.tolist(), rewards, params, start) == dp.value

    def test_long_horizon_grid_path(self):
        n = 60  # beyond any enumeration or lattice oracle
        plan = best_response([8.0] * n, [0] * n, PARAMS)
        assert plan.value > 0
        assert plan.decisions.sum() > 0
        realized = realized_utility(plan.decisions, [0.2] * n, [1] * n, PARAMS)
        assert abs(plan.value - realized) <= 1e-12

    def test_two_thousand_slots(self):
        rng = np.random.default_rng(23)
        n = 2000
        rewards = rng.uniform(-0.5, 3.0, n)
        scans = (rng.random(n) < 0.2).astype(int)
        dp = best_response(rewards, scans, PARAMS, start_intensity=0.5)
        plan = dp.decisions.tolist()
        assert not any(x and s for x, s in zip(plan, scans))
        assert folded_value(plan, rewards, PARAMS, 0.5) == dp.value
        # no single changed decision does better
        for t in rng.choice(np.flatnonzero(scans == 0), size=30, replace=False):
            other = list(plan)
            other[t] = 1 - other[t]
            assert folded_value(other, rewards, PARAMS, 0.5) <= dp.value + 1e-12

    @pytest.mark.parametrize("start", [-0.1, 1.5, float("nan")])
    def test_start_intensity_outside_unit_interval_rejected(self, start):
        with pytest.raises(ValueError, match="start_intensity"):
            best_response([1.0], [0], PARAMS, start_intensity=start)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            best_response([], [], PARAMS)


class TestLayerCache:
    """dp_decision keeps the value layers of recent windows, keyed by
    (gap, remaining) and the dynamics parameters; a warm memo must give
    the cold answer, bit for bit, from any start."""

    @pytest.fixture(autouse=True)
    def cold(self):
        attacker._LAYER_CACHE.clear()
        yield
        attacker._LAYER_CACHE.clear()

    @staticmethod
    def _counting(monkeypatch):
        builds = []
        build = attacker._earlier_layer

        def counting(*args):
            builds.append(args[1])  # the gap
            return build(*args)

        monkeypatch.setattr(attacker, "_earlier_layer", counting)
        return builds

    @pytest.mark.parametrize("shape", ["constant", "random"])
    def test_warm_equals_cold_over_start_intensities(self, shape, monkeypatch):
        # "constant": the interceptor's believed gaps; "random": gaps over
        # the range of random rewards, negative ones included
        rng = np.random.default_rng({"constant": 31, "random": 32}[shape])
        builds = self._counting(monkeypatch)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            gap = float(rng.uniform(0.0, 3.0) if shape == "constant" else rng.uniform(-0.5, 3.0))
            params = random_params(rng)
            starts = [0.0, 1.0, 0.5, float(rng.random()), float(rng.random())]
            cold = []
            for start in starts:
                attacker._LAYER_CACHE.clear()
                cold.append(dp_decision(gap, n, params, start))
            plans = [best_response([gap] * n, [0] * n, params, start_intensity=start) for start in starts]
            assert cold == [plan.decisions[0] for plan in plans]
            attacker._LAYER_CACHE.clear()
            del builds[:]
            warm = [dp_decision(gap, n, params, start) for start in starts]
            assert builds == [gap] * (n - 1)  # the value of 1 .. n - 1 slots, built once, then read
            assert warm == cold
            # every shorter window of the gap is held too
            for r in range(1, n):
                dp_decision(gap, r, params, 0.5)
            assert len(builds) == n - 1

    def test_warm_cache_matches_enumeration(self, monkeypatch):
        # slot by slot from a warm memo, the decisions form an optimal plan
        rng = np.random.default_rng(33)
        builds = self._counting(monkeypatch)
        monkeypatch.setattr(attacker, "_LAYER_CACHE_SIZE", 256)  # room for every window's layers
        cases = []
        for _ in range(12):
            n = int(rng.integers(1, 11))
            cases.append((float(rng.uniform(-0.5, 3.0)), n, random_params(rng)))
        for gap, n, params in cases:  # warm every entry first
            dp_decision(gap, n, params, 0.0)
        del builds[:]
        walked = []
        for gap, n, params in cases:
            for start in (0.0, 1.0, float(rng.random()), 1e-300):
                plan, a = [], start
                for k in range(n):
                    plan.append(dp_decision(gap, n - k, params, a))
                    a = intensity_update(a, plan[-1], params.memory)
                walked.append((gap, n, params, start, plan))
        assert builds == []
        for gap, n, params, start, plan in walked:
            rewards = [gap] * n
            dp = best_response(rewards, [0] * n, params, start_intensity=start)
            brute = enumerate_best_response(rewards, [0] * n, params, start_intensity=start)
            assert plan == dp.decisions.tolist()
            # constant rewards tie in real numbers, so only the value is compared
            assert abs(folded_value(plan, rewards, params, start) - brute.value) <= 1e-12

    def test_keyed_by_gap_remaining_and_params(self, monkeypatch):
        builds = self._counting(monkeypatch)
        dp_decision(1.0, 3, PARAMS, 0.0)
        assert len(builds) == 2  # the value of 1 and of 2 slots
        dp_decision(1.0 + 1e-15, 3, PARAMS, 0.0)
        assert len(builds) == 4
        dp_decision(1.0, 4, PARAMS, 0.0)  # the value of 3 slots, on the 2 held
        assert len(builds) == 5
        for changed in ({"memory": 0.2}, {"base_cost": 0.2}, {"cost_scale": 0.7}):
            dp_decision(1.0, 3, AttackerParams(**changed), 0.0)
        assert len(builds) == 11
        # the same key: another start, a numpy gap, and reward_weight does
        # not enter the layers
        dp_decision(1.0, 3, PARAMS, 0.7)
        dp_decision(np.float64(1.0), 2, PARAMS, 0.0)
        dp_decision(1.0, 4, AttackerParams(reward_weight=3.0), 0.0)
        assert len(builds) == 11

    def test_long_calls_not_kept_and_entries_bounded(self, monkeypatch):
        rng = np.random.default_rng(34)
        monkeypatch.setattr(attacker, "_LAYER_CACHE_LINES", 1)
        for _ in range(20):  # layers of more lines than the bound are not kept
            gap, n, start = float(rng.uniform(0.0, 3.0)), int(rng.integers(1, 40)), float(rng.random())
            plan = best_response([gap] * n, [0] * n, PARAMS, start_intensity=start)
            assert dp_decision(gap, n, PARAMS, start) == plan.decisions[0]
        assert all(len(layer) <= 1 for layer in attacker._LAYER_CACHE.values())
        monkeypatch.undo()
        attacker._LAYER_CACHE.clear()
        for k in range(3 * attacker._LAYER_CACHE_SIZE):
            dp_decision(1.0 + k, 2, PARAMS, 0.0)  # holds the value of 0 and of 1 slot
        assert len(attacker._LAYER_CACHE) == attacker._LAYER_CACHE_SIZE
        # oldest out first: the entries left are those of the last calls
        last = 3 * attacker._LAYER_CACHE_SIZE - attacker._LAYER_CACHE_SIZE // 2
        assert list(attacker._LAYER_CACHE)[:2] == [
            (1.0 + last, r, PARAMS.memory, PARAMS.base_cost, PARAMS.cost_scale) for r in (1, 2)
        ]

    def test_dp_episode_builds_few_layers_and_no_plan(self, monkeypatch):
        # the layers of each distinct (gap, remaining) pair are built once,
        # and a dp episode never builds an AttackPlan
        builds = self._counting(monkeypatch)
        decisions, plans = [], []
        monkeypatch.setattr(engine, "dp_decision", lambda *a: decisions.append(1) or dp_decision(*a))
        monkeypatch.setattr(attacker, "AttackPlan", lambda **k: plans.append(1))
        cfg = default_scenario(horizon=200, attacker={"mode": "dp"})
        clear_engine_caches()
        engine.run_episode(cfg, 3, "stardis")
        assert len(decisions) == cfg.horizon
        assert 0 < len(builds) < cfg.horizon / 4
        assert plans == []


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
