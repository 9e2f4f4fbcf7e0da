import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from satdefsim.persuasion import (
    BudgetCurve,
    InfeasibleSplitError,
    PersuasionGame,
    PosteriorSplit,
    allocate_on_grid,
    attacker_value,
    build_scan_game,
    choose_artificial_delay,
    credibility_cost,
    entropy,
    is_equilibrium_belief,
    lyapunov_drift,
    min_attacker_value,
    policy_from_split,
    quantize_state,
    simplex_grid,
    solve_persuasion,
    split_from_policy,
)


def two_state_game(payoff, prior=(0.5, 0.5), n_signals=4):
    return PersuasionGame(
        attack_payoff=np.asarray(payoff, dtype=float),
        prior=np.asarray(prior, dtype=float),
        z_bins=2,
        z_rep=np.zeros(2),
        scan_flag=np.array([0, 1]),
        n_signals=n_signals,
    )


def _curve_tables(payoff, grid):
    p = np.linspace(0.0, 1.0, grid + 1)
    v = np.maximum(p * payoff[0] + (1 - p) * payoff[1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(np.where(p > 0, p * np.log(p), 0.0) + np.where(p < 1, (1 - p) * np.log(1 - p), 0.0))
    return p, v, h


def _entropy_scalar(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def brute_force_two_state(payoff, prior, budget, grid=2000, tri_grid=120):
    """Independent oracle: exhaustive search over Bayes-plausible splits.

    Two-posterior splits are scanned densely on one side and solved on
    the other: for each left posterior the budget-slack pairs are
    enumerated and the budget-binding pair is located by sign change and
    root interpolation.  A coarse three-point family (basic solutions of
    the split program have at most three support points) is kept as a
    safety net.
    """
    payoff = np.asarray(payoff, dtype=float)
    mu = float(prior[0])
    best = np.inf
    if _entropy_scalar(mu) <= budget + 1e-12:
        best = max(mu * payoff[0] + (1 - mu) * payoff[1], 0.0)

    b_grid = np.linspace(mu, 1.0, grid + 1)
    v_b = np.maximum(b_grid * payoff[0] + (1 - b_grid) * payoff[1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_b = -(
            np.where(b_grid > 0, b_grid * np.log(b_grid), 0.0)
            + np.where(b_grid < 1, (1 - b_grid) * np.log(1 - b_grid), 0.0)
        )
    for a in np.linspace(0.0, mu, grid + 1):
        ha = _entropy_scalar(a)
        va = max(a * payoff[0] + (1 - a) * payoff[1], 0.0)
        gap = b_grid - a
        w = np.where(gap > 1e-12, (b_grid - mu) / np.maximum(gap, 1e-12), 1.0)
        ok = (w >= -1e-12) & (w <= 1 + 1e-12)
        ent = w * ha + (1 - w) * h_b
        val = w * va + (1 - w) * v_b
        feas = ok & (ent <= budget + 1e-12)
        if np.any(feas):
            best = min(best, float(val[feas].min()))
        # budget-binding pairs between grid neighbours: interpolate the root
        diff = ent - budget
        cross = np.flatnonzero(ok[:-1] & ok[1:] & (diff[:-1] * diff[1:] < 0))
        if len(cross):
            frac = diff[cross] / (diff[cross] - diff[cross + 1])
            b_star = b_grid[cross] + frac * (b_grid[cross + 1] - b_grid[cross])
            v_star = np.maximum(b_star * payoff[0] + (1 - b_star) * payoff[1], 0.0)
            w_star = np.where(b_star - a > 1e-12, (b_star - mu) / np.maximum(b_star - a, 1e-12), 1.0)
            vals = w_star * va + (1 - w_star) * v_star
            keep = (w_star >= -1e-12) & (w_star <= 1 + 1e-12)
            if np.any(keep):
                best = min(best, float(vals[keep].min()))

    # three-point splits with the budget tight (vectorized Cramer solve):
    # two posteriors can share the low-value side, trading entropy for
    # mean, so this family is essential, not a corner case
    def _three_point_scan(a_pts, b_pts, c_pts):
        nonlocal best
        aa, bb, cc = np.meshgrid(a_pts, b_pts, c_pts, indexing="ij")
        aa, bb, cc = aa.ravel(), bb.ravel(), cc.ravel()
        keep = (aa < bb - 1e-12) & (bb < cc - 1e-12)
        aa, bb, cc = aa[keep], bb[keep], cc[keep]

        def hv(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -(
                    np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
                    + np.where(x < 1, (1 - x) * np.log(np.where(x < 1, 1 - x, 1.0)), 0.0)
                )
            return h, np.maximum(x * payoff[0] + (1 - x) * payoff[1], 0.0)

        ha, va = hv(aa)
        hb, vb = hv(bb)
        hc, vc = hv(cc)
        det = (bb - aa) * (hc - ha) - (cc - aa) * (hb - ha)
        with np.errstate(divide="ignore", invalid="ignore"):
            wb = ((mu - aa) * (hc - ha) - (cc - aa) * (budget - ha)) / det
            wc = ((bb - aa) * (budget - ha) - (mu - aa) * (hb - ha)) / det
        wa = 1.0 - wb - wc
        okt = (
            np.isfinite(wb) & np.isfinite(wc)
            & (wa >= -1e-9) & (wb >= -1e-9) & (wc >= -1e-9)
        )
        if not np.any(okt):
            return None
        vals = wa[okt] * va[okt] + wb[okt] * vb[okt] + wc[okt] * vc[okt]
        arg = int(np.argmin(vals))
        if float(vals[arg]) < best:
            best = float(vals[arg])
        idx = np.flatnonzero(okt)[arg]
        return float(aa[idx]), float(bb[idx]), float(cc[idx])

    q = np.linspace(0.0, 1.0, tri_grid + 1)
    hit = _three_point_scan(q, q, q)
    step = 1.0 / tri_grid
    for _ in range(3):  # zoom around the incumbent triple
        if hit is None:
            break
        loc = [np.clip(np.linspace(x - step, x + step, 21), 0.0, 1.0) for x in hit]
        hit = _three_point_scan(*loc) or hit
        step /= 10.0
    return best


class TestQuantize:
    def test_scan_high(self):
        assert quantize_state(True, 0.9, 2) == 3

    def test_boundary_goes_up(self):
        assert quantize_state(False, 0.5, 2) == 1

    def test_four_bins(self):
        assert quantize_state(False, 0.12, 4) == 0

    def test_full_capacity_stays_in_top_bin(self):
        assert quantize_state(False, 1.0, 2) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_state(False, 1.5, 2)


class TestCredibility:
    def test_fully_revealing_costs_nothing(self):
        assert credibility_cost(np.eye(3), np.array([0.2, 0.5, 0.3])) == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_uniform_two_state(self):
        pol = np.ones((2, 1))
        assert credibility_cost(pol, np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_conditional_entropy_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            pol = rng.dirichlet(np.ones(m), size=n)
            prior = rng.dirichlet(np.ones(n))
            joint = (prior[:, None] * pol).ravel()
            # independent identity: H(state|signal) = H(joint) - H(signal)
            h_joint = scipy_stats.entropy(joint)
            h_signal = scipy_stats.entropy((prior[:, None] * pol).sum(axis=0))
            assert credibility_cost(pol, prior) == pytest.approx(h_joint - h_signal, abs=1e-9)

    def test_zero_probability_signal_ignored(self):
        pol = np.array([[1.0, 0.0], [1.0, 0.0]])
        prior = np.array([0.6, 0.4])
        assert credibility_cost(pol, prior) == pytest.approx(entropy(prior), abs=1e-12)


class TestAttackerValue:
    GAME = two_state_game([1.0, -1.0])

    def test_indifference_point(self):
        assert attacker_value([0.5, 0.5], self.GAME) == 0.0

    def test_tilted(self):
        assert attacker_value([0.8, 0.2], self.GAME) == pytest.approx(0.6)

    def test_point_mass(self):
        assert attacker_value([1.0, 0.0], self.GAME) == 1.0


class TestSolver:
    def test_slack_budget_reaches_jensen_floor(self):
        game = two_state_game([1.0, -1.0])
        sol = solve_persuasion(game, math.log(2))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_zero_budget_forces_revelation(self):
        game = two_state_game([1.0, -1.0])
        sol = solve_persuasion(game, 0.0)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)
        assert credibility_cost(sol.policy, game.prior) == pytest.approx(0.0, abs=1e-9)

    def test_zero_budget_cost_zero_other_games(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            game = two_state_game(rng.uniform(-2, 2, 2), prior=rng.dirichlet([2, 2]))
            sol = solve_persuasion(game, 0.0)
            assert credibility_cost(sol.policy, game.prior) == pytest.approx(0.0, abs=1e-9)

    def test_split_is_bayes_plausible(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            game = two_state_game(rng.uniform(-2, 2, 2), prior=rng.dirichlet([1.5, 1.5]))
            sol = solve_persuasion(game, float(rng.uniform(0, 0.6)))
            sol.split.check_plausible(game.prior, tol=1e-9)

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            payoff = rng.uniform(-2, 2, 2)
            prior = rng.dirichlet([2, 2])
            game = two_state_game(payoff, prior=prior)
            for budget in (0.0, 0.1, 0.3, math.log(2)):
                lp = solve_persuasion(game, budget).objective
                bf = brute_force_two_state(payoff, prior, budget)
                assert lp == pytest.approx(bf, abs=1e-3)

    def test_monotone_in_budget(self):
        game = two_state_game([1.5, -0.7], prior=[0.45, 0.55])
        objs = [solve_persuasion(game, c).objective for c in np.linspace(0.01, 0.5, 9)]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_bounded_by_information_regimes(self):
        # never below the full-disclosure value at zero budget, never
        # above the no-information value when that split is feasible
        rng = np.random.default_rng(13)
        for _ in range(5):
            payoff = rng.uniform(-2, 2, 2)
            prior = rng.dirichlet([2, 2])
            game = two_state_game(payoff, prior=prior)
            full = float(prior @ np.maximum(payoff, 0.0))
            none = attacker_value(prior, game)
            assert solve_persuasion(game, 0.0).objective == pytest.approx(full, abs=1e-9)
            big = solve_persuasion(game, entropy(prior) + 0.01).objective
            assert big <= none + 1e-9

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            solve_persuasion(two_state_game([1, -1]), -0.1)

    def test_four_state_scan_game(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        sol = solve_persuasion(game, 0.2)
        assert 0.0 <= sol.objective <= attacker_value(game.prior, game) + 1e-9
        sol.split.check_plausible(game.prior, tol=1e-9)

    def test_policy_rows_stochastic(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.4, z_bins=2)
        sol = solve_persuasion(game, 0.15)
        np.testing.assert_allclose(sol.policy.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(sol.policy >= -1e-12)


class TestSplitPolicyRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        prior = rng.dirichlet(np.ones(3))
        pol = rng.dirichlet(np.ones(4), size=3)
        split = split_from_policy(pol, prior)
        split.check_plausible(prior, tol=1e-9)
        back = policy_from_split(split, prior)
        split2 = split_from_policy(back, prior)
        assert split2.expected_entropy() == pytest.approx(split.expected_entropy(), abs=1e-9)

    def test_plausibility_guard(self):
        split = PosteriorSplit(posteriors=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            split.check_plausible(np.array([0.5, 0.5]))


def window_objective(alloc, pout, curve):
    """sum_t (1-pout_t) * U_rx(C_t) for grid budgets C_t (pout_t * V(prior) is constant)."""
    levels = np.searchsorted(curve.budgets, alloc)
    return float(np.sum((1.0 - pout) * curve.values[levels]))


def exhaustive_allocation(pout, total, curve):
    """Best objective over every vector of curve levels within the total budget."""
    best = np.inf
    for levels in itertools.product(range(len(curve.budgets)), repeat=len(pout)):
        levels = np.array(levels)
        if curve.budgets[levels].sum() <= total + 1e-12:
            best = min(best, float(np.sum((1.0 - pout) * curve.values[levels])))
    return best


class TestBudgetAllocation:
    @staticmethod
    def curve():
        return BudgetCurve(two_state_game([1.0, -1.0]), points=15)

    def test_erased_slot_gets_nothing(self):
        curve = self.curve()
        alloc = allocate_on_grid(np.array([1.0, 0.0]), 0.4, curve)
        assert alloc[0] == 0.0
        # the whole 2-slot budget goes to the clean slot, down to one grid step
        step = curve.budgets[1]
        assert 0.4 - step < alloc[1] <= 0.4 + 1e-12

    def test_better_channel_gets_more_and_beats_uniform(self):
        curve = self.curve()
        pout = np.array([0.9, 0.1])
        total = 2 * 0.25
        alloc = allocate_on_grid(pout, total, curve)
        assert alloc[1] >= alloc[0] - 1e-12
        uniform = np.full(2, curve.budgets[curve.solution_at_or_below(0.25)[0]])
        assert window_objective(alloc, pout, curve) <= window_objective(uniform, pout, curve) + 1e-12
        assert window_objective(alloc, pout, curve) <= exhaustive_allocation(pout, total, curve) + 1e-12

    def test_curve_convex_nonincreasing(self):
        curve = self.curve()
        v = curve.values
        assert all(b <= a + 1e-9 for a, b in zip(v, v[1:]))
        second = np.diff(v, 2)
        assert np.all(second >= -1e-6)


class TestGridAllocator:
    def test_respects_total_budget(self):
        game = build_scan_game(10.0, 0.1, 0.5, z_bins=1)
        curve = BudgetCurve(game, points=9)
        pout = np.array([0.8, 0.4, 0.1, 0.0, 0.6])
        alloc = allocate_on_grid(pout, 5 * 0.2, curve)
        assert alloc.sum() <= 5 * 0.2 + 1e-9
        order = np.argsort(1 - pout)
        assert all(alloc[order[i]] <= alloc[order[i + 1]] + 1e-12 for i in range(4))

    def test_zero_budget_allocates_nothing(self):
        game = build_scan_game(10.0, 0.1, 0.5, z_bins=1)
        curve = BudgetCurve(game, points=9)
        assert allocate_on_grid(np.array([0.5, 0.5]), 0.0, curve).sum() == 0.0

    def test_matches_exhaustive_search(self):
        # greedy marginal allocation against every level vector, w <= 3,
        # on 9-point curves; every fourth instance has an erased slot
        rng = np.random.default_rng(11)
        curves = [
            BudgetCurve(build_scan_game(10.0, 0.1, prior, z_bins=zb), points=9, subdivisions=subs)
            for prior, zb, subs in ((0.3, 1, None), (0.6, 1, None), (0.5, 2, 12))
        ]
        for i in range(120):
            curve = curves[i % len(curves)]
            w = int(rng.integers(1, 4))
            pout = rng.uniform(0.0, 1.0, w)
            if i % 4 == 0:
                pout[rng.integers(w)] = 1.0
            total = float(rng.uniform(0.0, w * curve.budgets[-1]))
            alloc = allocate_on_grid(pout, total, curve)
            assert alloc.sum() <= total + 1e-12
            assert np.all(alloc[pout == 1.0] == 0.0)
            assert window_objective(alloc, pout, curve) == pytest.approx(
                exhaustive_allocation(pout, total, curve), abs=1e-12
            )


class TestArtificialDelay:
    def test_floor_of_ramp(self):
        assert choose_artificial_delay(0.0, 5.0, 350.0, 1.0, snr_lo_db=0.0, snr_hi_db=15.0) == 0.0

    def test_zero_headroom_warns(self):
        with pytest.warns(UserWarning):
            assert choose_artificial_delay(10.0, 349.5, 350.0, 1.0) == 0.0

    def test_monotone_in_snr(self):
        vals = [choose_artificial_delay(g, 5.0, 350.0, 1.0) for g in np.linspace(0, 15, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_respects_latency_bound(self):
        d = choose_artificial_delay(99.0, 5.0, 350.0, 1.0)
        assert 5.0 + 1.0 + d <= 350.0 + 1e-12

    def test_propagation_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            choose_artificial_delay(5.0, 400.0, 350.0)


class TestDrift:
    GAME = two_state_game([1.0, -1.0])

    def test_uninformative_policy_zero_drift(self):
        pol = np.ones((2, 1))
        assert lyapunov_drift(np.array([0.5, 0.5]), pol, self.GAME) == 0.0
        assert lyapunov_drift(np.array([0.3, 0.7]), pol, self.GAME) == 0.0

    def test_fully_revealing_from_indifference(self):
        drift = lyapunov_drift(np.array([0.5, 0.5]), np.eye(2), self.GAME)
        assert drift == pytest.approx(0.5)

    def test_random_policies_never_negative(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            game = PersuasionGame(
                attack_payoff=rng.uniform(-2, 2, n),
                prior=rng.dirichlet(np.ones(n)),
                z_bins=n,
                z_rep=np.zeros(n),
                scan_flag=np.zeros(n, dtype=int),
            )
            pol = rng.dirichlet(np.ones(int(rng.integers(2, 6))), size=n)
            mu = rng.dirichlet(np.ones(n))
            assert lyapunov_drift(mu, pol, game) >= -1e-9

    def test_equilibrium_membership(self):
        game = self.GAME
        floor = min_attacker_value(game)
        assert floor == pytest.approx(0.0, abs=1e-9)
        assert is_equilibrium_belief([0.5, 0.5], game)
        assert not is_equilibrium_belief([0.9, 0.1], game)


def test_simplex_grid_covers_vertices():
    g = simplex_grid(3, 4)
    assert len(g) == 15
    np.testing.assert_allclose(g.sum(axis=1), 1.0)
    for v in np.eye(3):
        assert any(np.allclose(row, v) for row in g)


def test_build_scan_game_structure():
    game = build_scan_game(10.0, 0.1, prior_scan=0.3, z_bins=2)
    assert game.n_states == 4
    assert game.prior.sum() == pytest.approx(1.0)
    assert game.p_scan(game.prior) == pytest.approx(0.3)
    # scanning states pay only the cost
    np.testing.assert_allclose(game.attack_payoff[game.scan_flag == 1], -0.1)
