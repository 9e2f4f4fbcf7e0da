import itertools
import math

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy import stats as scipy_stats

from satdefsim import engine, persuasion
from satdefsim.config import default_scenario
from satdefsim.engine import persuasion_assets
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
    lyapunov_drift,
    min_attacker_value,
    policy_from_split,
    quantize_state,
    simplex_grid,
    solve_persuasion,
)

from conftest import clear_engine_caches
from oracles import is_equilibrium_belief, split_from_policy


def two_state_game(payoff, prior=(0.5, 0.5)):
    return PersuasionGame(
        attack_payoff=np.asarray(payoff, dtype=float),
        prior=np.asarray(prior, dtype=float),
        z_bins=2,
        z_rep=np.zeros(2),
        scan_flag=np.array([0, 1]),
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


def full_grid_lp(game, budget, subdivisions):
    """Grid oracle: the split LP over every posterior of a simplex grid, as
    one HiGHS solve.  Returns the optimum, which the exact solver's can
    only undercut."""
    grid = simplex_grid(game.n_states, subdivisions)
    values = np.maximum(grid @ game.attack_payoff, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(grid > 0, grid * np.log(np.where(grid > 0, grid, 1.0)), 0.0), axis=1)
    res = optimize.linprog(
        values,
        A_ub=sparse.csr_matrix(ent[None, :]),
        b_ub=[budget],
        A_eq=sparse.csr_matrix(grid.T),
        b_eq=game.prior,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


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
    # every left posterior a against every b of the grid, a few rows at a time
    a_all = np.linspace(0.0, mu, grid + 1)
    h_a = np.array([_entropy_scalar(a) for a in a_all])
    v_a = np.maximum(a_all * payoff[0] + (1 - a_all) * payoff[1], 0.0)
    for rows in np.array_split(np.arange(grid + 1), max(1, (grid + 1) // 16)):
        a, ha, va = a_all[rows, None], h_a[rows, None], v_a[rows, None]
        gap = b_grid - a
        w = np.where(gap > 1e-12, (b_grid - mu) / np.maximum(gap, 1e-12), 1.0)
        ok = (w >= -1e-12) & (w <= 1 + 1e-12)
        ent = w * ha + (1 - w) * h_b
        val = w * va + (1 - w) * v_b
        best = min(best, float(np.min(val, where=ok & (ent <= budget + 1e-12), initial=np.inf)))
        # budget-binding pairs between grid neighbours: interpolate the root
        diff = ent - budget
        r, cross = np.nonzero(ok[:, :-1] & ok[:, 1:] & (diff[:, :-1] * diff[:, 1:] < 0))
        if len(cross):
            frac = diff[r, cross] / (diff[r, cross] - diff[r, cross + 1])
            b_star = b_grid[cross] + frac * (b_grid[cross + 1] - b_grid[cross])
            v_star = np.maximum(b_star * payoff[0] + (1 - b_star) * payoff[1], 0.0)
            w_star = np.where(b_star - a[r, 0] > 1e-12, (b_star - mu) / np.maximum(b_star - a[r, 0], 1e-12), 1.0)
            vals = w_star * va[r, 0] + (1 - w_star) * v_star
            keep = (w_star >= -1e-12) & (w_star <= 1 + 1e-12)
            if np.any(keep):
                best = min(best, float(vals[keep].min()))

    # three-point splits with the budget tight (vectorized Cramer solve):
    # two posteriors can share the low-value side, trading entropy for
    # mean, so this family is essential, not a corner case
    def _three_point_scan(a_pts, b_pts, c_pts):
        nonlocal best
        i, j, k = np.nonzero(
            (a_pts[:, None, None] < b_pts[None, :, None] - 1e-12) & (b_pts[:, None] < c_pts[None, :] - 1e-12)
        )  # the triples in (a, b, c) order

        def hv(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -(
                    np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
                    + np.where(x < 1, (1 - x) * np.log(np.where(x < 1, 1 - x, 1.0)), 0.0)
                )
            return h, np.maximum(x * payoff[0] + (1 - x) * payoff[1], 0.0)

        ha, va = (t[i] for t in hv(a_pts))
        hb, vb = (t[j] for t in hv(b_pts))
        hc, vc = (t[k] for t in hv(c_pts))
        aa, bb, cc = a_pts[i], b_pts[j], c_pts[k]
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

    @pytest.mark.parametrize("z_bins", [1, 2, 3, 4])
    def test_arrays_quantize_as_scalars(self, z_bins):
        edges = [k / z_bins for k in range(z_bins + 1)]
        # within 1e-12 below an edge, the nudge decides the bin
        nudged = [e - d / z_bins for e in edges[1:] for d in (1e-13, 5e-13, 9e-13)]
        z = np.array(edges + nudged + [np.nextafter(e, 0.0) for e in edges[1:]]
                     + [1.0 + 1e-10] + np.linspace(0.0, 1.0, 101).tolist())
        z_grid = np.concatenate([z, z])
        scan = np.repeat([False, True], len(z))
        got = quantize_state(scan, z_grid, z_bins).tolist()
        assert got == [quantize_state(bool(s), float(v), z_bins) for s, v in zip(scan, z_grid)]
        # the scalar rule in Python floats
        assert got == [
            (z_bins if s else 0) + min(math.floor(v * z_bins + 1e-12), z_bins - 1)
            for s, v in zip(scan.tolist(), z_grid.tolist())
        ]
        # the nudge does lift a level just below an inner edge to the upper bin
        inner = [quantize_state(False, k / z_bins - 5e-13 / z_bins, z_bins) for k in range(1, z_bins)]
        assert inner == list(range(1, z_bins))

    @pytest.mark.parametrize("z", [1.5, -0.1, float("nan")])
    def test_out_of_range_array_raises_as_a_scalar(self, z):
        with pytest.raises(ValueError) as scalar:
            quantize_state(False, z, 2)
        with pytest.raises(ValueError) as array:
            quantize_state(np.array([False, True]), np.array([0.5, z]), 2)
        assert str(array.value) == str(scalar.value)

    def test_scalar_input_gives_an_int(self):
        for z in (0.3, np.float64(0.3), 1.0):
            assert type(quantize_state(True, z, 3)) is int


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="credibility budget must be finite and >= 0"):
            solve_persuasion(build_scan_game(10.0, 0.1, 0.5), bad)

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


def exact_lp(game):
    """The exact candidates of a game as ``(values, posteriors, entropies)``."""
    posteriors, values = persuasion._exact_candidates(game)
    return values, posteriors, np.array([entropy(mu) for mu in posteriors])


def split_lp(values, posteriors, ent, prior, budget, vertices):
    """Both stages of the split LP, with the tie-break ranks of the posteriors."""
    lp = persuasion._build_split_lp(posteriors, values, ent, vertices, persuasion._ranks(posteriors))
    return persuasion._split_lp(lp, prior, budget)


def master(cost, posteriors, ent, prior, budget):
    """``_solve_master``'s constraint matrix, cost row and right-hand side
    for a value or entropy cost over the posteriors within the budget."""
    return persuasion._lp_matrix(posteriors, ent), np.append(cost, 0.0), np.append(prior, budget)


def highs_canonical_split(values, posteriors, ent, prior, budget):
    """Oracle of the two-stage split LP and its tie rule, by HiGHS: the
    least value within the budget, then the least expected entropy within
    that value + 1e-12, then each weight in decreasing lexicographic order
    of the posteriors maximized in turn.  Returns the weights and the
    least value."""
    lp = dict(A_eq=posteriors.T, b_eq=prior, bounds=(0, None), method="highs",
              options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    first = optimize.linprog(values, A_ub=ent[None, :], b_ub=[budget], **lp)
    assert first.status == 0, first.message
    rows, rhs = [values], [first.fun + 1e-12]
    res = optimize.linprog(ent, A_ub=np.array(rows), b_ub=rhs, **lp)
    assert res.status == 0, res.message
    rows.append(ent)
    rhs.append(res.fun + 1e-10)
    for c in np.lexsort(posteriors.T[::-1])[::-1]:
        unit = -np.eye(len(values))[c]
        res = optimize.linprog(unit, A_ub=np.array(rows), b_ub=rhs, **lp)
        assert res.status == 0, res.message
        rows.append(unit)
        rhs.append(res.fun + 1e-9)
    return res.x, float(first.fun)


def exact_test_games(rng):
    """Random 2- to 6-state games, some with a zero payoff, zero prior
    entries or payoffs of one sign, and the default scan game."""
    games = [build_scan_game(10.0, 0.1, 0.5, z_bins=2), build_scan_game(10.0, 0.1, 0.3, z_bins=3)]
    for i in range(20):
        n = 2 + i % 5
        payoff = rng.uniform(-2, 2, n)
        prior = rng.dirichlet(np.ones(n))
        if i % 4 == 1:
            payoff[rng.integers(n)] = 0.0
        if i % 4 == 2:
            prior[rng.integers(n)] = 0.0
            prior /= prior.sum()
        if i % 7 == 3:
            payoff = np.abs(payoff) * (1 if i % 2 else -1)
        games.append(PersuasionGame(attack_payoff=payoff, prior=prior, z_bins=n, z_rep=np.zeros(n),
                                    scan_flag=np.zeros(n, dtype=int)))
    return games


#: the simplex-grid resolutions of the grid oracle, per number of states
GRID_SUBDIVISIONS = {1: 1, 2: 200, 3: 100, 4: 60, 5: 28, 6: 16, 7: 12, 8: 10}


class TestSplitLP:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_grid_path_matches_full_grid_lp(self, n):
        # an int resolution solves over the whole grid, which the exact
        # candidates can only undercut
        rng = np.random.default_rng(100 + n)
        subs = GRID_SUBDIVISIONS[n]
        for g in range(3):
            prior = rng.dirichlet(np.ones(n))
            if g == 2:  # a state the sender never has to hide
                prior[int(rng.integers(n))] = 0.0
                prior /= prior.sum()
            game = PersuasionGame(
                attack_payoff=rng.uniform(-2, 2, n),
                prior=prior,
                z_bins=n,
                z_rep=np.zeros(n),
                scan_flag=np.zeros(n, dtype=int),
            )
            for budget in np.linspace(0.0, math.log(n), 5):
                sol = solve_persuasion(game, float(budget), subs)
                assert sol.objective == pytest.approx(full_grid_lp(game, float(budget), subs), abs=1e-9)
                assert solve_persuasion(game, float(budget)).objective <= sol.objective + 1e-12
                sol.split.check_plausible(game.prior, tol=1e-9)
                assert sol.credibility <= budget + 1e-9
                counts = sol.split.posteriors * subs
                np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
                assert len(sol.split.weights) <= n + 1
                assert sol.lp_columns == len(simplex_grid(n, subs))

    def test_budget_curve_uses_the_one_solve_path(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        curve = BudgetCurve(game, 13)
        for b, got in zip(curve.budgets, curve.solutions):
            assert_same_solution(got, solve_persuasion(game, b))

    @pytest.mark.parametrize("field, changes", [
        ("attack_payoff", {"attack_payoff": [math.nan, -1.0]}),
        ("attack_payoff", {"attack_payoff": [math.inf, -1.0]}),
        ("attack_payoff", {"attack_payoff": [1.0, -math.inf]}),
        ("prior", {"prior": [math.nan, 0.5]}),
        ("prior", {"prior": [0.5, math.nan]}),
        ("prior", {"prior": [math.inf, -math.inf]}),
        ("prior", {"prior": [0.6, 0.6]}),
        ("prior", {"prior": [1.5, -0.5]}),
        ("prior", {"prior": [[0.5, 0.5]]}),
        ("attack_payoff", {"attack_payoff": [1.0, -1.0, 0.5]}),
        ("attack_payoff", {"attack_payoff": [1.0]}),
        ("z_rep", {"z_rep": [0.0, 0.0, 0.0]}),
        ("scan_flag", {"scan_flag": [0]}),
    ])
    def test_malformed_game_rejected(self, field, changes):
        game = {
            "attack_payoff": [1.0, -1.0], "prior": [0.5, 0.5], "z_bins": 2, "z_rep": [0.0, 0.0], "scan_flag": [0, 0],
        }
        with pytest.raises(ValueError, match=field):
            PersuasionGame(**{**game, **changes})

    def test_candidates(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)  # payoffs 7.4, 2.4, -0.1, -0.1
        values, posteriors, _ = exact_lp(game)
        assert values.tolist() == [7.4, 2.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        np.testing.assert_allclose(posteriors[4:], [
            [0.1 / 7.5, 0, 7.4 / 7.5, 0], [0.1 / 7.5, 0, 0, 7.4 / 7.5],
            [0, 0.1 / 2.5, 2.4 / 2.5, 0], [0, 0.1 / 2.5, 0, 2.4 / 2.5],
        ], rtol=0, atol=1e-15)
        np.testing.assert_allclose(posteriors[4:] @ game.attack_payoff, 0.0, atol=1e-15)
        for payoff, count in (([1.0, 2.0], 2), ([-1.0, 0.0, -2.0], 3), ([0.5], 1), ([1.0, 0.0, -1.0, -2.0], 6)):
            n = len(payoff)
            game = PersuasionGame(attack_payoff=payoff, prior=np.full(n, 1 / n), z_bins=n, z_rep=np.zeros(n),
                                  scan_flag=np.zeros(n, dtype=int))
            assert len(persuasion._exact_candidates(game)[0]) == count

    def test_highs_returns_the_same_split(self):
        rng = np.random.default_rng(71)
        for game in exact_test_games(rng):
            values, posteriors, ent = exact_lp(game)
            n = game.n_states
            for budget in (0.0, 0.03, 0.2, math.log(n)):
                w, objective, _ = split_lp(values, posteriors, ent, game.prior, budget, np.arange(n))
                oracle, least = highs_canonical_split(values, posteriors, ent, game.prior, budget)
                assert objective == pytest.approx(least, abs=1e-9)
                assert ent @ w == pytest.approx(ent @ oracle, abs=1e-9)
                np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-6)

    def test_permuted_candidates_give_the_same_split(self):
        rng = np.random.default_rng(73)
        for game in exact_test_games(rng):
            values, posteriors, ent = exact_lp(game)
            n = game.n_states
            for budget in (0.0, 0.03, 0.2, math.log(n)):
                w, objective, _ = split_lp(values, posteriors, ent, game.prior, budget, np.arange(n))
                for _ in range(3):
                    perm = rng.permutation(len(values))
                    where = np.argsort(perm)  # the position of each candidate after the shuffle
                    got, obj, _ = split_lp(values[perm], posteriors[perm], ent[perm], game.prior,
                                                       budget, where[:n])
                    assert obj == pytest.approx(objective, abs=1e-12)
                    np.testing.assert_allclose(got[where], w, rtol=0, atol=1e-10)

    def test_default_game_spends_the_least_credibility(self):
        game = persuasion_assets(default_scenario()).game
        sol = solve_persuasion(game, 0.2)
        # each scan-on state pools all its mass with scan-off state 0 at the
        # edge point mu_0 = 0.1 / 7.5, hiding 0.1 of value per unit of mass
        mu = 0.1 / 7.5
        spend = 2 * 0.25 / (1 - mu) * entropy([mu, 1 - mu])
        assert sol.objective == pytest.approx(2.40, abs=1e-12)
        assert sol.credibility == pytest.approx(spend, abs=1e-9)
        assert round(sol.credibility, 4) == 0.0359
        assert sol.lp_columns == 8 and len(sol.split.weights) == 4

    def test_budget_dual_is_the_slope_of_the_value(self):
        # the default game's V(C) falls from 2.45 with slope lam up to
        # C* = 0.035884 and is flat at 2.40 from there on; stage 1's budget
        # dual is that slope on each piece
        game = persuasion_assets(default_scenario()).game
        lp = persuasion._exact_split_lp(game.attack_payoff.tobytes())
        for budget in (0.0, 1e-6, 0.01, 0.02, 0.035, 0.03588, 0.0359, 0.05, 0.2, 1.0, math.log(4)):
            rhs = np.append(game.prior, budget)
            _, objective, _, lam, _ = persuasion._solve_master(lp.a, lp.value_cost, rhs, lp.start.copy())
            assert objective == solve_persuasion(game, budget).objective
            if budget < 0.035884:
                assert lam == -1.3933892594767128
                assert objective == pytest.approx(2.45 + lam * budget, abs=1e-12)
            else:
                assert lam == 0.0
                assert objective == pytest.approx(2.40, abs=1e-12)

    def test_grid_lp_never_below_the_exact_optimum(self):
        rng = np.random.default_rng(79)
        subs = {2: 200, 3: 60, 4: 30, 5: 14, 6: 10, 7: 8, 8: 6}
        for n in range(2, 9):
            for _ in range(3):
                game = random_game(rng, n)
                for budget in (0.0, 0.05, 0.3, math.log(n)):
                    exact = solve_persuasion(game, budget).objective
                    assert exact <= full_grid_lp(game, budget, subs[n]) + 1e-9

    def test_dual_certificate(self):
        # stage 1's duals price every posterior, not only the candidates,
        # at >= 0: the candidate LP's optimum is that over every split
        rng = np.random.default_rng(83)
        for game in exact_test_games(rng)[:8]:
            values, posteriors, ent = exact_lp(game)
            n = game.n_states
            mus = np.vstack([rng.dirichlet(np.ones(n), 50_000), rng.dirichlet(np.full(n, 0.2), 50_000)])
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -np.sum(np.where(mus > 0, mus * np.log(mus), 0.0), axis=1)
            for budget in (0.0, 0.03, 0.2):
                basis = np.append(np.arange(n), len(values))
                _, _, y, lam, _ = persuasion._solve_master(*master(values, posteriors, ent, game.prior, budget), basis)
                price = np.maximum(mus @ game.attack_payoff, 0.0) - mus @ y - lam * h
                assert price.min() >= -1e-9

    def test_optimum_worth_zero_on_every_basic_posterior(self):
        # payoffs 1, -1, -3: an optimum whose basic posteriors are all worth
        # 0, so no value row can tell the optimal splits apart.  State 0 is
        # hidden at (.75, 0, .25), the cheaper edge per unit of its mass,
        # and no weight moves off the optimal face
        game = PersuasionGame(attack_payoff=[1.0, -1.0, -3.0], prior=[0.3, 0.35, 0.35], z_bins=3,
                              z_rep=np.zeros(3), scan_flag=np.zeros(3, dtype=int))
        values, posteriors, ent = exact_lp(game)  # e0, e1, e2, (.5, .5, 0), (.75, 0, .25)
        start = np.array([0.0, 0.2, 0.3, 0.3, 0.2])  # a value-0 split pooling at both edges
        np.testing.assert_allclose(posteriors.T @ start, game.prior, atol=1e-15)
        for budget in (ent @ start, math.log(3)):
            sol = solve_persuasion(game, budget)
            np.testing.assert_allclose(sol.split.posteriors, posteriors[[1, 2, 4]], rtol=0, atol=0)
            np.testing.assert_allclose(sol.split.weights, [0.35, 0.25, 0.4], rtol=0, atol=1e-15)
            oracle, least = highs_canonical_split(values, posteriors, ent, game.prior, budget)
            assert sol.objective == 0.0 and least == pytest.approx(0.0, abs=1e-9)
            w, _, _ = split_lp(values, posteriors, ent, game.prior, budget, np.arange(3))
            np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-6)

    def test_tie_goes_to_the_lexicographically_largest_split(self):
        # payoffs 1, -1, -1: both edge points hide state 0 at the same
        # entropy, so every mix of them spends the least credibility; in
        # this state order the rule takes the most weight on (.5, .5, 0),
        # the greater posterior.  States 1 and 2 are interchangeable and
        # the rule ranks posteriors in state order, so each order of the
        # states gives this split or its mirror, the oracle's in that order
        payoff, prior = np.array([1.0, -1.0, -1.0]), np.array([0.2, 0.4, 0.4])
        want = {((0, 1, 0), 0.2), ((0, 0, 1), 0.4), ((0.5, 0.5, 0), 0.4)}
        mirror = {((mu[0], mu[2], mu[1]), w) for mu, w in want}
        stage_two = []
        for order in itertools.permutations(range(3)):
            order = list(order)
            game = PersuasionGame(attack_payoff=payoff[order], prior=prior[order], z_bins=3,
                                  z_rep=np.zeros(3), scan_flag=np.zeros(3, dtype=int))
            sol = solve_persuasion(game, math.log(3))
            back = sol.split.posteriors[:, np.argsort(order)]  # in the original state order
            got = {(tuple(mu), round(float(w), 9)) for mu, w in zip(back.tolist(), sol.split.weights)}
            assert got == want if order == [0, 1, 2] else got in (want, mirror), order
            values, posteriors, ent = exact_lp(game)
            oracle, _ = highs_canonical_split(values, posteriors, ent, game.prior, math.log(3))
            w, _, _ = split_lp(values, posteriors, ent, game.prior, math.log(3), np.arange(3))
            np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-6)
            stage_two.append(sol.pivots[1])
        assert max(stage_two) > 0  # the tie-break pivots in some order

    def test_support_stays_on_stage_one_optimal_face(self):
        # every posterior of the split has zero reduced cost under stage 1's
        # duals, so no near-zero weight buys entropy with value; and the
        # reported credibility is the policy's.  The two literal games once
        # put 5.9e-9 and 6.5e-10 of weight on a posterior of reduced cost
        # 1.7e-4 and 1.5e-3
        rng = np.random.default_rng(89)
        games = exact_test_games(rng) + [
            PersuasionGame(attack_payoff=payoff, prior=prior, z_bins=len(prior), z_rep=np.zeros(len(prior)),
                           scan_flag=np.zeros(len(prior), dtype=int))
            for payoff, prior in (
                ([1.8285922839233208, -0.00016999206131718125], [0.9723036207201549, 0.02769637927984509]),
                ([-1.0068893931272167, 0.0015317627992059712, 1.764909783765106],
                 [0.2552255190289436, 0.7082089153886966, 0.03656556558235989]),
            )
        ]
        for game in games:
            values, posteriors, ent = exact_lp(game)
            n = game.n_states
            for budget in (0.0, 0.03, 0.2, math.log(n)):
                basis = np.append(np.arange(n), len(values))
                _, _, y, lam, _ = persuasion._solve_master(*master(values, posteriors, ent, game.prior, budget), basis)
                sol = solve_persuasion(game, budget)
                mus = sol.split.posteriors
                reduced = np.maximum(mus @ game.attack_payoff, 0.0) - mus @ y - lam * entropy(mus)
                assert np.all(np.abs(reduced) <= 1e-9), (budget, reduced)
                assert sol.credibility == pytest.approx(credibility_cost(sol.policy, game.prior), abs=1e-12)

    def test_cold_design_solves_exactly_without_a_grid(self, monkeypatch):
        solves, grids = [], []
        real_solve, real_grid = persuasion.solve_persuasion, persuasion.simplex_grid

        def counting_solve(*args):
            solves.append(real_solve(*args))
            return solves[-1]

        def counting_grid(*args):
            grids.append(args)
            return real_grid(*args)

        for owner in (persuasion, engine):
            monkeypatch.setattr(owner, "solve_persuasion", counting_solve)
        monkeypatch.setattr(persuasion, "simplex_grid", counting_grid)
        clear_engine_caches()
        persuasion._grid_tables.cache_clear()
        cfg = default_scenario()
        assets = persuasion_assets(cfg)
        assets.curve(cfg.persuasion.budget_points)
        assets.static_solution(cfg.persuasion.credibility)
        clear_engine_caches()
        assert len(solves) == 14 and grids == []
        assert [s.lp_columns for s in solves] == [8] * 14


def master_lp(rng, n, extra, payoff=None, prior=None):
    """A restricted master: the n simplex vertices and ``extra`` random
    posteriors (about a third of them on a face of the simplex), in
    shuffled column order, with the fully revealing start basis."""
    payoff = rng.uniform(-2, 2, n) if payoff is None else np.asarray(payoff, dtype=float)
    prior = rng.dirichlet(np.ones(n)) if prior is None else np.asarray(prior, dtype=float)
    inner = rng.dirichlet(np.ones(n), size=extra)
    if n > 1:
        face = rng.random(extra) < 1 / 3
        inner[face, rng.integers(n, size=extra)[face]] = 0.0
        inner /= inner.sum(axis=1, keepdims=True)
    order = rng.permutation(n + extra)
    posteriors = np.vstack([np.eye(n), inner])[order]
    cost = np.maximum(posteriors @ payoff, 0.0)
    ent = np.array([entropy(mu) for mu in posteriors])
    basis = np.append(np.argsort(order)[:n], n + extra)
    return cost, posteriors, ent, prior, basis


def check_master_against_highs(cost, posteriors, ent, prior, budget, basis, tol=1e-9):
    start = basis.copy()
    w, fun, y, lam, _ = persuasion._solve_master(*master(cost, posteriors, ent, prior, budget), basis)
    res = optimize.linprog(cost, A_ub=ent[None, :], b_ub=[budget], A_eq=posteriors.T, b_eq=prior,
                           bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    assert fun == pytest.approx(res.fun, abs=tol)
    assert fun == pytest.approx(cost @ w, abs=tol)
    # primal feasibility
    assert np.all(w >= -tol)
    np.testing.assert_allclose(posteriors.T @ w, prior, rtol=0, atol=tol)
    assert ent @ w <= budget + tol
    # dual certificate: no master column and not the budget slack prices
    # negative, complementary slackness, and no duality gap
    reduced = cost - posteriors @ y - lam * ent
    assert np.all(reduced >= -tol) and lam <= tol
    assert np.all(np.abs(w * reduced) <= tol)
    assert abs(lam * (budget - ent @ w)) <= tol
    assert prior @ y + lam * budget == pytest.approx(fun, abs=tol)
    # the basis stays a set of n + 1 columns and w vanishes off it
    assert len(basis) == len(start) == len(set(basis.tolist()))
    off = np.setdiff1d(np.arange(len(cost)), basis)
    assert np.all(w[off] == 0.0)
    return w, fun, y, lam


class TestMasterSimplex:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_masters_match_highs(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(8):
            cost, posteriors, ent, prior, basis = master_lp(rng, n, int(rng.integers(1, 120)))
            for budget in (0.0, *rng.uniform(0.0, math.log(n), 3), math.log(n)):
                check_master_against_highs(cost, posteriors, ent, prior, float(budget), basis.copy())

    def test_zero_prior_entries(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8):
            for zeros in range(1, n):
                prior = rng.dirichlet(np.ones(n))
                prior[rng.choice(n, zeros, replace=False)] = 0.0
                prior /= prior.sum()
                cost, posteriors, ent, prior, basis = master_lp(rng, n, 60, prior=prior)
                for budget in (0.0, 0.2, math.log(n)):
                    check_master_against_highs(cost, posteriors, ent, prior, budget, basis.copy())

    def test_one_state(self):
        for payoff in (-1.0, 0.0, 2.5):
            w, fun, _, _ = check_master_against_highs(
                np.array([max(payoff, 0.0)]), np.ones((1, 1)), np.zeros(1), np.ones(1), 0.3, np.array([0, 1]))
            assert fun == max(payoff, 0.0) and w.tolist() == [1.0]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_payoffs_of_one_sign(self, sign):
        rng = np.random.default_rng(43)
        for n in (2, 4, 7):
            cost, posteriors, ent, prior, basis = master_lp(rng, n, 80, payoff=sign * rng.uniform(0.1, 2.0, n))
            for budget in (0.0, 0.3, math.log(n)):
                _, fun, _, _ = check_master_against_highs(cost, posteriors, ent, prior, budget, basis.copy())
                if sign < 0:
                    assert fun == 0.0

    def test_exactly_zero_payoff(self):
        rng = np.random.default_rng(47)
        for n in (2, 3, 6):
            payoff = rng.uniform(-2, 2, n)
            payoff[rng.integers(n)] = 0.0
            cost, posteriors, ent, prior, basis = master_lp(rng, n, 80, payoff=payoff)
            for budget in (0.0, 0.25, math.log(n)):
                check_master_against_highs(cost, posteriors, ent, prior, budget, basis.copy())

    def test_warm_start_from_an_optimal_basis(self):
        # an optimum over some of the columns stays feasible when the rest
        # are added, and a warm solve from it matches a cold one
        rng = np.random.default_rng(53)
        for n in (2, 4, 6):
            cost, posteriors, ent, prior, basis = master_lp(rng, n, 90)
            budget = 0.4 * math.log(n)
            # a first round on 40 columns, the vertices among them
            head = np.union1d(basis[:-1], np.arange(40))
            labels = np.append(head, len(cost))  # the last label is the slack
            sub = np.searchsorted(labels, basis)
            persuasion._solve_master(*master(cost[head], posteriors[head], ent[head], prior, budget), sub)
            _, warm, _, _ = check_master_against_highs(cost, posteriors, ent, prior, budget, labels[sub])
            _, cold, _, _, _ = persuasion._solve_master(*master(cost, posteriors, ent, prior, budget), basis)
            assert warm == pytest.approx(cold, abs=1e-12)

    def test_exhausted_pivots_raise(self, monkeypatch):
        monkeypatch.setattr(persuasion, "_MAX_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(InfeasibleSplitError, match="pivots"):
            solve_persuasion(build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2), 0.2)


class TestEdgeGames:
    def test_one_state_game(self):
        for payoff in (-1.0, 0.0, 2.5):
            game = PersuasionGame(attack_payoff=[payoff], prior=[1.0], z_bins=1, z_rep=np.zeros(1),
                                  scan_flag=np.zeros(1, dtype=int))
            sol = solve_persuasion(game, 0.0)
            assert sol.objective == max(payoff, 0.0)
            assert sol.policy.shape == (1, 1) and sol.policy[0, 0] == 1.0

    @pytest.mark.parametrize("payoff", [[0.0, 1.0, -1.0], [0.0, -1.0, -2.0], [0.0, 0.0, 1.5]])
    def test_zero_payoff_games_match_full_grid(self, payoff):
        game = PersuasionGame(attack_payoff=payoff, prior=[0.3, 0.3, 0.4], z_bins=3, z_rep=np.zeros(3),
                              scan_flag=np.zeros(3, dtype=int))
        for budget in (0.0, 0.3, math.log(3)):
            assert solve_persuasion(game, budget).objective == pytest.approx(full_grid_lp(game, budget, 100), abs=1e-9)


def old_min_attacker_value(game):
    """Oracle: min v s.t. v >= payoff . mu, v >= 0, mu on the simplex, by HiGHS."""
    n = game.n_states
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2, n + 1))
    a_ub[0, :n] = game.attack_payoff
    a_ub[0, -1] = -1.0
    a_ub[1, -1] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    bounds = [(0, None)] * n + [(None, None)]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=[0.0, 0.0], A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_min_attacker_value_matches_lp():
    rng = np.random.default_rng(61)
    for i in range(200):
        n = int(rng.integers(1, 9))
        payoff = rng.uniform(-2, 2, n)
        if i % 3 == 0:
            payoff = np.abs(payoff)  # every state worth attacking
        game = PersuasionGame(attack_payoff=payoff, prior=np.full(n, 1 / n), z_bins=n, z_rep=np.zeros(n),
                              scan_flag=np.zeros(n, dtype=int))
        assert min_attacker_value(game) == pytest.approx(old_min_attacker_value(game), abs=1e-9)


def random_game(rng, n):
    return PersuasionGame(
        attack_payoff=rng.uniform(-2, 2, n),
        prior=rng.dirichlet(np.ones(n)),
        z_bins=n,
        z_rep=np.zeros(n),
        scan_flag=np.zeros(n, dtype=int),
    )


def assert_same_solution(a, b):
    assert a.objective == b.objective
    assert a.credibility == b.credibility
    assert (a.lp_columns, a.pivots) == (b.lp_columns, b.pivots)
    for x, y in ((a.split.posteriors, b.split.posteriors), (a.split.weights, b.split.weights),
                 (a.policy, b.policy)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestGridTables:
    @pytest.fixture(autouse=True)
    def cold_tables(self):
        persuasion._grid_tables.cache_clear()
        yield
        persuasion._grid_tables.cache_clear()

    def test_budget_curve_builds_the_grid_once(self, monkeypatch):
        calls = []

        def counting_grid(n_states, subdivisions):
            calls.append((n_states, subdivisions))
            return simplex_grid(n_states, subdivisions)

        monkeypatch.setattr(persuasion, "simplex_grid", counting_grid)
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        BudgetCurve(game, 13, subdivisions=60)
        solve_persuasion(game, 0.2, 60)
        assert calls == [(4, 60)]

    def test_tables_are_read_only(self):
        solve_persuasion(build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2), 0.2, 60)
        for table in persuasion._grid_tables(4, 60):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_solution_shares_no_memory_with_the_tables(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        tables = persuasion._grid_tables(4, 60)
        for budget in np.linspace(0.0, math.log(4), 5):
            sol = solve_persuasion(game, float(budget), 60)
            for out in (sol.split.posteriors, sol.split.weights, sol.policy):
                assert not any(np.shares_memory(out, table) for table in tables)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_cold_and_warm_solves_are_identical(self, n):
        rng = np.random.default_rng(200 + n)
        game, other = random_game(rng, n), random_game(rng, n)
        budget, subs = 0.3 * math.log(n), GRID_SUBDIVISIONS[n]
        cold = solve_persuasion(game, budget, subs)
        assert persuasion._grid_tables.cache_info().currsize == 1
        solve_persuasion(other, 0.5 * budget, subs)  # another game on the same tables
        warm = solve_persuasion(game, budget, subs)
        assert persuasion._grid_tables.cache_info().hits == 2
        assert_same_solution(cold, warm)

    @pytest.mark.parametrize("bad", [0, -2, 2.5, "6", True])
    def test_bad_subdivisions_rejected_before_the_tables(self, bad):
        with pytest.raises(ValueError, match="subdivisions"):
            solve_persuasion(build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2), 0.2, bad)
        info = persuasion._grid_tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


class TestExactSplitLP:
    @pytest.fixture(autouse=True)
    def cold_tables(self):
        persuasion._exact_split_lp.cache_clear()
        yield
        persuasion._exact_split_lp.cache_clear()

    def test_games_with_one_payoff_share_an_entry(self):
        payoff = [1.0, 0.0, -0.5]
        games = [PersuasionGame(attack_payoff=payoff, prior=prior, z_bins=3, z_rep=np.zeros(3),
                                scan_flag=np.zeros(3, dtype=int))
                 for prior in ([0.2, 0.3, 0.5], [0.6, 0.0, 0.4])]
        for game in games:
            solve_persuasion(game, 0.2)
        info = persuasion._exact_split_lp.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        other = PersuasionGame(attack_payoff=[1.0, 0.0, -0.25], prior=[0.2, 0.3, 0.5], z_bins=3,
                               z_rep=np.zeros(3), scan_flag=np.zeros(3, dtype=int))
        solve_persuasion(other, 0.2)
        info = persuasion._exact_split_lp.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_tables_are_read_only_and_not_shared(self):
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        tables = persuasion._exact_split_lp(game.attack_payoff.tobytes())
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
        for budget in np.linspace(0.0, math.log(4), 5):
            sol = solve_persuasion(game, float(budget))
            for out in (sol.split.posteriors, sol.split.weights, sol.policy):
                assert not any(np.shares_memory(out, table) for table in tables)

    def test_cold_and_warm_solves_are_identical(self):
        # zero payoffs and zero-prior states included (exact_test_games)
        rng = np.random.default_rng(97)
        for game in exact_test_games(rng):
            for budget in (0.0, 0.03, 0.2, math.log(game.n_states)):
                persuasion._exact_split_lp.cache_clear()
                cold = solve_persuasion(game, budget)
                solve_persuasion(game, 0.5 * budget)
                assert_same_solution(cold, solve_persuasion(game, budget))
                assert persuasion._exact_split_lp.cache_info().hits == 2


class TestSplitPolicyRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        prior = rng.dirichlet(np.ones(3))
        pol = rng.dirichlet(np.ones(4), size=3)
        split = split_from_policy(pol, prior)
        split.check_plausible(prior, tol=1e-9)
        back = policy_from_split(split, prior)
        split2 = split_from_policy(back, prior)
        assert entropy(split2.posteriors) @ split2.weights == pytest.approx(
            entropy(split.posteriors) @ split.weights, abs=1e-9)

    def test_zero_prior_state_gets_a_uniform_row(self):
        prior = np.array([0.5, 0.0, 0.5])
        split = PosteriorSplit(
            posteriors=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]),
            weights=np.array([0.25, 0.25, 0.5]),
        )
        split.check_plausible(prior)
        pol = policy_from_split(split, prior)
        # one column per support posterior, no padding
        assert pol.shape == (3, 3)
        assert np.array_equal(pol[1], np.full(3, 1 / 3))
        np.testing.assert_allclose(pol.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(pol >= 0)
        np.testing.assert_allclose(pol[0], [0.5, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(pol[2], [0.0, 0.5, 0.5], atol=1e-12)

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
        alloc = curve.budgets[allocate_on_grid(np.array([1.0, 0.0]), 0.4, curve)]
        assert alloc[0] == 0.0
        # the whole 2-slot budget goes to the clean slot, down to one grid step
        step = curve.budgets[1]
        assert 0.4 - step < alloc[1] <= 0.4 + 1e-12

    def test_better_channel_gets_more_and_beats_uniform(self):
        curve = self.curve()
        pout = np.array([0.9, 0.1])
        total = 2 * 0.25
        alloc = curve.budgets[allocate_on_grid(pout, total, curve)]
        assert alloc[1] >= alloc[0] - 1e-12
        uniform = np.full(2, curve.budgets[curve.budgets <= 0.25][-1])
        assert window_objective(alloc, pout, curve) <= window_objective(uniform, pout, curve) + 1e-12
        assert window_objective(alloc, pout, curve) <= exhaustive_allocation(pout, total, curve) + 1e-12

    def test_curve_convex_nonincreasing(self):
        curve = self.curve()
        v = curve.values
        assert all(b <= a + 1e-9 for a, b in zip(v, v[1:]))
        second = np.diff(v, 2)
        assert np.all(second >= -1e-6)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, 13.0, "13", True, False, None])
    def test_curve_needs_a_positive_int_of_points(self, bad):
        # an empty curve would leave allocate_on_grid a level 0 that indexes nothing
        with pytest.raises(ValueError, match="points"):
            BudgetCurve(two_state_game([1.0, -1.0]), points=bad)


class TestGridAllocator:
    def test_respects_total_budget(self):
        game = build_scan_game(10.0, 0.1, 0.5, z_bins=1)
        curve = BudgetCurve(game, points=9)
        pout = np.array([0.8, 0.4, 0.1, 0.0, 0.6])
        alloc = curve.budgets[allocate_on_grid(pout, 5 * 0.2, curve)]
        assert alloc.sum() <= 5 * 0.2 + 1e-9
        order = np.argsort(1 - pout)
        assert all(alloc[order[i]] <= alloc[order[i + 1]] + 1e-12 for i in range(4))

    def test_zero_budget_allocates_nothing(self):
        game = build_scan_game(10.0, 0.1, 0.5, z_bins=1)
        curve = BudgetCurve(game, points=9)
        assert curve.budgets[allocate_on_grid(np.array([0.5, 0.5]), 0.0, curve)].sum() == 0.0

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
            alloc = curve.budgets[allocate_on_grid(pout, total, curve)]
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

    @staticmethod
    def random_games(seed):
        """Random games of 2 to 8 states, with random beliefs and policies
        (some states of zero belief, some signals never sent)."""
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            game = PersuasionGame(attack_payoff=rng.uniform(-2, 2, n), prior=rng.dirichlet(np.ones(n)), z_bins=n,
                                  z_rep=np.zeros(n), scan_flag=np.zeros(n, dtype=int))
            mu = rng.dirichlet(np.ones(n))
            mu[rng.random(n) < 0.2] = 0.0
            mu = game.prior if mu.sum() == 0 else mu / mu.sum()
            pol = rng.dirichlet(np.ones(int(rng.integers(1, 7))), size=n)
            pol[:, rng.random(pol.shape[1]) < 0.2] = 0.0
            pol[pol.sum(axis=1) == 0, 0] = 1.0
            yield game, mu, pol / pol.sum(axis=1, keepdims=True)

    def test_attack_values_of_rows_are_each_rows_value(self):
        # the drift trace column's bits: a batch of rows is valued as each row alone, by the 1-D dot product
        for game, mu, pol in self.random_games(31):
            joint = mu[:, None] * pol
            q = joint.sum(axis=0)
            rows = np.vstack([np.eye(game.n_states), mu, (joint[:, q > 0] / q[q > 0]).T])
            values = game.attack_values(rows)
            for i, row in enumerate(rows):
                assert values[i] == attacker_value(row, game) == max(float(row @ game.attack_payoff), 0.0)

    def test_drift_is_bit_identical_to_the_signal_loop(self):
        def loop_drift(belief, policy, payoff):
            # each sent signal's posterior a column of the joint over its mass, valued
            # by a 1-D dot product and summed in signal order
            joint = belief[:, None] * policy
            q = joint.sum(axis=0)
            expected = 0.0
            for m in range(policy.shape[1]):
                if q[m] <= 0:
                    continue
                expected += q[m] * max(float(joint[:, m] / q[m] @ payoff), 0.0)
            return float(expected - max(float(belief @ payoff), 0.0))

        cases = list(self.random_games(37))
        assets = persuasion_assets(default_scenario())
        game = assets.game
        for sol in [*assets.curve(13).solutions, assets.static_solution(0.2)]:
            cases += [(game, mu, sol.policy) for mu in (game.prior, *sol.split.posteriors)]
        for game, mu, pol in cases:
            assert lyapunov_drift(mu, pol, game) == loop_drift(mu, pol, game.attack_payoff)

    def test_value_at_the_prior_plus_drift_is_the_lp_objective(self):
        # the Lyapunov form at the prior: the receiver's value there plus a
        # policy's drift there is the value the LP gives that policy, for
        # star's revealing policy, star-static's split and every curve level
        cfg = default_scenario()
        assets = persuasion_assets(cfg)
        game = assets.game
        cases = [
            (assets.reveal_policy, solve_persuasion(game, 0.0).objective),
            *[(sol.policy, sol.objective) for sol in (
                assets.static_solution(cfg.persuasion.credibility), *assets.curve(cfg.persuasion.budget_points).solutions,
            )],
        ]
        for policy, objective in cases:
            value = attacker_value(game.prior, game) + lyapunov_drift(game.prior, policy, game)
            assert value == pytest.approx(objective, abs=1e-12, rel=0)
        # the cases differ: revealing is worth more to the receiver than the
        # split at the credibility budget
        assert cases[0][1] > cases[1][1]

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
