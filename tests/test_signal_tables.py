"""Signal tables: the per-policy CDFs, posteriors and drift memo the
episode's telemetry pass reads instead of calling ``Generator.choice``,
``belief_update`` and ``lyapunov_drift`` on every slot."""
import dataclasses

import numpy as np
import pytest

from satdefsim import engine
from satdefsim.attacker import AttackerParams, belief_update
from satdefsim.config import default_scenario
from satdefsim.engine import SignalTable, SlotTables, belief_entry, choice_cdf, intercept, run_episode
from satdefsim.persuasion import BudgetCurve, PersuasionGame, lyapunov_drift

from conftest import clear_engine_caches
from test_golden import record

ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def random_game_and_policy(seed: int):
    """A 2-8-state game whose prior has zero entries, and a policy with
    zero-mass columns, one-hot rows and uniform rows for zero-prior
    states; every row sums to 1 within ``choice``'s tolerance."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    cols = int(rng.integers(2, n + 3))
    prior = rng.dirichlet(np.ones(n))
    zero_prior = rng.random(n) < 0.3
    zero_prior[int(rng.integers(n))] = False  # keep some mass
    prior[zero_prior] = 0.0
    prior /= prior.sum()
    pol = rng.dirichlet(np.ones(cols), size=n)
    dead = rng.random(cols) < 0.3  # columns with no mass at all
    dead[int(rng.integers(cols))] = False
    pol[:, dead] = 0.0
    pol /= pol.sum(axis=1, keepdims=True)
    for i in range(n):
        if rng.random() < 0.25:
            pol[i] = 0.0
            pol[i, int(rng.integers(cols))] = 1.0
    pol[zero_prior] = 1.0 / cols
    game = PersuasionGame(
        attack_payoff=rng.normal(size=n),
        prior=prior,
        z_bins=1,
        z_rep=rng.random(n),
        scan_flag=rng.integers(0, 2, size=n),
    )
    return game, pol


def choice_error(row) -> str | None:
    """``Generator.choice``'s message for an invalid row, None for a valid one."""
    try:
        np.random.default_rng(0).choice(len(row), p=row)
    except ValueError as exc:
        return str(exc)
    return None


class TestDrawOracle:
    def test_random_policies_cover_the_edges(self):
        seen = {"zero-mass signal": 0, "one-hot row": 0, "zero-prior state": 0}
        for seed in range(40):
            game, pol = random_game_and_policy(seed)
            seen["zero-mass signal"] += bool(np.any(game.prior @ pol == 0))
            seen["one-hot row"] += bool(np.any(pol.max(axis=1) == 1.0))
            seen["zero-prior state"] += bool(np.any(game.prior == 0))
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("seed", range(40))
    def test_draws_equal_choice_draw_for_draw(self, seed):
        game, pol = random_game_and_policy(seed)
        table = SignalTable(pol, game)
        n = 300
        states = np.random.default_rng(seed + 1000).integers(0, len(pol), size=n)
        rng = np.random.default_rng(seed)
        expected = [int(rng.choice(len(pol[s]), p=pol[s])) for s in states.tolist()]
        uniforms = np.random.default_rng(seed).random(n)
        tables = SlotTables([table] * n, belief_entry(game.prior, game))
        assert tables.draw(states, uniforms).tolist() == expected
        for m in range(pol.shape[1]):  # zero-prior states leave signals without mass
            if (game.prior * pol[:, m]).sum() > 0:
                assert table.posteriors[m][0].tobytes() == belief_update(game.prior, m, pol).tobytes()
            else:
                assert m not in table.posteriors

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_near_the_tolerance(self, seed):
        # sums just inside and just outside sqrt(eps) of 1, and 1e-6 off
        _, pol = random_game_and_policy(seed)
        row = pol[0]
        for scale in (1 + 1e-6, 1 - 1e-6, 1 + 1e-9, 1 - 1e-9,
                      1 + 0.999 * ATOL, 1 - 0.999 * ATOL, 1 + 1.001 * ATOL, 1 - 1.001 * ATOL):
            scaled = row * scale
            message = choice_error(scaled)
            if message is None:
                cdf = choice_cdf(scaled)
                rng = np.random.default_rng(seed)
                expected = [int(rng.choice(len(scaled), p=scaled)) for _ in range(50)]
                uniforms = np.random.default_rng(seed).random(50)
                assert cdf.searchsorted(uniforms, side="right").tolist() == expected
            else:
                with pytest.raises(ValueError) as err:
                    choice_cdf(scaled)
                assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["negative", "nan", "sum-high", "sum-low"])
    def test_invalid_rows_raise_choice_error(self, kind):
        game, pol = random_game_and_policy(7)
        bad = pol.copy()
        if kind == "negative":
            bad[1, :2] = [1.2, -0.2]
            bad[1, 2:] = 0.0
        elif kind == "nan":
            bad[1, 0] = np.nan
        else:
            bad[1] *= 1 + (1e-6 if kind == "sum-high" else -1e-6)
        message = choice_error(bad[1])
        assert message is not None
        with pytest.raises(ValueError) as err:
            choice_cdf(bad[1])
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            SignalTable(bad, game)
        assert str(err.value) == message


def with_persuasion(cfg, **values):
    return dataclasses.replace(cfg, persuasion=dataclasses.replace(cfg.persuasion, **values))


def distinct_tables(plan) -> list:
    return list(dict.fromkeys(plan.tables))


def all_default_tables(cfg):
    """The distinct tables of a scenario's star, star-static and stardis
    plans; stardis's at credibility 0.03, where each window gives some
    slots budget level 0 and some level 1."""
    plans = [engine._signal_plan(cfg, "star"), engine._signal_plan(cfg, "star-static"),
             engine._signal_plan(with_persuasion(cfg, credibility=0.03), "stardis")]
    return engine.persuasion_assets(cfg), [t for plan in plans for t in distinct_tables(plan)]


def receive_one(table, m: int):
    """One slot that receives signal ``m`` of ``table``."""
    tables = SlotTables([table], belief_entry(table.game.prior, table.game))
    return intercept(tables, np.array([0]), np.array([m]), [False], [False], [0.5], 1, AttackerParams(), 0.55)


def count_calls(monkeypatch, name: str) -> dict:
    calls = {"n": 0}
    fn = getattr(engine, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(engine, name, counting)
    return calls


class TestTables:
    def test_default_tables_match_belief_update(self):
        cfg = default_scenario(horizon=200)
        assets, tables = all_default_tables(cfg)
        game = assets.game
        assert len(tables) == 4  # reveal, static, and curve levels 0 and 1
        # one signal per support posterior leaves none unused, so a copy of
        # each table with a column of zeros appended has the one dead signal
        dead = np.zeros((game.n_states, 1))
        padded = [SignalTable(np.hstack([table.policy, dead]), game) for table in tables]
        zero_mass = 0
        for table in tables + padded:
            for m in range(table.policy.shape[1]):
                if (game.prior * table.policy[:, m]).sum() > 0:
                    expected = belief_update(game.prior, m, table.policy)
                    belief, p_scan, idle_gap = table.posteriors[m]
                    assert belief.tobytes() == expected.tobytes()
                    assert p_scan == game.p_scan(expected)
                    off = game.scan_flag == 0
                    assert idle_gap == float(np.sum(expected[off] * (1.0 - game.z_rep[off])))
                else:
                    zero_mass += 1
                    assert m not in table.posteriors
                    with pytest.raises(ValueError, match=f"signal {m} has zero probability"):
                        receive_one(table, m)
                    with pytest.raises(ValueError, match="zero probability"):
                        belief_update(game.prior, m, table.policy)
        assert zero_mass == len(padded)

    def test_tables_are_read_only(self):
        cfg = default_scenario(horizon=200)
        assets, tables = all_default_tables(cfg)
        arrays = [assets.prior_entry[0]]
        for table in tables:
            arrays += [table.policy, *table.cdf] + [entry[0] for entry in table.posteriors.values()]
            with pytest.raises(TypeError):
                table.posteriors[99] = assets.prior_entry
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_drift_memo_matches_lyapunov_drift(self):
        cfg = default_scenario(horizon=200)
        assets, tables = all_default_tables(cfg)
        beliefs = [assets.prior_entry[0]] + [e[0] for t in tables for e in t.posteriors.values()]
        for table in tables:
            for belief in beliefs:
                assert table.drift(belief) == lyapunov_drift(belief, table.policy, assets.game)
                assert table.drift(belief) == lyapunov_drift(belief, table.policy, assets.game)

    def test_each_table_built_once(self, monkeypatch):
        clear_engine_caches()
        updates = count_calls(monkeypatch, "belief_update")
        drifts = count_calls(monkeypatch, "lyapunov_drift")
        cfg = default_scenario(horizon=200)
        run_episode(cfg, 0, "stardis")
        built = distinct_tables(engine._signal_plan(cfg, "stardis"))
        assert built and updates["n"] == sum(len(t.posteriors) for t in built)
        first_drifts = drifts["n"]
        for seed in (1, 2):
            run_episode(cfg, seed, "stardis")
        assert updates["n"] == sum(len(t.posteriors) for t in built)
        assert distinct_tables(engine._signal_plan(cfg, "stardis")) == built
        # memo misses only: at most one per (table, distinct belief)
        assert 0 < first_drifts <= drifts["n"] <= sum(len(t.posteriors) + 1 for t in built)
        assert drifts["n"] == sum(len(t._drift) for t in built)


class RecyclingCurve(BudgetCurve):
    """A budget curve whose policies live in the array objects of the
    curve built before it, refilled: what happens to a freed policy when
    the allocator hands its address to the next curve's.  Later levels'
    arrays go to earlier levels, so each keeps an id whose old content
    was another budget's policy."""

    recycled: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pool = RecyclingCurve.recycled
        for sol in self.solutions:
            if pool:
                arr = pool.pop()
                arr[...] = sol.policy
                sol.policy = arr
        RecyclingCurve.recycled = [sol.policy for sol in self.solutions]


def test_rebuilt_curve_gets_fresh_tables(monkeypatch):
    """Rebuilding the budget curve with another point count and back must
    leave no table of a replaced policy in use, even one whose array
    object (and so ``id``) a new policy has taken over."""
    cfg = default_scenario(horizon=200)
    points = cfg.persuasion.budget_points
    clear_engine_caches()
    cold = record(cfg, 0, "stardis")

    clear_engine_caches()
    monkeypatch.setattr(engine, "BudgetCurve", RecyclingCurve)
    monkeypatch.setattr(RecyclingCurve, "recycled", [])
    assets = engine.persuasion_assets(cfg)
    assert record(cfg, 0, "stardis") == cold
    for p in (points, 5, points, 9, points):
        plan = engine._signal_plan(with_persuasion(cfg, budget_points=p), "stardis")
        curve = assets.curve(p)
        for budget, table in zip(plan.budgets.tolist(), plan.tables):
            policy = curve.solutions[curve.budgets.tolist().index(budget)].policy
            assert np.array_equal(table.policy, policy)
            for m, (belief, _, _) in table.posteriors.items():
                assert np.array_equal(belief, belief_update(assets.game.prior, m, policy))
    assert record(cfg, 0, "stardis") == cold
    clear_engine_caches()  # later tests get curves that recycle no arrays
