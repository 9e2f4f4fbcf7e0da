"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its headline numbers.  Tolerances are pinned in the asserts.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate, stats

from satdefsim.attacker import AttackerParams, best_response
from satdefsim.channel import ChannelParams, sample_envelope, shadowed_rician_pdf
from satdefsim.config import default_scenario
from satdefsim.engine import run_episode
from satdefsim.persuasion import (
    PersuasionGame,
    attacker_value,
    build_scan_game,
    credibility_cost,
    entropy,
    lyapunov_drift,
    solve_persuasion,
)
from satdefsim.scheduler import EdfQueue, UtilityParams, plan_horizon, window_utility

from conftest import micro_instance
from oracles import check_plan, enumerate_best_response, exact_schedule
from test_engine import Window, scripted_trace
from test_persuasion import brute_force_two_state, two_state_game

UTIL = UtilityParams()


@contextmanager
def criterion(n, label):
    t0 = time.time()
    info = {}
    try:
        yield info
    except Exception:
        print(f"\n[FAIL] criterion {n}: {label} ({time.time() - t0:.1f}s)", flush=True)
        raise
    extra = f" | {info['note']}" if "note" in info else ""
    print(f"\n[PASS] criterion {n}: {label} ({time.time() - t0:.1f}s){extra}", flush=True)


def test_criterion_1_channel_validity():
    with criterion(1, "fading density normalization, second moment, sampler KS") as info:
        t0 = time.time()
        rng = np.random.default_rng(2024)
        triples = [(0.158, 19.4, 1.29)] + [
            (float(rng.uniform(0.03, 0.4)), float(rng.uniform(0.6, 50.0)), float(rng.uniform(1e-4, 3.0)))
            for _ in range(10)
        ]
        for b0, m, om in triples:
            p = ChannelParams(b0=b0, m=m, omega=om)
            total, _ = integrate.quad(lambda r: shadowed_rician_pdf(r, p), 0, np.inf, limit=300)
            second, _ = integrate.quad(lambda r: r * r * shadowed_rician_pdf(r, p), 0, np.inf, limit=300)
            assert abs(total - 1.0) <= 1e-6, (b0, m, om, total)
            assert abs(second - (2 * b0 + om)) <= 1e-4, (b0, m, om, second)

        table = ChannelParams(b0=0.158, m=19.4, omega=1.29)
        draws = sample_envelope(table, np.random.default_rng(7), size=1_000_000)
        grid = np.linspace(0.0, float(draws.max()) + 0.5, 4001)
        pdf = shadowed_rician_pdf(grid, table)
        cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
        cdf = np.clip(cdf / cdf[-1], 0, 1)
        emp = np.arange(1, len(draws) + 1) / len(draws)
        ks = float(np.max(np.abs(np.interp(np.sort(draws), grid, cdf) - emp)))
        assert ks < 0.01
        elapsed = time.time() - t0
        assert elapsed < 30.0
        info["note"] = f"KS={ks:.4f}, 11 parameter triples"


def test_criterion_2_attacker_oracle_equivalence():
    with criterion(2, "best-response DP equals exhaustive enumeration") as info:
        t0 = time.time()
        rng = np.random.default_rng(99)
        for k in range(50):
            n = int(rng.integers(2, 13))
            # quantized idle-capacity levels make exact value ties likely,
            # exercising the documented tie-break
            z = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            params = AttackerParams(
                reward_weight=float(rng.uniform(1.0, 10.0)),
                base_cost=float(rng.uniform(0.05, 0.5)),
                cost_scale=float(rng.uniform(0.1, 1.0)),
                memory=float(rng.choice([0.1, 0.5, 1.0])),
            )
            rewards = params.reward_weight * (1.0 - z)
            scans = (rng.random(n) < 0.25).astype(int)
            dp = best_response(rewards, scans, params)
            brute = enumerate_best_response(rewards, scans, params)
            assert dp.value == brute.value, k
            assert dp.decisions.tolist() == brute.decisions.tolist(), k
        elapsed = time.time() - t0
        assert elapsed < 60.0
        info["note"] = "50 instances, horizons <= 12, exact value and plan"


def test_criterion_3_persuasion_oracle_equivalence():
    with criterion(3, "split LP matches brute-force split search") as info:
        rng = np.random.default_rng(314)
        budgets = (0.0, 0.1, 0.3, math.log(2))
        worst = 0.0
        for _ in range(20):
            payoff = rng.uniform(-2.0, 2.0, 2)
            prior = rng.dirichlet([1.5, 1.5])
            game = two_state_game(payoff, prior=prior)
            for budget in budgets:
                lp = solve_persuasion(game, budget).objective
                bf = brute_force_two_state(payoff, prior, budget)
                worst = max(worst, abs(lp - bf))
                assert abs(lp - bf) <= 1e-3, (payoff, prior, budget, lp, bf)
        # analytic anchors for the (1,-1)/(0,0) game with uniform prior
        anchor = two_state_game([1.0, -1.0])
        assert solve_persuasion(anchor, math.log(2)).objective == pytest.approx(0.0, abs=1e-9)
        assert solve_persuasion(anchor, 0.0).objective == pytest.approx(0.5, abs=1e-9)
        info["note"] = f"20 games x 4 budgets, worst gap {worst:.2e}"


def test_criterion_4_credibility_identity():
    with criterion(4, "self-information cost equals conditional entropy") as info:
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(100):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            pol = rng.dirichlet(np.ones(m), size=n)
            prior = rng.dirichlet(np.ones(n))
            joint = (prior[:, None] * pol).ravel()
            h_cond = stats.entropy(joint) - stats.entropy((prior[:, None] * pol).sum(axis=0))
            gap = abs(credibility_cost(pol, prior) - h_cond)
            worst = max(worst, gap)
            assert gap <= 1e-9
        for n in (2, 3, 4):
            prior = rng.dirichlet(np.ones(n))
            assert credibility_cost(np.eye(n), prior) == pytest.approx(0.0, abs=1e-12)
        info["note"] = f"100 random policies, worst identity gap {worst:.1e}"


def test_criterion_5_jensen_lyapunov_suite():
    with criterion(5, "belief drift bounds and budget monotonicity") as info:
        rng = np.random.default_rng(5)
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

        game = two_state_game([1.3, -0.8], prior=[0.4, 0.6])
        uninformative = np.ones((2, 1))
        assert lyapunov_drift(np.array([0.4, 0.6]), uninformative, game) == 0.0
        assert lyapunov_drift(np.array([0.7, 0.3]), uninformative, game) == 0.0

        budgets = np.linspace(0.01, 0.5, 13)
        objs = [solve_persuasion(game, float(c)).objective for c in budgets]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        scan_game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=2)
        objs4 = [solve_persuasion(scan_game, float(c)).objective for c in budgets]
        assert all(b <= a + 1e-9 for a, b in zip(objs4, objs4[1:]))
        info["note"] = "100 drift draws, 13-point budget sweep on 2- and 4-state games"


def test_criterion_6_scheduler_quality():
    with criterion(6, "constraint checker clean + greedy within 85% of exact") as info:
        t0 = time.time()
        rng = np.random.default_rng(66)
        import copy

        for k in range(1000):
            w, cfg, insts, targets = micro_instance(rng, max_tasks=3, with_quota=True)
            snapshot = {i.uid: copy.deepcopy(i) for i in insts}
            plan = plan_horizon(EdfQueue(insts), 0, w, UTIL, cfg, stability_targets=targets)
            violations = check_plan(plan, snapshot, cfg, targets)
            assert violations == [], (k, violations)

        ratios = []
        for k in range(100):
            w, cfg, insts, _ = micro_instance(rng, max_tasks=2)
            res = exact_schedule(copy.deepcopy(insts), w, UTIL, cfg)
            plan = plan_horizon(EdfQueue(insts), 0, w, UTIL, cfg)
            objective = window_utility(plan.scan_on.tolist(), plan.z.tolist(), cfg.scan.duration, UTIL)
            assert objective <= res.objective + 1e-9, k
            if res.objective > 1e-9:
                ratios.append(objective / res.objective)
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio >= 0.85
        elapsed = time.time() - t0
        assert elapsed < 300.0
        info["note"] = f"1000 clean plans; greedy/exact mean ratio {mean_ratio:.3f} over {len(ratios)} instances"


def test_criterion_7_benchmark_orderings():
    with criterion(7, "policy metric orderings at the benchmark scenario") as info:
        from satdefsim.engine import run_benchmark_suite

        t0 = time.time()
        cfg = default_scenario()  # horizon 2000
        res = run_benchmark_suite(cfg, ["fcfs", "sp", "star"], range(20))
        st = res.stats
        star_miss = st["star"]["relay_miss_pct"][0]
        fcfs_miss = st["fcfs"]["relay_miss_pct"][0]
        star_compl = st["star"]["routine_completion_pct"][0]
        sp_compl = st["sp"]["routine_completion_pct"][0]
        u = {p: st[p]["defender_utility"][0] for p in ("fcfs", "sp", "star")}
        assert star_miss <= 0.1
        assert fcfs_miss > 5.0
        assert star_compl > sp_compl
        assert u["star"] > u["sp"] > u["fcfs"]
        elapsed = time.time() - t0
        assert elapsed < 600.0
        info["note"] = (
            f"miss star/fcfs = {star_miss:.3f}/{fcfs_miss:.1f}%, "
            f"completion star/sp = {star_compl:.2f}/{sp_compl:.2f}%, "
            f"utility {u['star']:.2f} > {u['sp']:.2f} > {u['fcfs']:.2f} "
            f"(normalized {res.normalized_utility['star']:.2f}/{res.normalized_utility['sp']:.2f}/1.00)"
        )


def test_criterion_8_deception_effectiveness():
    with criterion(8, "deception ordering with sign tests + water-filling") as info:
        cfg = default_scenario()  # credibility 0.2
        assert cfg.persuasion.credibility == pytest.approx(0.2)
        seeds = range(20)
        realized = {}
        stardis_traces = []
        for pol in ("star", "star-static", "stardis"):
            vals = []
            for seed in seeds:
                m, tr = run_episode(cfg, seed, pol)
                vals.append(m.attacker_realized)
                if pol == "stardis":
                    stardis_traces.append(tr)
            realized[pol] = np.array(vals)

        a, b, c = realized["star"], realized["star-static"], realized["stardis"]
        assert np.mean(c) < np.mean(b) < np.mean(a)
        wins_static = int(np.sum(b < a))
        wins_dis = int(np.sum(c < b))
        p_static = stats.binomtest(wins_static, 20, alternative="greater").pvalue
        p_dis = stats.binomtest(wins_dis, 20, alternative="greater").pvalue
        assert p_static < 0.05
        assert p_dis < 0.05

        # water-filling: within every window of every episode the budget is
        # monotone non-decreasing in the predicted mean SNR
        for tr in stardis_traces:
            snr = np.array(tr.slots["mean_snr_db"])
            bud = np.array(tr.slots["budget"])
            for w0 in range(0, cfg.horizon, cfg.window):
                sl = slice(w0, min(w0 + cfg.window, cfg.horizon))
                ss, bb = snr[sl], bud[sl]
                order = np.argsort(ss, kind="stable")
                assert all(
                    bb[order[i]] <= bb[order[i + 1]] + 1e-12 for i in range(len(order) - 1)
                )
        info["note"] = (
            f"mean attacker utility {np.mean(c):.3f} < {np.mean(b):.3f} < {np.mean(a):.3f}; "
            f"sign tests p={p_dis:.1e}/{p_static:.1e}; water-filling clean on 20 episodes"
        )


def test_criterion_9_belief_dynamics():
    with criterion(9, "erasure resets drive losing blind attacks; deception holds beliefs") as info:
        game = build_scan_game(10.0, 0.1, prior_scan=0.5, z_bins=1)
        assert game.p_scan(game.prior) == pytest.approx(0.5)
        # pooling policy: the safe-looking signal is always sent while
        # scanning and 2/3 of the time when vulnerable -> posterior 0.6
        policy = np.array([[2 / 3, 1 / 3], [1.0, 0.0]])
        params = AttackerParams()
        threshold = 0.55
        windows = [
            Window(erased=True, scan_true=False, z_true=0.2),
            Window(erased=True, scan_true=False, z_true=0.2),
            Window(erased=False, scan_true=False, z_true=0.2, signal=0),
            Window(erased=False, scan_true=False, z_true=0.2, signal=0),
            Window(erased=False, scan_true=False, z_true=0.2, signal=1),
        ]
        rows = scripted_trace(windows, policy, game, params, threshold, window_len=5)
        erasure_rows = [r for r in rows if r["window"] in (0, 1)]
        assert all(r["belief_scan"] == pytest.approx(0.5) for r in erasure_rows)
        assert all(r["x_att"] == 1 for r in erasure_rows)
        assert all(r["utility"] < 0 for r in erasure_rows)
        deception_rows = [r for r in rows if r["window"] in (2, 3)]
        assert all(r["belief_scan"] > threshold for r in deception_rows)
        assert all(r["x_att"] == 0 for r in deception_rows)
        revealed_rows = [r for r in rows if r["window"] == 4]
        assert all(r["x_att"] == 1 for r in revealed_rows)
        assert sum(r["utility"] for r in revealed_rows) > 0
        info["note"] = "blind attacks lose during forced erasures; pooled posterior 0.60 > 0.55 deters"
