"""Tests of the benchmark itself: span arithmetic, wrapper removal, digest
determinism, failure counting and the scenario files.

Run from the repository root with ``python -m pytest -q perfbench``.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from satdefsim import config, engine, persuasion  # noqa: E402


def small_scenario(name="suite-default.yaml", horizon=60, subdivisions=6):
    with open(BENCH / "scenarios" / name) as fh:
        raw = yaml.safe_load(fh)
    raw["horizon"] = horizon
    raw["persuasion"] = {"subdivisions": subdivisions}
    return config.from_dict(raw)


# -- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ["engine.run_episode", 0.0, 10.0, -1],
        ["scheduler.plan_horizon", 1.0, 4.0, 0],
        ["scheduler.schedule_slot.plan", 2.0, 3.0, 1],
        ["attacker.belief_update", 3.0, 6.0, 0],  # overlaps its sibling
        ["workload.admit", 9.0, 12.0, 0],  # runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 3.0, 3.0])


def test_aggregate_counts_nested_same_name_once_in_total():
    spans = [
        ["persuasion.BudgetCurve", 0.0, 4.0, -1],
        ["persuasion.solve_persuasion", 0.5, 1.5, 0],
        ["persuasion.solve_persuasion", 2.0, 3.5, 0],
        ["persuasion.simplex_grid", 2.0, 2.5, 2],
    ]
    agg = tracing.aggregate(spans)
    assert agg["persuasion.solve_persuasion"] == pytest.approx({"calls": 2, "self_s": 2.0, "total_s": 2.5})
    assert agg["persuasion.BudgetCurve"] == pytest.approx({"calls": 1, "self_s": 1.5, "total_s": 4.0})
    assert agg["attacker.best_response"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def test_episode_accounting_sums_self_times_below_each_episode():
    spans = [
        ["config.load_config", 0.0, 1.0, -1],  # outside any episode
        ["engine.run_episode", 1.0, 5.0, -1],
        ["engine.EpisodeRunner.init", 1.0, 2.0, 1],
        ["workload.generate_arrivals", 1.2, 1.5, 2],
        ["scheduler.schedule_slot.exec", 3.0, 4.0, 1],
    ]
    total, accounted = tracing.episode_accounting(spans)
    assert total == pytest.approx(4.0)
    assert accounted == pytest.approx(4.0)


# -- wrappers -------------------------------------------------------------------

def _current_attrs():
    return [tracing.resolve(owner).__dict__[attr] for _, owner, attr in tracing.PATCH_POINTS]


def test_wrappers_are_removed_after_a_traced_run():
    before = _current_attrs()
    cfg = small_scenario()
    with tracing.Tracer() as tracer:
        assert len(tracing.installed_wrappers()) == len(tracing.PATCH_POINTS)
        engine.run_episode(cfg, 3, "sp")
    assert tracing.installed_wrappers() == []
    assert all(a is b for a, b in zip(_current_attrs(), before))
    names = {s[0] for s in tracer.spans}
    assert {"engine.run_episode", "engine.EpisodeRunner.init", "scheduler.schedule_slot.exec"} <= names
    total, accounted = tracing.episode_accounting(tracer.spans)
    assert accounted == pytest.approx(total, rel=1e-9)


def test_wrappers_are_removed_when_the_traced_call_raises():
    with pytest.raises(ValueError):
        with tracing.Tracer():
            engine.run_episode(small_scenario(), 3, "no-such-policy")
    assert tracing.installed_wrappers() == []


def test_schedule_slot_spans_are_split_by_caller_and_counted():
    cfg = small_scenario()
    with tracing.Tracer() as tracer:
        engine.run_episode(cfg, 5, "star")
    agg = tracing.aggregate(tracer.spans)
    assert agg["scheduler.schedule_slot.exec"]["calls"] == cfg.horizon
    assert agg["scheduler.schedule_slot.plan"]["calls"] == cfg.horizon
    assert tracer.counters["workload.instances"] > 0


# -- digest and failure counting ---------------------------------------------------

def test_same_seed_gives_the_same_digest():
    cfg = small_scenario()

    def digest(ws):
        run = worker.Run()
        worker.design_assets(run, cfg)
        worker.timed_suite(run, cfg, ws, child=0, share=0.0)
        assert run.failed == 0
        assert run.attempted == cfg.persuasion.budget_points + 1 + 1 + len(worker.POLICIES)
        assert sorted(kind for kind, _, _ in run.runs) == sorted(("lp",) + worker.POLICIES)
        return worker._sha(run.records)

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_a_cut_round_favours_no_policy():
    run = worker.Run()
    worker.timed_suite(run, small_scenario(horizon=20), 3, child=0, share=0.05)
    counts = [sum(p == pol for p, _, _ in run.runs) for pol in worker.POLICIES]
    assert max(counts) - min(counts) <= 1


def test_corrupted_episode_counts_as_failed(monkeypatch):
    cfg = small_scenario()
    real = engine.run_episode

    def corrupted(*args):
        metrics, traces = real(*args)
        metrics.completed += 1  # breaks the accounting identity
        return metrics, traces

    monkeypatch.setattr(engine, "run_episode", corrupted)
    run = worker.Run()
    run.episode(cfg, 1, "fcfs", digest=True)
    assert (run.attempted, run.failed, run.runs, run.records) == (1, 1, [], [])
    assert "accounting identity" in run.failures[0]


def test_timings_are_corrected_by_the_reference_next_to_them():
    half_speed = 2 * hostspeed.REF_NOMINAL_S
    reports = [{
        "setup_s": 10.0, "setup_ref_s": hostspeed.REF_NOMINAL_S, "curves": [8.0], "horizon": 100,
        "runs": [["lp", 0.5, hostspeed.REF_NOMINAL_S]] + [[p, 2.0, half_speed] for p in run.POLICIES],
    }]
    m = run.end_to_end(reports, peak_kb=1024)
    assert m["setup_s"] == (pytest.approx(5.0), "s")  # the child's median reference runs at half speed
    assert m["solve_s"] == (pytest.approx(0.5), "s")
    assert m["episode_s.star"] == (pytest.approx(1.0), "s")
    assert m["slots_per_s"] == (pytest.approx(100.0), "1/s")
    assert m["peak_rss_mb"] == (1.0, "MB")


def test_reference_kernel_is_timed():
    assert 0.0 < hostspeed.reference() < 1.0
    assert hostspeed.kernel() == hostspeed.kernel()


def test_corrupted_design_counts_every_solve_as_failed():
    game = persuasion.build_scan_game(10.0, 0.1, 0.4, z_bins=2)
    curve = persuasion.BudgetCurve(game, points=5, subdivisions=6)
    static = persuasion.solve_persuasion(game, 0.2, 6)
    static.policy = static.policy * 1.5  # no longer row-stochastic

    run = worker.Run()
    run.design(game, 5, 0.2, lambda: curve, lambda: static)
    assert (run.attempted, run.failed, run.curves) == (6, 6, [])
    assert "row-stochastic" in run.failures[0]


def test_raised_exception_counts_as_failed():
    def boom():
        raise RuntimeError("solver crashed")

    run = worker.Run()
    game = persuasion.build_scan_game(10.0, 0.1, 0.4, z_bins=2)
    run.design(game, 13, 0.2, boom, boom)
    assert (run.attempted, run.failed) == (14, 14)


def test_design_checks_pass_on_valid_output():
    game = persuasion.build_scan_game(10.0, 0.1, 0.65, z_bins=3)
    curve = persuasion.BudgetCurve(game, points=5, subdivisions=4)
    static = persuasion.solve_persuasion(game, 0.2, 4)
    worker.check_design(game, curve, static, 0.2)
    assert curve.values[0] == pytest.approx(worker.full_revelation_value(game))


# -- scenarios and the command line --------------------------------------------------

def test_suite_default_is_the_default_scenario():
    loaded = config.load_config(BENCH / "scenarios" / "suite-default.yaml")
    assert loaded.to_jsonable() == config.default_scenario().to_jsonable()


def test_congested_dp_differs_only_in_arrival_rate_and_attacker_mode():
    base = config.default_scenario().to_jsonable()
    cong = config.load_config(BENCH / "scenarios" / "congested-dp.yaml").to_jsonable()
    assert cong["tasks"][0]["arrival"] == {"kind": "aperiodic", "rate": 0.4}
    assert cong["attacker"]["mode"] == "dp"
    cong["tasks"][0]["arrival"] = base["tasks"][0]["arrival"]
    cong["attacker"]["mode"] = base["attacker"]["mode"]
    assert cong == base


def test_fails_without_printing_a_result_where_no_sources_exist(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "suite-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
