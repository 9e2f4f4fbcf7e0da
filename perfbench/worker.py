"""One benchmark child: cold set-up, warm-up, a timed phase and output checks.

Started by ``run.py`` in a fresh interpreter, so that the set-up time
includes importing satdefsim, loading the scenario and building its
persuasion assets cold.  Prints one JSON object as its last line of
standard output.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts from before the imports

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy
import yaml

from satdefsim import config, engine, persuasion
from hostspeed import reference
from tracing import Tracer, aggregate, episode_accounting, installed_wrappers

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

POLICIES = ("fcfs", "sp", "star", "star-static", "stardis")

#: workload -> scenario file.  Both run rounds of the five policies.
WORKLOADS = {
    "suite-default": "suite-default.yaml",
    "congested-dp": "congested-dp.yaml",
}

PROBE_HORIZON = 500  # episode length of the warm-up and overhead probes
OVERHEAD_PAIRS = 3

TOL_PLAUSIBLE = 1e-7
TOL_BUDGET = 1e-6
TOL_VALUE = 1e-7


class OutputCheckError(Exception):
    """A library call returned an output that fails the benchmark's checks."""


def derived_seed(*parts: int) -> int:
    """Episode seed derived from the workload seed and a position in the run."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_episode(cfg, policy: str, seed: int, metrics, traces) -> None:
    h = cfg.horizon
    problems = []
    if metrics.policy != policy or metrics.seed != seed:
        problems.append("metrics belong to another episode")
    total = metrics.completed + metrics.dropped + metrics.missed + metrics.residual
    if total != metrics.generated:
        problems.append(f"accounting identity: {total} != generated {metrics.generated}")
    if min(metrics.completed, metrics.dropped, metrics.missed, metrics.residual, metrics.infeasible_events) < 0:
        problems.append("negative count")
    row = metrics.to_row()
    if not all(math.isfinite(v) for v in row.values()):
        problems.append("non-finite metric")
    pct = [metrics.routine_completion_pct, metrics.relay_miss_pct, *metrics.utilization.values()]
    if not all(0.0 <= v <= 100.0 for v in pct):
        problems.append("percentage out of [0, 100]")
    if not 0.0 <= metrics.scan_freq <= 1.0:
        problems.append("scan frequency out of [0, 1]")
    if not 0 <= metrics.blocked_attacks <= metrics.attack_count <= h:
        problems.append("attack counts out of range")
    if not 0 <= metrics.erasure_count <= h:
        problems.append("erasure count out of range")
    bad_cols = [c for c, vals in traces.slots.items() if len(vals) != h]
    if bad_cols:
        problems.append(f"slot trace columns not of length {h}: {bad_cols}")
    if len(traces.windows) != math.ceil(h / cfg.window):
        problems.append("window trace has the wrong length")
    if problems:
        raise OutputCheckError("; ".join(problems))


def full_revelation_value(game) -> float:
    return float(np.sum(game.prior * np.maximum(game.attack_payoff, 0.0)))


def _check_solution(sol, game, budget: float, floor: float, problems: list, where: str) -> None:
    try:
        sol.split.check_plausible(game.prior, tol=TOL_PLAUSIBLE)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
    cost = persuasion.credibility_cost(sol.policy, game.prior)
    if cost > budget + TOL_BUDGET:
        problems.append(f"{where}: credibility cost {cost:.3g} over budget {budget:.3g}")
    pol = sol.policy
    if np.any(pol < -1e-12) or np.max(np.abs(pol.sum(axis=1) - 1.0)) > 1e-9:
        problems.append(f"{where}: policy is not row-stochastic")
    if sol.objective < floor - TOL_VALUE:
        problems.append(f"{where}: objective {sol.objective:.6g} below the minimum {floor:.6g}")


def check_design(game, curve, static, static_budget: float) -> None:
    problems: list[str] = []
    floor = persuasion.min_attacker_value(game)
    for b, sol in zip(curve.budgets, curve.solutions):
        _check_solution(sol, game, float(b), floor, problems, f"curve budget {b:.4f}")
    _check_solution(static, game, static_budget, floor, problems, "static solution")
    objectives = np.array([s.objective for s in curve.solutions])
    if np.any(np.diff(objectives) > TOL_VALUE) or np.any(np.diff(curve.values) > 0):
        problems.append("curve values increase with the budget")
    reveal = full_revelation_value(game)
    if abs(curve.values[0] - reveal) > TOL_VALUE:
        problems.append(f"value at budget 0 is {curve.values[0]:.9g}, full revelation gives {reveal:.9g}")
    if problems:
        raise OutputCheckError("; ".join(problems))


# ---------------------------------------------------------------------------
# Results digest
# ---------------------------------------------------------------------------

def _jsonable(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"cannot digest {type(o).__name__}")


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def episode_record(metrics, traces) -> dict:
    return {
        "kind": "episode",
        "metrics": dataclasses.asdict(metrics),
        "slots": _sha(traces.slots),
        "windows": _sha(traces.windows),
    }


def design_record(game, curve, static) -> dict:
    def sol(s):
        return {"objective": s.objective, "credibility": s.credibility, "policy": s.policy}

    return {
        "kind": "design",
        "prior": game.prior,
        "budgets": curve.budgets,
        "values": curve.values,
        "curve": [sol(s) for s in curve.solutions],
        "static": sol(static),
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Run:
    """Counts operations and collects timings and digest records."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # timed-phase operations: (policy or "lp", seconds, reference seconds)
        self.runs: list[tuple[str, float, float]] = []
        self.curves: list[float] = []  # seconds per cold BudgetCurve
        self.records: list[dict] = []

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        self.failures.append(f"{what}: {traceback.format_exc(limit=3).strip()}")

    def _timed(self, fn):
        """``fn()``, its time, and the mean host reference time just
        before and after it."""
        gc.collect()  # no operation pays for collecting its predecessor's garbage
        ref0 = reference()
        t = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t
        return out, dt, (ref0 + reference()) / 2

    def episode(self, cfg, seed: int, policy: str, digest: bool = False) -> None:
        """One episode is one operation."""
        self.attempted += 1
        try:
            (metrics, traces), dt, ref = self._timed(lambda: engine.run_episode(cfg, seed, policy))
            check_episode(cfg, policy, seed, metrics, traces)
        except Exception:  # a failed operation is counted, the run goes on
            self._fail(1, f"episode {policy} seed {seed}")
            return
        self.runs.append((policy, dt, ref))
        if digest:
            self.records.append(episode_record(metrics, traces))

    def static_solve(self, game, budget: float, subdivisions) -> None:
        """One fresh LP solve of the static solution, outside the engine's
        cache.  It is one operation."""
        self.attempted += 1
        try:
            sol, dt, ref = self._timed(lambda: persuasion.solve_persuasion(game, budget, subdivisions))
            problems: list[str] = []
            _check_solution(sol, game, budget, persuasion.min_attacker_value(game), problems, "static solution")
            if problems:
                raise OutputCheckError("; ".join(problems))
        except Exception:  # a failed operation is counted, the run goes on
            self._fail(1, "static solve")
            return
        self.runs.append(("lp", dt, ref))

    def design(self, game, points: int, budget: float, build_curve, solve_static) -> None:
        """Each LP solve is one operation: ``points`` for the curve plus
        the static solution."""
        n = points + 1
        self.attempted += n
        gc.collect()
        try:
            t0 = time.perf_counter()
            curve = build_curve()
            t1 = time.perf_counter()
            static = solve_static()
            if len(curve.solutions) != points:
                raise OutputCheckError(f"curve has {len(curve.solutions)} points, expected {points}")
            check_design(game, curve, static, budget)
        except Exception:  # a failed operation is counted, the run goes on
            self._fail(n, f"design z_bins {game.z_bins} prior {game.prior.tolist()}")
            return
        self.curves.append(t1 - t0)
        self.records.append(design_record(game, curve, static))


def design_assets(run: Run, cfg) -> None:
    """Build the scenario's persuasion assets cold through the engine's
    cache, as a ``simulate --policy stardis`` run does."""
    assets = engine.persuasion_assets(cfg)
    p = cfg.persuasion
    run.design(
        assets.game, p.budget_points, p.credibility,
        lambda: assets.curve(p.budget_points, p.units_per_slot),
        lambda: assets.static_solution(p.credibility),
    )


def timed_suite(run: Run, cfg, ws: int, child: int, share: float) -> None:
    """Rounds of one static LP solve and the five policies on one episode
    seed.  Each round starts one policy later than the one before, so
    that a cut round favours no policy.  The first round always runs in
    full and is the digest set; later rounds stop at the first operation
    that would start after ``share`` seconds."""
    assets = engine.persuasion_assets(cfg)
    p = cfg.persuasion
    start = time.perf_counter()
    r = 0
    while True:
        seed = derived_seed(ws, 1, child, r)
        for k in range(len(POLICIES) + 1):
            if r > 0 and time.perf_counter() - start >= share:
                return
            if k == 0:
                run.static_solve(assets.game, p.credibility, assets.subdivisions)
            else:
                run.episode(cfg, seed, POLICIES[(r + k) % len(POLICIES)], digest=r == 0)
        r += 1


def probe_scenario(scenario: Path):
    """The scenario shortened to ``PROBE_HORIZON`` slots (one whole pass)."""
    with open(scenario) as fh:
        raw = yaml.safe_load(fh)
    raw["horizon"] = PROBE_HORIZON
    return config.from_dict(raw)


def warm_up(probe, ws: int, child: int) -> None:
    """One short untimed, unchecked episode per policy: the first episode
    of a policy in a process runs slow."""
    for policy in POLICIES:
        engine.run_episode(probe, derived_seed(ws, 9, child), policy)


def overhead_probe(probe, ws: int, child: int) -> float:
    """Traced over untraced wall time of short ``stardis`` episodes, in
    ``OVERHEAD_PAIRS`` alternating pairs of one seed."""
    seed = derived_seed(ws, 8, child)

    def op():
        gc.collect()
        t = time.perf_counter()
        engine.run_episode(probe, seed, "stardis")
        return time.perf_counter() - t

    plain = traced = 0.0
    for _ in range(OVERHEAD_PAIRS):
        plain += op()
        with Tracer():
            traced += op()
    return traced / plain


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--child", type=int, required=True)
    ap.add_argument("--share", type=float, required=True, help="seconds of timed work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, help="traced run: file for the raw spans")
    args = ap.parse_args(argv)
    scenario = SCENARIO_DIR / WORKLOADS[args.workload]

    run = Run()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t = time.perf_counter()
    ref0 = reference()
    ref_cost = time.perf_counter() - t  # not part of the set-up
    cfg = config.load_config(scenario)
    design_assets(run, cfg)
    setup_s = time.perf_counter() - _T_START - ref_cost
    setup_ref = (ref0 + reference()) / 2

    probe = probe_scenario(scenario)
    if tracer is not None:
        tracer.recording = False
    warm_up(probe, args.seed, args.child)
    if tracer is not None:
        tracer.recording = True

    t = time.perf_counter()
    timed_suite(run, cfg, args.seed, args.child, args.share)
    timed_s = time.perf_counter() - t

    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref,
        "timed_s": timed_s,
        "runs": run.runs,
        "horizon": cfg.horizon,
        "curves": run.curves,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "digest": _sha(run.records),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        report["overhead"] = overhead_probe(probe, args.seed, args.child)
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        report["layers"] = aggregate(tracer.spans)
        report["counters"] = tracer.counters
        report["episode_accounting"] = episode_accounting(tracer.spans)
        if args.spans_out is not None:
            np.savez_compressed(args.spans_out, **tracer.to_arrays())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
