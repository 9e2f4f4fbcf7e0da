"""Command-line entry points.

Subcommands: ``simulate`` (one episode with full traces), ``benchmark``
(policy comparison table), ``sweep`` (the comparison at each value of one
dotted scenario key, such as ``persuasion.credibility`` or
``attacker.mode``; each ``--values`` entry is read as a YAML scalar, as
in a scenario file), ``persuasion-solve`` (standalone signal design), and
``channel-validate`` (fading PDF/CDF tables).  Exit code 0 on success,
2 on configuration or validation failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channel import ChannelParams, shadowed_rician_pdf
from .config import POLICY_KINDS, ConfigError, _cast, _take, default_scenario, load_config
from .engine import (
    build_id,
    run_benchmark_suite,
    run_episode,
    sweep,
    write_csv,
    write_json,
    write_slot_traces,
    write_window_traces,
)
from .persuasion import PersuasionGame, solve_persuasion


def _parse_seeds(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s]


def _load(args) -> "ScenarioConfig":
    if args.config:
        return load_config(args.config)
    return default_scenario()


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    metrics, traces = run_episode(cfg, args.seed, args.policy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        write_slot_traces(traces, out / "slots.csv")
        write_window_traces(traces, out / "windows.csv")
    write_json({"metrics": metrics.to_row(), "policy": metrics.policy, "seed": metrics.seed},
               cfg, out / "episode.json")
    print(f"policy={metrics.policy} seed={metrics.seed} "
          f"defender_utility={metrics.defender_utility:.4f} "
          f"attacker_realized={metrics.attacker_realized:.4f} "
          f"routine_completion={metrics.routine_completion_pct:.2f}% "
          f"relay_miss={metrics.relay_miss_pct:.3f}%")
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _load(args)
    seeds = _parse_seeds(args.seeds)
    policies = args.policies.split(",")
    res = run_benchmark_suite(cfg, policies, seeds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pol in res.policies:
        for metric, (mu, sd) in res.stats[pol].items():
            rows.append({"policy": pol, "metric": metric, "mean": mu, "std": sd})
    if args.format == "csv":
        write_csv(rows, ["policy", "metric", "mean", "std"], out / "benchmark.csv")
    write_json(res.to_jsonable(), cfg, out / "benchmark.json")
    for pol in res.policies:
        # one utilization per resource type, in the scenario's order
        util = "/".join(f"{res.stats[pol][f'util_{r}_pct'][0]:.1f}" for r in cfg.resources)
        line = (
            f"{pol:12s} util={util}% "
            f"completion={res.stats[pol]['routine_completion_pct'][0]:.1f}% "
            f"miss={res.stats[pol]['relay_miss_pct'][0]:.2f}% "
            f"utility={res.stats[pol]['defender_utility'][0]:.3f}"
        )
        if pol in res.normalized_utility:
            line += f" (norm {res.normalized_utility[pol]:.2f})"
        print(line)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    seeds = _parse_seeds(args.seeds)
    values = [yaml.safe_load(v) for v in args.values.split(",") if v]
    policies = args.policies.split(",")
    rows = sweep(cfg, args.param, values, seeds, policies)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cols = ["param", "value", "policy", "attacker_realized_mean", "attacker_realized_std",
            "attacker_believed_mean", "defender_utility_mean"]
    if args.format == "csv":
        write_csv(rows, cols, out / f"sweep_{args.param}.csv")
    write_json({"rows": rows}, cfg, out / f"sweep_{args.param}.json")
    for r in rows:
        print(f"{r['param']}={r['value']!s:<6} {r['policy']:12s} "
              f"attacker={r['attacker_realized_mean']: .4f}")
    return 0


def _cmd_persuasion_solve(args) -> int:
    with open(args.game) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"bad game description: top level must be a mapping, got {raw!r}")
    payoff = _cast("attack_payoff", "tuple[float, ...]", _take(raw, "attack_payoff", required=True))
    prior = _cast("prior", "tuple[float, ...]", _take(raw, "prior", required=True))
    budget = _cast("credibility", "float", _take(raw, "credibility", 0.2))
    if raw:
        raise ConfigError(f"unknown keys in the game file: {sorted(map(str, raw))}")
    if args.sweep and args.sweep_points < 1:
        raise ConfigError(f"--sweep-points must be >= 1, got {args.sweep_points}")
    n = len(prior)
    game = PersuasionGame(
        attack_payoff=payoff,
        prior=prior,
        z_bins=n,
        z_rep=np.zeros(n),
        scan_flag=np.zeros(n, dtype=int),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.sweep:
        values = np.linspace(0.01, 0.5, args.sweep_points)
        rows = []
        for c in values:
            sol = solve_persuasion(game, float(c), args.subdivisions)
            rows.append({"credibility": float(c), "objective": sol.objective,
                         "realized_cost": sol.credibility})
        write_csv(rows, ["credibility", "objective", "realized_cost"], out / "persuasion_sweep.csv")
        print(f"wrote {out / 'persuasion_sweep.csv'} ({len(rows)} rows)")
        return 0
    sol = solve_persuasion(game, budget, args.subdivisions)
    cost = sol.credibility
    doc = {
        "schema_version": 3,
        "build_id": build_id(),
        "objective": sol.objective,
        "credibility_budget": budget,
        "credibility_cost": cost,
        "budget_slack": budget - cost,
        "support_size": len(sol.split.weights),
        "lp_columns": sol.lp_columns,
        "pivots": list(sol.pivots),
        "posteriors": [list(map(float, p)) for p in sol.split.posteriors],
        "weights": list(map(float, sol.split.weights)),
        "policy": [list(map(float, row)) for row in sol.policy],
    }
    with open(out / "persuasion_solution.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"objective={sol.objective:.6f} cost={cost:.6f} support={doc['support_size']} "
          f"lp_columns={sol.lp_columns} pivots={sol.pivots[0]}+{sol.pivots[1]}")
    return 0


def _cmd_channel_validate(args) -> int:
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    if not args.r_max > 0:
        raise ConfigError(f"--r-max must be > 0, got {args.r_max}")
    params = ChannelParams(b0=args.b0, m=args.m, omega=args.omega,
                           snr_threshold_db=args.threshold_db)
    r = np.linspace(0.0, args.r_max, args.points)
    pdf = shadowed_rician_pdf(r, params)
    # running trapezoid integrals of the pdf and of r^2 pdf, summed in grid
    # order; quadrature in tests
    f = np.stack([pdf, r * r * pdf])
    running = np.cumsum(0.5 * (f[:, 1:] + f[:, :-1]) * np.diff(r), axis=1)
    cdf = np.minimum(np.concatenate(([0.0], running[0])), 1.0)
    rows = [{"r": x, "pdf": y, "cdf": c} for x, y, c in zip(r.tolist(), pdf.tolist(), cdf.tolist())]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(rows, ["r", "pdf", "cdf"], out / "envelope_distribution.csv")
    total, second = running[:, -1].tolist()
    print(f"integral[0,{args.r_max}]={total:.6f} E[r^2]~{second:.4f} "
          f"(model second moment {params.mean_envelope_power:.4f})")
    print(f"wrote {out / 'envelope_distribution.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="satdefsim", description=__doc__)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="scenario YAML (default: built-in)")
    common.add_argument("--out", type=str, default="out", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", parents=[common], help="run one episode with full traces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", parents=[common], help="policy comparison over seeds")
    p.add_argument("--seeds", type=str, default="0..19", help="N..M or comma list")
    p.add_argument("--policies", type=str, default="fcfs,sp,star")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("sweep", parents=[common], help="policy comparison at each value of one scenario key")
    p.add_argument("--param", required=True,
                   help="dotted scenario key, such as persuasion.credibility or tasks.0.arrival.rate")
    p.add_argument("--values", type=str, default="0.01,0.1,0.2,0.5", help="comma list of YAML scalars")
    p.add_argument("--seeds", type=str, default="0..19")
    p.add_argument("--policies", type=str, default="star,star-static,stardis")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("persuasion-solve", parents=[common], help="solve a signal-design game")
    p.add_argument("--game", type=str, required=True, help="YAML with attack_payoff, prior, credibility")
    p.add_argument("--subdivisions", type=int, default=None)
    p.add_argument("--sweep", action="store_true", help="sweep credibility over [0.01, 0.5]")
    p.add_argument("--sweep-points", type=int, default=13)
    p.set_defaults(func=_cmd_persuasion_solve)

    p = sub.add_parser("channel-validate", parents=[common], help="emit fading PDF/CDF tables")
    p.add_argument("--b0", type=float, default=0.158)
    p.add_argument("--m", type=float, default=19.4)
    p.add_argument("--omega", type=float, default=1.29)
    p.add_argument("--threshold-db", type=float, default=5.0)
    p.add_argument("--r-max", type=float, default=4.0)
    p.add_argument("--points", type=int, default=801)
    p.set_defaults(func=_cmd_channel_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
