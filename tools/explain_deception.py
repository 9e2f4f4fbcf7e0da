"""Take criterion 8's deception ordering apart, one mechanism at a time.

Each row of ``ROWS`` is the scenario with a few dotted scenario keys
set, built by ``with_scenario_values`` and so checked as a scenario
file's values are.  The first row changes nothing; each other row
switches off one mechanism: erasures, stardis's added delay, the game's
hand-set scan prior, or the threshold interceptor.  For each row it runs
star, star-static and stardis on the same seeds and prints the mean
``attacker_realized`` / ``attacker_believed`` of each, and criterion 8's
paired one-sided sign tests: in how many seeds star-static's realized
value is below star's and stardis's below star-static's, with the
p-value of that many wins under a fair coin.

Run from the root of a checkout:

    python3 tools/explain_deception.py                     # seeds 1..20, built-in scenario
    python3 tools/explain_deception.py --config configs/default.yaml --seeds 1..5

It prints a Markdown table.  Seeds 1..20 of the built-in scenario take
under 10 s in one process.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from satdefsim.cli import _parse_seeds  # noqa: E402
from satdefsim.config import default_scenario, load_config, with_scenario_values  # noqa: E402
from satdefsim.engine import run_benchmark_suite  # noqa: E402

POLICIES = ("star", "star-static", "stardis")

#: row name -> the scenario keys it sets
ROWS = {
    "default": {},
    "no erasures": {"channel.snr_threshold_db": -200},
    "no added delay": {"persuasion.delay_snr_lo_db": 100, "persuasion.delay_snr_hi_db": 200},
    "prior_scan 0.27": {"persuasion.prior_scan": 0.27},
    "dp interceptor": {"attacker.mode": "dp"},
}


def sign_test_p(wins: int, n: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def ledger(cfg, seeds) -> list[dict]:
    """Per row: its ``name``, the mean ``realized`` and ``believed``
    attacker utility per policy, and the ``wins`` and ``p`` of the sign
    tests star-static < star and stardis < star-static."""
    seeds = list(seeds)
    out = []
    for name, changes in ROWS.items():
        res = run_benchmark_suite(with_scenario_values(cfg, changes), POLICIES, seeds)
        realized = [[m.attacker_realized for m in res.episodes[pol]] for pol in POLICIES]
        wins = tuple(sum(b < a for a, b in zip(hi, lo)) for hi, lo in zip(realized, realized[1:]))
        out.append({
            "name": name,
            "realized": {pol: res.stats[pol]["attacker_realized"][0] for pol in POLICIES},
            "believed": {pol: res.stats[pol]["attacker_believed"][0] for pol in POLICIES},
            "wins": wins,
            "p": tuple(sign_test_p(w, len(seeds)) for w in wins),
        })
    return out


def format_ledger(entries, n_seeds: int) -> str:
    """The ledger as a Markdown table: realized / believed per policy,
    then each sign test's wins and p-value."""
    lines = [
        "| row | star | star-static | stardis | star-static < star | stardis < star-static |",
        "|---|---|---|---|---|---|",
    ]
    for e in entries:
        means = [f"{e['realized'][pol]:.3f} / {e['believed'][pol]:.3f}" for pol in POLICIES]
        tests = [f"{w}/{n_seeds}, p = {p:.1e}" for w, p in zip(e["wins"], e["p"])]
        lines.append("| " + " | ".join([e["name"], *means, *tests]) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", type=str, default=None, help="scenario YAML (default: built-in)")
    ap.add_argument("--seeds", type=str, default="1..20", help="N..M or comma list")
    args = ap.parse_args(argv)
    cfg = load_config(args.config) if args.config else default_scenario()
    seeds = _parse_seeds(args.seeds)
    print(format_ledger(ledger(cfg, seeds), len(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
