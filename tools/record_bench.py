"""Record the benchmark of one commit as ``BENCH_<short-sha>.json``.

Run from the root of a checkout (a clone with its ``.git``):

    python3 tools/record_bench.py              # 5 seeds per workload
    python3 tools/record_bench.py --seeds 3

For each workload in ``BENCHMARK.json`` and each seed 1..N it runs the
file's ``command`` with ``--workload W --seed S --seconds T --trace 0``
and reads the ``info`` line and the final JSON line of its output.  ``T``
is always the file's ``run_seconds``, so that every record of the
history is comparable.  The file it writes holds, per workload, the
median and interquartile range of every end-to-end metric over the
seeds, and each seed's digest, ``host_slowdown``, correctness and
operation counts; plus the commit, the versions and ``nproc`` of the
first run.  It stops at the first run that exits non-zero and prints
that run's workload, seed, exit code and the end of its stderr.  A run
takes about 5.5 min for 2 workloads x 5 seeds.  A series of these
files, one per performance or result-changing commit, is the project's
performance history.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

STDERR_TAIL_LINES = 20  # of a failed run, printed before exiting


def parse_output(text: str) -> tuple[dict, dict]:
    """The ``info`` object and the final JSON object of one benchmark run."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    info = next((json.loads(line[5:]) for line in reversed(lines) if line.startswith("info ")), None)
    if info is None:
        raise ValueError("benchmark printed no info line")
    return info, json.loads(lines[-1])


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (inclusive quartiles) of the values."""
    if len(values) < 2:
        return float(values[0]), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def aggregate(runs: list[tuple[dict, dict]]) -> dict:
    """One workload's record from its runs, each an ``(info, result)`` pair."""
    names = runs[0][1]["metrics"].keys()
    metrics = {}
    for name in names:
        median, iqr = median_iqr([result["metrics"][name]["value"] for _, result in runs])
        metrics[name] = {"median": median, "iqr": iqr, "unit": runs[0][1]["metrics"][name]["unit"]}
    return {
        "metrics": metrics,
        "runs": [
            {
                "seed": info["seed"],
                "digest": info["digest"],
                "host_slowdown": info["host_slowdown"],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
            }
            for info, result in runs
        ],
    }


def record(commit: str, workloads: dict[str, list[tuple[dict, dict]]]) -> dict:
    first_info = next(iter(workloads.values()))[0][0]
    return {
        "commit": commit,
        "seconds": first_info["seconds"],
        "versions": first_info["versions"],
        "nproc": first_info["nproc"],
        "workloads": {name: aggregate(runs) for name, runs in workloads.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to measure (default: .)")
    ap.add_argument("--seeds", type=int, default=5, help="seeds 1..N per workload")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "--short=7", "HEAD"], cwd=root, check=True,
                            capture_output=True, text=True).stdout.strip()
    workloads = {}
    for wl in bench["workloads"]:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", wl["name"], "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if run.returncode != 0:
                tail = "\n".join(run.stderr.splitlines()[-STDERR_TAIL_LINES:])
                print(f"{wl['name']} seed {seed}: exit code {run.returncode}; the end of its stderr:\n{tail}",
                      file=sys.stderr)
                return 1
            info, result = parse_output(run.stdout)
            print(f"{wl['name']} seed {seed}: correct={result['correct']} digest={info['digest'][:8]}",
                  file=sys.stderr)
            runs.append((info, result))
        workloads[wl["name"]] = runs
    path = root / f"BENCH_{commit}.json"
    path.write_text(json.dumps(record(commit, workloads), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
