"""satdefsim benchmark: end-to-end and per-layer timings of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

The run starts ``CHILDREN`` fresh interpreters one after another.  Each
builds the program's cold state (the set-up time), warms up each policy
untimed and then runs ``seconds / CHILDREN`` seconds of checked static
LP solves and episodes.  Every timing is corrected to full host speed
by a reference kernel timed next to it (``hostspeed.py``).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` runs the same work with
spans around each public call and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_S, corrected

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("suite-default", "congested-dp")
POLICIES = ("fcfs", "sp", "star", "star-static", "stardis")
CHILDREN = 3  # fresh interpreters per run; set-up time is their median
DEADLINE_S = 170.0  # whole run, including set-up in every child
RSS_POLL_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: per-layer spans whose time stays zero on some workload; only their
#: call counts are reported, their time shows in ``layer.attacker.self_s``
COUNT_ONLY = ("attacker.best_response", "attacker.threshold_decision")
MODULES = ("workload", "channel", "scheduler", "persuasion", "attacker", "engine", "config")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


def run_child(cmd: list[str], env: dict, root: Path, deadline: float) -> tuple[dict, int]:
    """Run one child to completion; returns its report and peak tree RSS."""
    peak = 0
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchError("run exceeded its deadline")
                peak = max(peak, tree_rss_kb(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            out = proc.stdout.read()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed no report")
    return json.loads(lines[-1]), peak


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reports: list[dict], peak_kb: int) -> dict[str, tuple[float, str]]:
    """Every timing is corrected to full host speed (``hostspeed``): an
    operation by the reference timed right before and after it, a
    child's set-up, which is too long for that, by the median reference
    of the child."""
    ops = [(kind, corrected(dt, ref)) for r in reports for kind, dt, ref in r["runs"]]
    setups = [corrected(r["setup_s"], statistics.median([r["setup_ref_s"]] + [ref for *_, ref in r["runs"]]))
              for r in reports]
    m = {"setup_s": (statistics.median(setups), "s")}
    for pol in POLICIES:
        pol_times = [t for p, t in ops if p == pol]
        if not pol_times:
            raise BenchError(f"no successful {pol} episode")
        m[f"episode_s.{pol}"] = (statistics.median(pol_times), "s")
    # a round of the five policies at their median episode times
    round_s = sum(m[f"episode_s.{pol}"][0] for pol in POLICIES)
    m["slots_per_s"] = (reports[0]["horizon"] * len(POLICIES) / round_s, "1/s")
    solves = [t for kind, t in ops if kind == "lp"]
    if not solves:
        raise BenchError("no successful static solve")
    m["solve_s"] = (statistics.median(solves), "s")
    m["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return m


def per_layer(reports: list[dict]) -> tuple[dict[str, tuple[float, str]], dict]:
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for r in reports:
        for name, row in r["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k, v in row.items():
                acc[k] += v
        for name, v in r["counters"].items():
            counters[name] = counters.get(name, 0) + v
    m: dict[str, tuple[float, str]] = {}
    for name, row in sorted(layers.items()):
        m[f"{name}.calls"] = (row["calls"], "count")
        if name not in COUNT_ONLY:
            m[f"{name}.self_s"] = (row["self_s"], "s")
            m[f"{name}.total_s"] = (row["total_s"], "s")
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = (
            sum(row["self_s"] for name, row in layers.items() if name.startswith(mod + ".")), "s"
        )
    m["engine.self_s"] = (layers["engine.run_episode"]["self_s"], "s")
    slot_calls = layers["scheduler.schedule_slot.plan"]["calls"] + layers["scheduler.schedule_slot.exec"]["calls"]
    m["scheduler.queue_len.mean"] = (counters["scheduler.queue_len.sum"] / max(slot_calls, 1), "count")
    m["scheduler.events.deferred"] = (counters["scheduler.events.deferred"], "count")
    m["scheduler.events.infeasible"] = (counters["scheduler.events.infeasible"], "count")
    m["workload.instances"] = (counters["workload.instances"], "count")
    m["persuasion.lp_columns"] = (counters["persuasion.lp_columns"], "count")
    solves = layers["persuasion.solve_persuasion"]["calls"]
    m["persuasion.support_size.mean"] = (counters["persuasion.support_size.sum"] / max(solves, 1), "count")
    m["trace.overhead_ratio"] = (statistics.median(r["overhead"] for r in reports), "ratio")

    episode_total = sum(r["episode_accounting"][0] for r in reports)
    accounted = sum(r["episode_accounting"][1] for r in reports)
    accounting = {
        "episode_total_s": episode_total,
        "self_times_sum_s": accounted,
        "closes": abs(episode_total - accounted) <= 1e-6 * max(episode_total, 1.0),
    }
    return m, accounting


def digest(reports: list[dict]) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(r["digest"].encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "satdefsim" / "__init__.py").is_file():
        raise BenchError(f"no satdefsim sources under {root / 'src'}; run from the root of a checkout")
    load_before = os.getloadavg()
    # byte-compile up front so that no child pays for it in its set-up time
    if not compileall.compile_dir(root / "src", quiet=2) or not compileall.compile_dir(BENCH_DIR, quiet=2):
        raise BenchError("byte-compilation failed")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(root)
    reports = []
    peak_kb = 0
    for k in range(CHILDREN):
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--child", str(k),
            "--share", repr(args.seconds / CHILDREN), "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans-out", str(out_dir / f"spans-{tag}-child{k}.npz")]
        report, peak = run_child(cmd, env, root, deadline)
        reports.append(report)
        peak_kb = max(peak_kb, peak)
    peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for msg in r["failures"]:
            print(f"FAILED {msg}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": digest(reports),
        "versions": reports[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "machine": platform.machine(),
        "wall_s": time.monotonic() - started,
        "episodes": sum(kind != "lp" for r in reports for kind, _, _ in r["runs"]),
        # how much slower than full speed the host ran, over the timed operations
        "host_slowdown": statistics.median(ref / REF_NOMINAL_S for r in reports for _, _, ref in r["runs"]),
    }
    correct = failed == 0
    if args.trace:
        metrics, accounting = per_layer(reports)
        info["episode_accounting"] = accounting
        correct = correct and accounting["closes"]
    else:
        metrics = end_to_end(reports, peak_kb)

    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"info": info, "metrics": metrics, "children": reports}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
