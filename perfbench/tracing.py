"""In-memory span tracing of satdefsim's public calls, installed from outside.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none).  Wrappers are attached where the caller looks
a name up (for example ``engine.plan_horizon``, since ``engine`` imported
it by name) and are removed again by :meth:`Tracer.uninstall`; a run
without tracing never installs them.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

#: (span name, owner, attribute) patch points.  Owners are dotted paths
#: into satdefsim: a module, or a class whose method is replaced.
PATCH_POINTS = [
    ("workload.generate_arrivals", "engine", "generate_arrivals"),
    ("workload.admit", "engine", "admit"),
    ("channel.sample_envelope", "engine", "sample_envelope"),
    ("channel.OutageTable", "channel.OutageTable", "__init__"),
    ("channel.OutageTable.lookup", "channel.OutageTable", "__call__"),
    ("channel.PassGeometry.mean_snr_db", "channel.PassGeometry", "mean_snr_db"),
    ("scheduler.plan_horizon", "engine", "plan_horizon"),
    ("scheduler.schedule_slot", "scheduler.GreedyPlanner", "schedule_slot"),
    ("persuasion.solve_persuasion", "persuasion", "solve_persuasion"),
    ("persuasion.solve_persuasion", "engine", "solve_persuasion"),
    ("persuasion.BudgetCurve", "persuasion.BudgetCurve", "__init__"),
    ("persuasion.simplex_grid", "persuasion", "simplex_grid"),
    ("persuasion.choose_artificial_delay", "engine", "choose_artificial_delay"),
    ("persuasion.lyapunov_drift", "engine", "lyapunov_drift"),
    ("engine.allocate_on_grid", "engine", "allocate_on_grid"),
    ("engine.EpisodeRunner.init", "engine.EpisodeRunner", "__init__"),
    ("engine.run_episode", "engine", "run_episode"),
    ("attacker.best_response", "engine", "best_response"),
    ("attacker.belief_update", "engine", "belief_update"),
    ("attacker.threshold_decision", "engine", "threshold_decision"),
    ("config.load_config", "config", "load_config"),
]

#: Span names as reported; ``schedule_slot`` is split by its caller.
SPAN_NAMES = sorted(
    {name for name, _, _ in PATCH_POINTS if name != "scheduler.schedule_slot"}
    | {"scheduler.schedule_slot.plan", "scheduler.schedule_slot.exec"}
)

#: Counters filled by the wrappers from call arguments and results.
COUNTER_NAMES = [
    "workload.instances",
    "scheduler.queue_len.sum",
    "scheduler.events.deferred",
    "scheduler.events.infeasible",
    "persuasion.lp_columns",
    "persuasion.support_size.sum",
]


def resolve(dotted: str):
    """The satdefsim module or class a patch point names."""
    module, _, cls = dotted.partition(".")
    obj = importlib.import_module(f"satdefsim.{module}")
    return getattr(obj, cls) if cls else obj


def installed_wrappers() -> list[str]:
    """Patch points that currently hold a tracing wrapper."""
    return [
        f"{owner}.{attr}" for _, owner, attr in PATCH_POINTS
        if hasattr(resolve(owner).__dict__[attr], "__wrapped__")
    ]


class Tracer:
    """Records spans and counters while installed; ``recording`` pauses it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {name: 0 for name in COUNTER_NAMES}
        self.recording = True
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner_path, attr in PATCH_POINTS:
            owner = resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        after = _AFTER.get(name)
        split_by_parent = name == "scheduler.schedule_slot"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            label = name
            if split_by_parent:
                caller = spans[parent][0] if parent >= 0 else ""
                label = name + (".plan" if caller == "scheduler.plan_horizon" else ".exec")
            span = [label, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, spans, parent, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Compact form for writing the spans out."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name_id": np.array([index[s[0]] for s in self.spans], dtype=np.int16),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
        }


def _count_instances(counters, spans, parent, args, kwargs, out):
    counters["workload.instances"] += len(out)


def _count_slot(counters, spans, parent, args, kwargs, out):
    queue = args[1] if len(args) > 1 else kwargs["queue"]
    counters["scheduler.queue_len.sum"] += len(queue)
    for _, kind, _ in out.events:
        if kind == "deferred-high-priority":
            counters["scheduler.events.deferred"] += 1
        elif kind == "infeasible-slot":
            counters["scheduler.events.infeasible"] += 1


def _count_grid(counters, spans, parent, args, kwargs, out):
    # solve_persuasion hands one LP column per grid point to linprog
    if parent >= 0 and spans[parent][0] == "persuasion.solve_persuasion":
        counters["persuasion.lp_columns"] += len(out)


def _count_support(counters, spans, parent, args, kwargs, out):
    counters["persuasion.support_size.sum"] += len(out.split.weights)


_AFTER = {
    "workload.generate_arrivals": _count_instances,
    "scheduler.schedule_slot": _count_slot,
    "persuasion.simplex_grid": _count_grid,
    "persuasion.solve_persuasion": _count_support,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed duration.

    A span nested in a span of the same name does not add to ``total_s``
    again, so ``total_s`` is wall time spent inside that name.
    """
    selfs = self_times(spans)
    agg = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
    for i, s in enumerate(spans):
        row = agg.setdefault(s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += s[2] - s[1]
    return agg


def episode_accounting(spans) -> tuple[float, float]:
    """(summed ``engine.run_episode`` durations, summed self time of those
    spans and every span below them); the two agree when self times are
    consistent."""
    selfs = self_times(spans)
    root_of: list[int] = []
    total = 0.0
    accounted = 0.0
    for i, s in enumerate(spans):
        p = s[3]
        root = i if s[0] == "engine.run_episode" else (root_of[p] if p >= 0 else -1)
        root_of.append(root)
        if root >= 0:
            accounted += selfs[i]
            if root == i:
                total += s[2] - s[1]
    return total, accounted
