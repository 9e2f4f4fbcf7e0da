"""Credibility-constrained signaling: state quantization, policies and
posterior splits, the constrained persuasion solve as a finite LP,
channel-adaptive budget allocation, artificial delay selection, and
belief-drift instrumentation.

The sender minimizes the receiver's best-response value
``V(mu) = max(payoff @ mu, 0)`` over Bayes-plausible distributions of
posteriors subject to an expected self-information budget:
E[-log mu_m(omega)] = E[H(mu_m)] <= C.  Both terms are sums over the
posteriors of a function of one posterior (Kamenica & Gentzkow 2011), so
over a finite set of candidate posteriors the problem is a linear program
with one weight per candidate.

A small candidate set is exact (Caplin, Dean & Leahy 2022).  With duals
``y`` of the mean rows and ``lam <= 0`` of the budget row, a posterior
``mu`` prices at ``V(mu) - y @ mu - lam * H(mu)``.  ``V`` is linear on
each of its two pieces, ``payoff @ mu >= 0`` and ``<= 0``, and ``H`` is
concave, so the price is concave on each piece and smallest at a vertex
of a piece: a simplex vertex, or a point where ``payoff @ mu = 0`` crosses
the edge between a state of positive and one of negative payoff.  When
none of these prices below zero, no posterior does, so the LP over them
attains the optimum over every split.  The LPs are small and solved by a
built-in dense simplex (numpy only).
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

_EPS = 1e-12

# Simplex: reduced costs and step lengths within _SIMPLEX_TOL of 0 count as
# 0, direction entries at or below _PIVOT_TOL cannot leave the basis, and a
# solve gives up after _MAX_PIVOTS_PER_COLUMN pivots per column.  Stage 2
# keeps the splits within _VALUE_SLACK of the optimal value.
_SIMPLEX_TOL = 1e-12
_PIVOT_TOL = 1e-9
_MAX_PIVOTS_PER_COLUMN = 50
_VALUE_SLACK = 1e-12


class InfeasibleSplitError(RuntimeError):
    """A split LP could not be solved."""


@dataclass(frozen=True)
class PersuasionGame:
    """Finite persuasion game over quantized (scan-status, load-level) states.

    ``attack_payoff[i]`` is the receiver's payoff for attacking in state
    i; waiting pays zero everywhere.  States are ordered scan-major:
    the first ``z_bins`` states are scan-off, the rest scan-on.
    """

    attack_payoff: np.ndarray
    prior: np.ndarray
    z_bins: int
    z_rep: np.ndarray  # representative idle-capacity level per state
    scan_flag: np.ndarray  # {0,1} per state
    n_signals: int = 0  # 0 -> support-sized policies

    def __post_init__(self):
        object.__setattr__(self, "attack_payoff", np.asarray(self.attack_payoff, dtype=float))
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        object.__setattr__(self, "z_rep", np.asarray(self.z_rep, dtype=float))
        object.__setattr__(self, "scan_flag", np.asarray(self.scan_flag, dtype=int))
        prior = self.prior
        if (
            prior.ndim != 1 or not np.all(np.isfinite(prior))
            or not (abs(prior.sum() - 1.0) <= 1e-9) or not np.all(prior >= -_EPS)  # NaN-safe
        ):
            raise ValueError(f"prior must be a finite distribution, got {prior}")
        for name in ("attack_payoff", "z_rep", "scan_flag"):
            value = getattr(self, name)
            if value.shape != self.prior.shape:
                raise ValueError(f"{name} must have one entry per state of the prior ({self.n_states}), got {value}")
        if not np.all(np.isfinite(self.attack_payoff)):
            raise ValueError(f"attack_payoff must be finite, got {self.attack_payoff}")
        # an optimal split may use n_states + 1 posteriors, one signal each
        if self.n_signals < 0 or 0 < self.n_signals < self.n_states + 1:
            raise ValueError(
                f"n_signals must be 0 (one per support posterior) or at least "
                f"n_states + 1 = {self.n_states + 1}, got {self.n_signals}"
            )

    @property
    def n_states(self) -> int:
        return len(self.prior)

    def p_scan(self, belief: np.ndarray) -> float:
        return float(np.sum(np.asarray(belief)[self.scan_flag == 1]))


def quantize_capacity(z_avg: float, z_bins: int) -> int:
    """Bin index of an idle-capacity level; boundaries go to the upper bin."""
    if not (0.0 <= z_avg <= 1.0 + 1e-9):
        raise ValueError("idle capacity must lie in [0,1]")
    idx = int(np.floor(z_avg * z_bins + 1e-12))
    return min(idx, z_bins - 1)


def quantize_state(scan_on: bool, z_avg: float, z_bins: int = 2) -> int:
    """Map a window's (scan status, average idle capacity) to a state index."""
    return (z_bins if scan_on else 0) + quantize_capacity(z_avg, z_bins)


def build_scan_game(
    reward_weight: float,
    base_cost: float,
    prior_scan: float,
    z_bins: int = 2,
    n_signals: int | None = None,
) -> PersuasionGame:
    """Payoffs bridged from the scheduling layer.

    Attacking a scan-off state pays reward_weight * (1 - z_rep) minus the
    base cost, with z_rep the bin midpoint; attacking while a scan runs
    fails outright and pays only the cost.  The prior is uniform over the
    load bins within each scan status.
    """
    prior_z = np.full(z_bins, 1.0 / z_bins)
    mids = (np.arange(z_bins) + 0.5) / z_bins
    z_rep = np.concatenate([mids, mids])
    scan_flag = np.concatenate([np.zeros(z_bins, dtype=int), np.ones(z_bins, dtype=int)])
    payoff = np.where(
        scan_flag == 0,
        reward_weight * (1.0 - z_rep) - base_cost,
        -base_cost,
    )
    prior = np.concatenate([(1.0 - prior_scan) * prior_z, prior_scan * prior_z])
    n_sig = (2 * z_bins + 2) if n_signals is None else n_signals
    return PersuasionGame(
        attack_payoff=payoff,
        prior=prior,
        z_bins=z_bins,
        z_rep=z_rep,
        scan_flag=scan_flag,
        n_signals=n_sig,
    )


def attacker_value(belief, game: PersuasionGame) -> float:
    """Receiver's best-response value: max(attack payoff, 0) in expectation."""
    mu = np.asarray(belief, dtype=float)
    return float(max(float(mu @ game.attack_payoff), 0.0))


def entropy(dist) -> float:
    """Shannon entropy in nats; 0 log 0 = 0."""
    p = np.asarray(dist, dtype=float)
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


@dataclass
class PosteriorSplit:
    """Bayes-plausible distribution over posteriors."""

    posteriors: np.ndarray  # (k, n_states)
    weights: np.ndarray  # (k,)

    def mean(self) -> np.ndarray:
        return self.weights @ self.posteriors

    def check_plausible(self, prior, tol: float = 1e-9) -> None:
        gap = np.max(np.abs(self.mean() - np.asarray(prior)))
        if gap > tol:
            raise ValueError(f"split is not Bayes-plausible: deviation {gap:.2e}")

    def expected_entropy(self) -> float:
        return float(sum(w * entropy(mu) for w, mu in zip(self.weights, self.posteriors)))


def policy_from_split(split: PosteriorSplit, prior, n_signals: int = 0) -> np.ndarray:
    """Recover the row-stochastic signaling matrix, one signal per
    support posterior; states with zero prior mass get a uniform row."""
    prior = np.asarray(prior, dtype=float)
    k = len(split.weights)
    cols = max(k, n_signals)
    pol = np.zeros((len(prior), cols))
    for i, (w, mu) in enumerate(zip(split.weights, split.posteriors)):
        pol[:, i] = w * mu
    with np.errstate(divide="ignore", invalid="ignore"):
        pol = pol / prior[:, None]
    zero = prior <= _EPS
    pol[zero] = 1.0 / cols
    # guard rounding: renormalize rows
    pol = pol / pol.sum(axis=1, keepdims=True)
    return pol


def credibility_cost(policy, prior) -> float:
    """Expected self-information of the true state under the induced
    posterior, E[-log mu_m(omega)]; equals the conditional entropy of the
    state given the signal.  Zero-probability signals contribute nothing.
    """
    pol = np.asarray(policy, dtype=float)
    prior = np.asarray(prior, dtype=float)
    joint = prior[:, None] * pol
    q = joint.sum(axis=0)
    cost = 0.0
    for m in range(pol.shape[1]):
        if q[m] <= _EPS:
            continue
        mu = joint[:, m] / q[m]
        nz = joint[:, m] > 0
        cost -= float(np.sum(joint[nz, m] * np.log(mu[nz])))
    return cost


def simplex_grid(n_states: int, subdivisions: int) -> np.ndarray:
    """All points of the uniform simplex grid with the given subdivisions."""
    if n_states == 1:
        return np.array([[1.0]])
    combs = np.fromiter(
        (c for tup in combinations(range(subdivisions + n_states - 1), n_states - 1) for c in tup),
        dtype=np.int64,
    ).reshape(-1, n_states - 1)
    bounds = np.hstack(
        [
            np.full((len(combs), 1), -1, dtype=np.int64),
            combs,
            np.full((len(combs), 1), subdivisions + n_states - 1, dtype=np.int64),
        ]
    )
    return (np.diff(bounds, axis=1) - 1) / subdivisions


def is_subdivision_count(value) -> bool:
    """True for an integer grid resolution >= 1 (bool excluded)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _entropies(posteriors: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row; 0 log 0 = 0."""
    return -np.sum(posteriors * np.log(np.where(posteriors > 0, posteriors, 1.0)), axis=1)


def _exact_candidates(payoff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate posteriors that make the split LP exact, and their
    values: the simplex vertices in state order, then for each state ``i``
    of positive and ``j`` of negative payoff, in ``(i, j)`` order, the point
    of their edge where ``payoff @ mu = 0``, valued exactly 0."""
    i, j = np.nonzero((payoff > 0)[:, None] & (payoff < 0)[None, :])
    edges = np.zeros((len(i), len(payoff)))
    edges[np.arange(len(i)), i] = -payoff[j] / (payoff[i] - payoff[j])
    edges[np.arange(len(i)), j] = payoff[i] / (payoff[i] - payoff[j])
    return np.vstack([np.eye(len(payoff)), edges]), np.append(np.maximum(payoff, 0.0), np.zeros(len(i)))


@lru_cache(maxsize=8)
def _grid_tables(n_states: int, subdivisions: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of one simplex grid, shared by every solve on it:
    the points, their entropies, the vertices' indices in state order, and
    the points' tie-break ranks."""
    grid = simplex_grid(n_states, subdivisions)
    rows, states = np.nonzero(grid == 1.0)
    tables = (grid, _entropies(grid), rows[np.argsort(states)], _ranks(grid))
    for table in tables:
        table.flags.writeable = False
    return tables


def _solve_master(cost, posteriors, row, prior, bound, basis, ranks=None):
    """Minimize ``cost @ w`` over ``w >= 0`` with ``posteriors.T @ w ==
    prior`` and ``row @ w <= bound``, by a dense revised primal simplex.
    The inequality's slack is column ``k``, after the ``k`` posterior
    columns.  ``basis`` holds ``n_states + 1`` column indices of a primal
    feasible basis and is updated in place to an optimal one.

    Entering column: the most negative reduced cost (Dantzig), lowest index
    on ties; leaving row: the minimum ratio, lowest basic column index on
    ties.  After ``n_states + 1`` consecutive degenerate pivots both follow
    Bland's rule (the lowest eligible index) until a pivot moves the
    solution, so the simplex cannot cycle.  Given ``ranks``, pivots then go
    on to the lexicographically largest optimum (``_lexicographic_column``).

    Returns ``(w, fun, y, lam, pivots)``: ``y`` and ``lam <= 0`` are the duals
    of the mean rows and the inequality, signed like HiGHS's marginals.
    """
    m = len(prior) + 1
    k = len(cost)
    a = np.zeros((m, k + 1))
    a[:-1, :k] = posteriors.T
    a[-1, :k] = row
    a[-1, k] = 1.0
    c = np.append(cost, 0.0)
    rhs = np.append(prior, bound)
    degenerate = 0
    for pivots in range(_MAX_PIVOTS_PER_COLUMN * (k + 1)):
        binv = np.linalg.inv(a[:, basis])
        xb = binv @ rhs
        pi = c[basis] @ binv
        reduced = c - pi @ a
        if degenerate < m:
            q = int(np.argmin(reduced))
            if reduced[q] >= -_SIMPLEX_TOL:
                q = -1
        else:
            eligible = np.flatnonzero(reduced < -_SIMPLEX_TOL)
            q = int(eligible[0]) if len(eligible) else -1
        if q < 0 and ranks is not None:
            q = _lexicographic_column(binv, a, reduced, basis, ranks)
        if q < 0:
            break
        u = binv @ a[:, q]
        rows = np.flatnonzero(u > _PIVOT_TOL)
        if len(rows) == 0:
            raise InfeasibleSplitError(f"split LP unbounded along column {q}")
        ratios = np.maximum(xb[rows], 0.0) / u[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + _SIMPLEX_TOL]
        basis[ties[np.argmin(basis[ties])]] = q
        degenerate = degenerate + 1 if theta <= _SIMPLEX_TOL else 0
    else:
        raise InfeasibleSplitError(f"split LP not solved in {_MAX_PIVOTS_PER_COLUMN * (k + 1)} pivots")
    w = np.zeros(k + 1)
    w[basis] = xb
    return w[:k], float(c[basis] @ xb), pi[:-1], float(pi[-1]), pivots


def _lexicographic_column(binv, a, reduced, basis, ranks) -> int:
    """The lowest-index column that enters an optimum at no cost and makes
    the weights lexicographically larger in rank order, or -1.  Column ``j``
    raises ``w_j`` and moves basic weight ``b`` by ``-u[b]``, ``u = binv @
    a[:, j]``; the lowest ranked change decides (the slack is unranked).
    This is Bland's rule for the cost minus ``sum_r eps**(r + 1) *
    w_(rank r)``, so it cannot cycle."""
    free = np.abs(reduced) <= _SIMPLEX_TOL
    free[basis] = False
    ranked = np.append(ranks, np.inf)
    for j in np.flatnonzero(free):
        u = binv @ a[:, j]
        moved = np.where(np.abs(u) > _PIVOT_TOL, ranked[basis], np.inf)
        b = int(np.argmin(moved))
        if ranked[j] < moved[b] or (moved[b] < np.inf and u[b] < 0):
            return int(j)
    return -1


def _stage_two_start(values, posteriors, ent, basis, w) -> None:
    """Turn stage 1's optimal ``basis`` (weights ``w``) into a feasible start
    for stage 2 in place, its slack now that of the value row.

    A basic budget slack keeps stage 1's split: a feasible start.  Else the
    ``n + 1`` basic posteriors alone may give a singular start (when all lie
    on one linear piece of ``V``), so a crossover phase 1 moves stage 1's
    split along the null direction ``d`` of their mean rows, the way that
    does not raise the value (or, where the value stays, lowers the
    entropy), until a weight vanishes.  The mean rows have rank ``n`` and
    ``sum(d) = 0``, so some weight falls, and the column that leaves has
    ``d != 0``: the other posteriors and the value slack form a feasible,
    nonsingular basis.
    """
    k = len(values)
    if k in basis:
        return
    d = np.linalg.svd(posteriors[basis].T)[2][-1]
    slope = values[basis] @ d
    if abs(slope) <= _SIMPLEX_TOL:
        slope = ent[basis] @ d
    if slope > 0:
        d = -d
    down = np.flatnonzero(d < -_PIVOT_TOL)
    basis[down[np.argmin(np.maximum(w[basis[down]], 0.0) / -d[down])]] = k


def _ranks(posteriors: np.ndarray) -> np.ndarray:
    """Each posterior's rank in decreasing lexicographic order."""
    return np.argsort(np.lexsort(posteriors.T[::-1])[::-1])


def _split_lp(values, posteriors, ent, prior, budget, vertices, ranks):
    """Both stages of the split LP over the given candidates, with
    ``vertices`` the index of each simplex vertex in state order and
    ``ranks`` the candidates' tie-break ranks (``_ranks``).  Returns the
    weights, stage 1's optimum and each stage's pivots."""
    basis = np.append(vertices, len(values))  # the fully revealing split
    w, objective, _, _, first = _solve_master(values, posteriors, ent, prior, budget, basis)
    level = objective + _VALUE_SLACK
    _stage_two_start(values, posteriors, ent, basis, w)
    w, _, _, _, second = _solve_master(ent, posteriors, values, prior, level, basis, ranks)
    return w, objective, (first, second)


@dataclass
class PersuasionSolution:
    split: PosteriorSplit
    policy: np.ndarray
    objective: float
    credibility: float
    lp_columns: int  # candidate posteriors, one LP column each
    pivots: tuple[int, int]  # simplex pivots of stage 1 and of stage 2 with its tie-break


def solve_persuasion(
    game: PersuasionGame,
    budget: float,
    subdivisions: int | None = None,
) -> PersuasionSolution:
    """Minimize the receiver's expected best-response value over
    Bayes-plausible posterior splits with E[H(posterior)] <= budget.

    The candidates are, for ``subdivisions=None``, the exact set of the
    module docstring (``_exact_candidates``).  An int is the grid oracle:
    the points of ``simplex_grid(n_states, subdivisions)``, whose tables are
    built once and shared, and whose optimum is never below the exact one.
    The LP has a weight per candidate, a mean row per state and one
    inequality, and is solved in two stages by ``_solve_master``:

    1. Minimize the value within the budget, from the fully revealing basis
       (the vertices at the prior, the budget slack at the whole budget),
       feasible at every budget >= 0.  This optimum is ``objective``.
    2. Minimize the expected entropy, the credibility spent, over the splits
       of value at most stage 1's optimum + ``_VALUE_SLACK``, from stage 1's
       basis (``_stage_two_start``).  A tie left goes to the split whose
       weights, over the candidates in decreasing lexicographic order of
       their posteriors, are lexicographically largest, so the split
       depends on the candidate set, not on its order.

    The split and policy (a signal per support posterior) are stage 2's.
    """
    if not 0.0 <= budget < math.inf:  # NaN fails too
        raise ValueError("credibility budget must be finite and >= 0")
    n = game.n_states
    if subdivisions is None:
        posteriors, values = _exact_candidates(game.attack_payoff)
        ent, vertices, ranks = _entropies(posteriors), np.arange(n), _ranks(posteriors)
    elif not is_subdivision_count(subdivisions):
        raise ValueError(f"subdivisions must be None or an int >= 1, got {subdivisions!r}")
    else:
        posteriors, ent, vertices, ranks = _grid_tables(n, int(subdivisions))
        values = np.maximum(posteriors @ game.attack_payoff, 0.0)
    w, objective, pivots = _split_lp(values, posteriors, ent, game.prior, budget, vertices, ranks)
    support = w > 1e-10
    split = PosteriorSplit(posteriors=posteriors[support], weights=w[support] / w[support].sum())
    policy = policy_from_split(split, game.prior, game.n_signals)
    return PersuasionSolution(split, policy, objective, credibility_cost(policy, game.prior), len(values), pivots)


def min_attacker_value(game: PersuasionGame) -> float:
    """Global minimum of the best-response value over the belief simplex.

    ``max(payoff @ mu, 0)`` is convex in ``mu``, and ``payoff @ mu`` is
    smallest at a vertex, so the minimum is ``max(min(payoff), 0)``.
    """
    return max(float(np.min(game.attack_payoff)), 0.0)


def lyapunov_drift(belief, policy, game: PersuasionGame) -> float:
    """Expected change of the receiver's value under one signaling round:
    E_[m | belief, policy] V(posterior) - V(belief)."""
    mu = np.asarray(belief, dtype=float)
    pol = np.asarray(policy, dtype=float)
    joint = mu[:, None] * pol
    q = joint.sum(axis=0)
    expected = 0.0
    for m in range(pol.shape[1]):
        if q[m] <= 0:
            continue
        expected += q[m] * attacker_value(joint[:, m] / q[m], game)
    return float(expected - attacker_value(mu, game))


# ---------------------------------------------------------------------------
# Channel-adaptive budget allocation and artificial delay
# ---------------------------------------------------------------------------

class BudgetCurve:
    """Per-slot objective as a function of the credibility budget.

    Precomputes solve_persuasion on a budget grid over [0, log n_states];
    the optimal LP value is convex and non-increasing in the budget.
    """

    def __init__(self, game: PersuasionGame, points: int = 25, subdivisions: int | None = None):
        self.game = game
        self.budgets = np.linspace(0.0, math.log(game.n_states), points)
        self.solutions = [solve_persuasion(game, b, subdivisions) for b in self.budgets]
        self.values = np.array([s.objective for s in self.solutions])
        # enforce monotonicity against solver noise at the 1e-9 level
        self.values = np.minimum.accumulate(self.values)


def allocate_on_grid(pout: np.ndarray, total: float, curve: BudgetCurve) -> np.ndarray:
    """Split a window's total credibility budget across its slots.

    Minimizes sum_t (1-pout_t) * U_rx(C_t) subject to sum C_t <= total by
    greedy marginal allocation, one curve grid step at a time (optimal
    because each slot's term is convex non-increasing in its budget).
    Returns each slot's index into the curve's grid: its budget is
    ``curve.budgets[l]`` and its policy ``curve.solutions[l].policy``.
    Ties go to the earliest slot; an erased slot (pout 1) gains nothing.
    """
    w = len(pout)
    levels = np.zeros(w, dtype=int)
    spent = 0.0
    budgets, values = curve.budgets, curve.values
    top = len(budgets) - 1
    while True:
        best_gain, best_t, best_cost = 0.0, -1, 0.0
        for t in range(w):
            l = levels[t]
            if l >= top:
                continue
            step = budgets[l + 1] - budgets[l]
            if spent + step > total + 1e-12:
                continue
            gain = (1.0 - pout[t]) * (values[l] - values[l + 1])
            if gain > best_gain + 1e-15:
                best_gain, best_t, best_cost = gain, t, step
        if best_t < 0:
            break
        levels[best_t] += 1
        spent += best_cost
    return levels


def choose_artificial_delay(
    predicted_snr_db: float,
    prop_delay_ms: float,
    max_total_ms: float,
    proc_delay_ms: float = 0.0,
    snr_lo_db: float = 0.0,
    snr_hi_db: float = 15.0,
) -> float:
    """Staleness injection: an affine ramp of the latency headroom.

    Stronger predicted channels get more added delay; the result never
    violates the total-latency bound.  Zero headroom yields zero delay.
    """
    if prop_delay_ms > max_total_ms:
        raise ValueError("propagation delay alone exceeds the latency bound")
    headroom = max_total_ms - prop_delay_ms - proc_delay_ms
    if headroom <= 0:
        warnings.warn("no latency headroom for artificial delay", stacklevel=2)
        return 0.0
    if snr_hi_db <= snr_lo_db:
        ramp = 1.0
    else:
        ramp = (predicted_snr_db - snr_lo_db) / (snr_hi_db - snr_lo_db)
    ramp = min(max(ramp, 0.0), 1.0)
    return ramp * headroom
