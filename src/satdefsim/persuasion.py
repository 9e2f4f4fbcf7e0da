"""Credibility-constrained signaling: state quantization, policies and
posterior splits, the constrained persuasion solve as a finite LP over a
belief-simplex grid, channel-adaptive budget allocation, artificial
delay selection, and belief-drift instrumentation.

The sender minimizes the receiver's best-response value over
Bayes-plausible distributions of posteriors subject to an expected
self-information budget: E[-log mu_m(omega)] = E[H(mu_m)] <= C, which is
linear in the split weights, so discretizing the simplex makes the whole
problem a linear program with one column per grid posterior.

Both the objective and the budget are posterior-separable (a sum over
posteriors of a function of that posterior; Kamenica & Gentzkow 2011),
so a column's reduced cost depends on its own posterior alone.  The LP
is therefore solved by column generation (Gilmore & Gomory 1961): a
small restricted master LP over a subset of the grid, priced against
every grid point in one vectorized expression.  A basic optimal split
uses at most ``n_states + 1`` posteriors, so the master stays small
while the optimum is that of the full grid.

The master has ``n_states + 1`` rows and at most a few hundred columns,
so it is solved by a built-in dense primal simplex (numpy only).  It
starts from the fully revealing split, which is feasible at every budget
>= 0: the simplex vertices carry the prior as weights and the budget
row's slack the whole budget, so no phase 1 is needed.  Pivots follow
Dantzig's rule and fall back to Bland's (1977) lowest-index rule after a
run of degenerate pivots, so the simplex cannot cycle.
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

#: grid subdivisions per state-space size; grids of tens of thousands of
#: posteriors, priced in full but entering the master LP only on demand
DEFAULT_SUBDIVISIONS = {1: 1, 2: 200, 3: 100, 4: 60, 5: 28, 6: 16, 7: 12, 8: 10}

# Column generation: the starting master holds the grid points on a sub-grid
# of at most this many subdivisions (the vertices always among them), and
# each pricing round adds at most this many of the most negative columns.
_COARSE_SUBDIVISIONS = 6
_PRICING_BATCH = 50
_PRICING_TOL = 1e-12

# Master simplex: reduced costs and step lengths within _SIMPLEX_TOL of 0
# count as 0, direction entries at or below _PIVOT_TOL cannot leave the
# basis, and a solve gives up after _MAX_PIVOTS_PER_COLUMN pivots per
# master column.
_SIMPLEX_TOL = 1e-12
_PIVOT_TOL = 1e-9
_MAX_PIVOTS_PER_COLUMN = 50


class InfeasibleSplitError(RuntimeError):
    """The master LP of the discretized split problem could not be solved."""


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
        if abs(self.prior.sum() - 1.0) > 1e-9 or np.any(self.prior < -_EPS):
            raise ValueError("prior must be a distribution")
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


def split_from_policy(policy, prior) -> PosteriorSplit:
    """Posterior-split view of a signaling matrix under a prior."""
    pol = np.asarray(policy, dtype=float)
    prior = np.asarray(prior, dtype=float)
    joint = prior[:, None] * pol
    q = joint.sum(axis=0)
    keep = q > _EPS
    posts = (joint[:, keep] / q[keep]).T
    return PosteriorSplit(posteriors=posts, weights=q[keep])


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


@lru_cache(maxsize=8)
def _grid_tables(
    n_states: int, subdivisions: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The game-independent tables of one simplex grid, built once and
    shared read-only by every solve on it: the points, each point's
    entropy, the mask of the coarse sub-grid the master starts from, and
    the grid index of each simplex vertex, in state order."""
    grid = simplex_grid(n_states, subdivisions)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(grid > 0, grid * np.log(np.where(grid > 0, grid, 1.0)), 0.0), axis=1)
    # coarse sub-grid: every count a multiple of the smallest divisor of
    # subdivisions that leaves at most _COARSE_SUBDIVISIONS steps per edge
    stride = next(
        d for d in range(1, subdivisions + 1)
        if subdivisions % d == 0 and subdivisions // d <= _COARSE_SUBDIVISIONS
    )
    coarse = np.all(np.rint(grid * subdivisions).astype(np.int64) % stride == 0, axis=1)
    rows, states = np.nonzero(grid == 1.0)
    vertices = rows[np.argsort(states)]
    for table in (grid, ent, coarse, vertices):
        table.flags.writeable = False
    return grid, ent, coarse, vertices


def _solve_master(cost, posteriors, ent, prior, budget, basis):
    """Minimize ``cost @ w`` over ``w >= 0`` with ``posteriors.T @ w ==
    prior`` and ``ent @ w <= budget``: the restricted master LP, by a
    dense revised primal simplex.

    The budget row gets a slack, column ``k`` after the ``k`` master
    columns.  ``basis`` holds ``n_states + 1`` column indices of a primal
    feasible basis and is updated in place to an optimal one; a round of
    column generation passes the previous round's optimum, which stays
    feasible because rounds only add columns.

    - Entering column: the most negative reduced cost (Dantzig), lowest
      index on ties.  Leaving row: the minimum ratio, lowest basic
      column index on ties.
    - After ``n_states + 1`` consecutive degenerate pivots both choices
      follow Bland's rule (the lowest eligible index) until a pivot
      moves the solution.  Bland's rule cannot cycle and every moving
      pivot lowers the objective, so the loop ends.

    Returns ``(w, fun, y, lam)`` with ``y`` the duals of the mean rows
    and ``lam <= 0`` that of the budget row, signed like HiGHS's
    marginals (the sensitivity of the optimum to each right-hand side).
    """
    m = len(prior) + 1
    k = len(cost)
    a = np.zeros((m, k + 1))
    a[:-1, :k] = posteriors.T
    a[-1, :k] = ent
    a[-1, k] = 1.0
    c = np.append(cost, 0.0)
    rhs = np.append(prior, budget)
    degenerate = 0
    for _ in range(_MAX_PIVOTS_PER_COLUMN * (k + 1)):
        binv = np.linalg.inv(a[:, basis])
        xb = binv @ rhs
        pi = c[basis] @ binv
        reduced = c - pi @ a
        if degenerate < m:
            q = int(np.argmin(reduced))
            if reduced[q] >= -_SIMPLEX_TOL:
                break
        else:
            eligible = np.flatnonzero(reduced < -_SIMPLEX_TOL)
            if len(eligible) == 0:
                break
            q = int(eligible[0])
        u = binv @ a[:, q]
        rows = np.flatnonzero(u > _PIVOT_TOL)
        if len(rows) == 0:
            raise InfeasibleSplitError(f"master LP unbounded along column {q}")
        ratios = np.maximum(xb[rows], 0.0) / u[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + _SIMPLEX_TOL]
        basis[ties[np.argmin(basis[ties])]] = q
        degenerate = degenerate + 1 if theta <= _SIMPLEX_TOL else 0
    else:
        raise InfeasibleSplitError(f"master LP not solved in {_MAX_PIVOTS_PER_COLUMN * (k + 1)} pivots")
    w = np.zeros(k + 1)
    w[basis] = xb
    return w[:k], float(c[basis] @ xb), pi[:-1], float(pi[-1])


@dataclass
class PersuasionSolution:
    split: PosteriorSplit
    policy: np.ndarray
    objective: float
    credibility: float
    lp_columns: int  # grid posteriors in the final master LP
    pricing_rounds: int  # passes over the whole grid, the last one finding none


def solve_persuasion(
    game: PersuasionGame,
    budget: float,
    subdivisions: int | None = None,
) -> PersuasionSolution:
    """Minimize the receiver's expected best-response value over
    Bayes-plausible posterior splits with E[H(posterior)] <= budget.

    The split LP has one weight per simplex grid point, one equality row
    per state (the mean constraint; the sum-to-one row is implied) and
    one budget inequality.  It is solved by column generation:

    - The restricted master is that LP over a subset of the grid, kept
      in grid-index order.  It starts from the points of a coarse
      sub-grid, which include the simplex vertices, so the fully
      revealing split makes it feasible at every budget >= 0.
    - Each master is solved by the built-in simplex of ``_solve_master``.
      The first starts from the fully revealing basis (the vertices
      weighted by the prior, the budget slack at the whole budget);
      each later one from the previous round's optimal basis.  Pivots
      follow Dantzig's rule, and Bland's after a run of degenerate
      pivots, so no solve cycles.
    - Pricing: with ``y`` the duals of the mean rows and ``lam <= 0``
      that of the budget row, grid point ``mu`` has reduced cost
      ``V(mu) - y @ mu - lam * H(mu)``, computed for the whole grid at
      once.  Up to ``_PRICING_BATCH`` of the most negative points not yet
      in the master are added (ties go to the lower grid index) and the
      master is solved again.
    - Stop when no grid point prices below ``-_PRICING_TOL``.  The
      master's duals are then feasible for the dual of the full-grid LP,
      so by LP duality the master's optimum is the full grid's.  Each
      round adds a new column, so the loop ends.

    Support, weights and the policy (one signal per support posterior)
    are read from the final master.  The grid, its entropies and the
    starting master are built once per ``(n_states, subdivisions)`` and
    shared by later solves; ``subdivisions`` must be None (the default
    grid for ``n_states``) or an int >= 1.
    """
    if budget < 0:
        raise ValueError("credibility budget must be >= 0")
    n = game.n_states
    if subdivisions is None:
        subs = DEFAULT_SUBDIVISIONS.get(n)
        if subs is None:
            raise ValueError(f"no default grid for {n} states; pass subdivisions")
    elif not is_subdivision_count(subdivisions):
        raise ValueError(f"subdivisions must be None or an int >= 1, got {subdivisions!r}")
    else:
        subs = int(subdivisions)
    grid, ent, coarse, vertices = _grid_tables(n, subs)
    values = np.maximum(grid @ game.attack_payoff, 0.0)
    in_master = coarse.copy()
    # the master's basis as grid indices, len(grid) standing for the
    # budget slack; it starts at the fully revealing split
    slack = len(grid)
    basic = np.append(vertices, slack)
    rounds = 0
    while True:
        cols = np.flatnonzero(in_master)
        labels = np.append(cols, slack)
        basis = np.searchsorted(labels, basic)
        w, fun, y, lam = _solve_master(values[cols], grid[cols], ent[cols], game.prior, budget, basis)
        basic = labels[basis]
        rounds += 1
        reduced = values - grid @ y - lam * ent
        reduced[in_master] = np.inf
        entering = np.flatnonzero(reduced < -_PRICING_TOL)
        if len(entering) == 0:
            break
        in_master[entering[np.argsort(reduced[entering], kind="stable")[:_PRICING_BATCH]]] = True
    support = w > 1e-10
    weights = w[support]
    weights = weights / weights.sum()
    split = PosteriorSplit(posteriors=grid[cols[support]], weights=weights)
    policy = policy_from_split(split, game.prior, game.n_signals)
    return PersuasionSolution(
        split=split,
        policy=policy,
        objective=fun,
        credibility=credibility_cost(policy, game.prior),
        lp_columns=len(cols),
        pricing_rounds=rounds,
    )


def min_attacker_value(game: PersuasionGame) -> float:
    """Global minimum of the best-response value over the belief simplex.

    ``max(payoff @ mu, 0)`` is convex in ``mu``, and ``payoff @ mu`` is
    smallest at a vertex, so the minimum is ``max(min(payoff), 0)``.
    """
    return max(float(np.min(game.attack_payoff)), 0.0)


def is_equilibrium_belief(belief, game: PersuasionGame, tol: float = 1e-9) -> bool:
    """Membership in the set of beliefs attaining the minimal receiver value."""
    return attacker_value(belief, game) <= min_attacker_value(game) + tol


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
