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
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import optimize

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


class InfeasibleSplitError(RuntimeError):
    """The discretized split problem has no feasible point (certificate in args)."""


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
def _grid_tables(n_states: int, subdivisions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The game-independent tables of one simplex grid, built once and
    shared read-only by every solve on it: the points, each point's
    entropy, and the mask of the coarse sub-grid the master starts from."""
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
    for table in (grid, ent, coarse):
        table.flags.writeable = False
    return grid, ent, coarse


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
    grid, ent, coarse = _grid_tables(n, subs)
    values = np.maximum(grid @ game.attack_payoff, 0.0)
    in_master = coarse.copy()
    rounds = 0
    while True:
        cols = np.flatnonzero(in_master)
        res = optimize.linprog(
            values[cols],
            A_ub=ent[None, cols],
            b_ub=[budget],
            A_eq=grid[cols].T,
            b_eq=game.prior,
            bounds=(0, None),
            method="highs",
        )
        if res.status != 0:
            raise InfeasibleSplitError(
                f"split LP failed (status {res.status}: {res.message}); "
                f"grid subdivisions {subs}, budget {budget}, {len(cols)} master columns"
            )
        rounds += 1
        reduced = values - grid @ res.eqlin.marginals - res.ineqlin.marginals[0] * ent
        reduced[in_master] = np.inf
        entering = np.flatnonzero(reduced < -_PRICING_TOL)
        if len(entering) == 0:
            break
        in_master[entering[np.argsort(reduced[entering], kind="stable")[:_PRICING_BATCH]]] = True
    w = res.x
    support = w > 1e-10
    weights = w[support]
    weights = weights / weights.sum()
    split = PosteriorSplit(posteriors=grid[cols[support]], weights=weights)
    policy = policy_from_split(split, game.prior, game.n_signals)
    return PersuasionSolution(
        split=split,
        policy=policy,
        objective=float(res.fun),
        credibility=credibility_cost(policy, game.prior),
        lp_columns=len(cols),
        pricing_rounds=rounds,
    )


def min_attacker_value(game: PersuasionGame) -> float:
    """Global minimum of the best-response value over the belief simplex."""
    n = game.n_states
    # min v s.t. v >= payoff . mu, v >= 0, mu on the simplex
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2, n + 1))
    a_ub[0, :n] = game.attack_payoff
    a_ub[0, -1] = -1.0
    a_ub[1, -1] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    bounds = [(0, None)] * n + [(None, None)]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=[0.0, 0.0], A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    return float(res.fun)


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
