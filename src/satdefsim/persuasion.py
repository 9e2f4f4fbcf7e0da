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
attains the optimum over every split.  The same prices fix the optimal
splits: those that weigh only candidates priced at zero (complementary
slackness).  The split reported spends the least credibility, its
expected entropy, among them.  The LPs are small and solved by a
built-in dense simplex (numpy only).

Of a solve on the exact candidates, only the right-hand side, the prior
and the budget, is the game's own: the rest depends on the payoff alone
and is built once per payoff vector (``_exact_split_lp``, an LRU cache
keyed by the payoff's bytes, of read-only arrays): the candidates, their
values, entropies and tie-break ranks, the constraint matrix (the mean
rows, the entropy row and the budget slack's column), both stages' cost
rows and the inverse of the starting basis.  Both stages solve that one
LP, and stage 2 goes on from stage 1's final basis and its inverse.

``PersuasionGame.attack_values`` is the one receiver rule: every ``V``
in this module comes from it, but the edge candidates' exact 0.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

_EPS = 1e-12

# Simplex: reduced costs and step lengths within _SIMPLEX_TOL of 0 count as
# 0, direction entries at or below _PIVOT_TOL cannot leave the basis, and a
# solve gives up after _MAX_PIVOTS_PER_COLUMN pivots per column.
_SIMPLEX_TOL = 1e-12
_PIVOT_TOL = 1e-9
_MAX_PIVOTS_PER_COLUMN = 50


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

    @property
    def n_states(self) -> int:
        return len(self.prior)

    def p_scan(self, belief: np.ndarray) -> float:
        return float(np.sum(np.asarray(belief)[self.scan_flag == 1]))

    def attack_values(self, posteriors) -> np.ndarray:
        """The receiver's best-response value ``max(attack_payoff @ mu, 0)``
        of one posterior ``mu``, or of each row of a matrix of them.  Each
        row's dot product is the 1-D ``mu @ attack_payoff``, bit for bit (a
        plain matrix-vector product would round some rows differently)."""
        mu = np.ascontiguousarray(posteriors, dtype=float)
        return np.maximum(np.matmul(mu[..., None, :], self.attack_payoff[:, None])[..., 0, 0], 0.0)


def quantize_state(scan_on, z_avg, z_bins: int = 2):
    """Map a window's (scan status, average idle capacity) to a state
    index, elementwise over arrays: ``z_bins`` more with a scan, plus the
    capacity's bin, where a level on a bin boundary goes to the upper
    bin.  A scalar input gives an ``int``."""
    z = np.asarray(z_avg, dtype=float)
    if not np.all((0.0 <= z) & (z <= 1.0 + 1e-9)):
        raise ValueError("idle capacity must lie in [0,1]")
    state = np.minimum(np.floor(z * z_bins + 1e-12).astype(int), z_bins - 1) + np.where(scan_on, z_bins, 0)
    return int(state) if state.ndim == 0 else state


def build_scan_game(
    reward_weight: float,
    base_cost: float,
    prior_scan: float,
    z_bins: int = 2,
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
    return PersuasionGame(attack_payoff=payoff, prior=prior, z_bins=z_bins, z_rep=z_rep, scan_flag=scan_flag)


def attacker_value(belief, game: PersuasionGame) -> float:
    """Receiver's best-response value at one belief (``game.attack_values``)."""
    return float(game.attack_values(belief))


def entropy(dist):
    """Shannon entropy in nats, 0 log 0 = 0: a float for one distribution,
    an array for the rows of a matrix of them."""
    p = np.asarray(dist, dtype=float)
    h = -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1)
    return float(h) if h.ndim == 0 else h


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


def policy_from_split(split: PosteriorSplit, prior) -> np.ndarray:
    """Recover the row-stochastic signaling matrix, one signal per
    support posterior; states with zero prior mass get a uniform row."""
    prior = np.asarray(prior, dtype=float)
    k = len(split.weights)
    pol = np.multiply(split.posteriors.T, split.weights, order="C")
    with np.errstate(divide="ignore", invalid="ignore"):
        pol = pol / prior[:, None]
    zero = prior <= _EPS
    pol[zero] = 1.0 / k
    # guard rounding: renormalize rows
    pol = pol / pol.sum(axis=1, keepdims=True)
    return pol


def _signal_split(belief, policy) -> tuple[np.ndarray, np.ndarray]:
    """The split a signaling matrix makes of a belief: the masses of the
    signals sent with positive probability, and their posteriors as
    C-contiguous rows."""
    joint = np.asarray(belief, dtype=float)[:, None] * np.asarray(policy, dtype=float)
    q = joint.sum(axis=0)
    sent = q > 0
    return q[sent], np.ascontiguousarray((joint[:, sent] / q[sent]).T)


def credibility_cost(policy, prior) -> float:
    """Expected self-information of the true state under the induced
    posterior, E[-log mu_m(omega)] = sum_m q_m H(mu_m); equals the
    conditional entropy of the state given the signal.  Zero-probability
    signals contribute nothing.
    """
    q, posteriors = _signal_split(prior, policy)
    return float(q @ entropy(posteriors))


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


def is_positive_int(value) -> bool:
    """True for an integer >= 1 (bool excluded): a grid resolution or a
    budget curve's number of points."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _exact_candidates(game: PersuasionGame) -> tuple[np.ndarray, np.ndarray]:
    """The candidate posteriors that make the split LP exact, and their
    values: the simplex vertices in state order, then for each state ``i``
    of positive and ``j`` of negative payoff, in ``(i, j)`` order, the point
    of their edge where ``payoff @ mu = 0`` (a kink of the receiver's
    value), valued exactly 0."""
    payoff = game.attack_payoff
    i, j = np.nonzero((payoff > 0)[:, None] & (payoff < 0)[None, :])
    edges = np.zeros((len(i), len(payoff)))
    edges[np.arange(len(i)), i] = -payoff[j] / (payoff[i] - payoff[j])
    edges[np.arange(len(i)), j] = payoff[i] / (payoff[i] - payoff[j])
    vertices = np.eye(len(payoff))
    return np.vstack([vertices, edges]), np.append(game.attack_values(vertices), np.zeros(len(i)))


@lru_cache(maxsize=8)
def _grid_tables(n_states: int, subdivisions: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of one simplex grid, shared by every solve on it:
    the points, their entropies, the vertices' indices in state order, and
    the points' tie-break ranks."""
    grid = simplex_grid(n_states, subdivisions)
    rows, states = np.nonzero(grid == 1.0)
    tables = (grid, entropy(grid), rows[np.argsort(states)], _ranks(grid))
    for table in tables:
        table.flags.writeable = False
    return tables


class _SplitLP(NamedTuple):
    """What a split LP over some candidate posteriors keeps from one solve
    to the next: everything but its right-hand side, the prior and the
    budget."""

    posteriors: np.ndarray  # (k, n_states)
    values: np.ndarray  # (k,)
    ent: np.ndarray  # (k,)
    ranks: np.ndarray  # (k,) tie-break ranks (``_ranks``)
    a: np.ndarray  # the constraint matrix (``_lp_matrix``)
    value_cost: np.ndarray  # stage 1's cost row: the values, then the slack's 0
    entropy_cost: np.ndarray  # stage 2's: the entropies, then the slack's 0
    start: np.ndarray  # the fully revealing basis: the vertices in state order, then the slack
    start_inverse: np.ndarray  # the inverse of ``a[:, start]``


def _lp_matrix(posteriors: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The constraint matrix of a split LP: a mean row per state over the
    ``k`` posterior columns, then the inequality ``row``, whose slack is
    column ``k``."""
    k = len(posteriors)
    a = np.zeros((posteriors.shape[1] + 1, k + 1))
    a[:-1, :k] = posteriors.T
    a[-1, :k] = row
    a[-1, k] = 1.0
    return a


def _build_split_lp(posteriors, values, ent, vertices, ranks) -> _SplitLP:
    """The split LP over the given candidates, with ``vertices`` the index
    of each simplex vertex in state order."""
    a = _lp_matrix(posteriors, ent)
    start = np.append(vertices, len(values))
    return _SplitLP(posteriors, values, ent, ranks, a, np.append(values, 0.0), np.append(ent, 0.0), start,
                    np.linalg.inv(a[:, start]))


@lru_cache(maxsize=32)
def _exact_split_lp(payoff: bytes) -> _SplitLP:
    """The read-only split LP over the exact candidates of a payoff vector
    (float64 bytes), shared by every solve of every game with that payoff:
    the candidates depend on the payoff only, so a stand-in game with a
    uniform prior finds them."""
    payoff = np.frombuffer(payoff)
    n = len(payoff)
    stand_in = PersuasionGame(attack_payoff=payoff, prior=np.full(n, 1.0 / n), z_bins=n, z_rep=np.zeros(n),
                              scan_flag=np.zeros(n, dtype=int))
    posteriors, values = _exact_candidates(stand_in)
    lp = _build_split_lp(posteriors, values, entropy(posteriors), np.arange(n), _ranks(posteriors))
    for table in lp:
        table.flags.writeable = False
    return lp


def _solve_master(a, cost, rhs, basis, ranks=None, allowed=None, binv=None):
    """Minimize ``cost @ x`` over ``x >= 0`` with ``a @ x == rhs``, by a
    dense revised primal simplex.  ``a`` is a split LP's constraint matrix
    (``_lp_matrix``): ``k`` posterior columns, then the slack of its last
    row, the inequality; ``cost`` has an entry per column.  ``basis``
    holds ``len(rhs)`` column indices of a primal feasible basis and is
    updated in place to an optimal one.  ``binv``, if given, is the inverse
    of ``a[:, basis]`` and is updated in place along with it, so a solve
    that goes on from this one's basis need not invert it again.  Given a
    mask ``allowed`` over all ``k + 1`` columns, the others never enter.

    Entering column: the most negative reduced cost (Dantzig), lowest index
    on ties; leaving row: the minimum ratio, lowest basic column index on
    ties.  After ``len(rhs)`` consecutive degenerate pivots both follow
    Bland's rule (the lowest eligible index) until a pivot moves the
    solution, so the simplex cannot cycle.  Given ``ranks``, pivots then go
    on to the lexicographically largest optimum (``_lexicographic_column``).

    Returns ``(w, fun, y, lam, pivots)``: ``w`` the posterior weights, ``y``
    and ``lam <= 0`` the duals of the mean rows and the inequality, signed
    like HiGHS's marginals.
    """
    m, k = a.shape[0], a.shape[1] - 1
    inverse = binv
    degenerate = 0
    for pivots in range(_MAX_PIVOTS_PER_COLUMN * (k + 1)):
        if inverse is None:
            inverse = np.linalg.inv(a[:, basis])
        xb = inverse @ rhs
        pi = cost[basis] @ inverse
        reduced = cost - pi @ a
        if allowed is not None:
            reduced[~allowed] = np.inf
        if degenerate < m:
            q = int(np.argmin(reduced))
            if reduced[q] >= -_SIMPLEX_TOL:
                q = -1
        else:
            eligible = np.flatnonzero(reduced < -_SIMPLEX_TOL)
            q = int(eligible[0]) if len(eligible) else -1
        if q < 0 and ranks is not None:
            q = _lexicographic_column(inverse, a, reduced, basis, ranks)
        if q < 0:
            break
        u = inverse @ a[:, q]
        rows = np.flatnonzero(u > _PIVOT_TOL)
        if len(rows) == 0:
            raise InfeasibleSplitError(f"split LP unbounded along column {q}")
        ratios = np.maximum(xb[rows], 0.0) / u[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + _SIMPLEX_TOL]
        basis[ties[np.argmin(basis[ties])]] = q
        inverse = None
        degenerate = degenerate + 1 if theta <= _SIMPLEX_TOL else 0
    else:
        raise InfeasibleSplitError(f"split LP not solved in {_MAX_PIVOTS_PER_COLUMN * (k + 1)} pivots")
    if binv is not None:
        binv[...] = inverse
    w = np.zeros(k + 1)
    w[basis] = xb
    return w[:k], float(cost[basis] @ xb), pi[:-1], float(pi[-1]), pivots


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


def _ranks(posteriors: np.ndarray) -> np.ndarray:
    """Each posterior's rank in decreasing lexicographic order."""
    return np.argsort(np.lexsort(posteriors.T[::-1])[::-1])


def _split_lp(lp: _SplitLP, prior, budget):
    """Both stages of a split LP at one prior and budget, its right-hand
    side.  Returns the weights, stage 1's optimum and each stage's pivots.
    A feasible split is value-optimal iff it weighs only columns of zero
    reduced cost under stage 1's duals (the budget slack's is ``-lam``), so
    stage 2 solves the same LP from stage 1's optimal basis and its inverse,
    with only those columns free."""
    rhs = np.append(prior, budget)
    basis, binv = lp.start.copy(), lp.start_inverse.copy()
    _, objective, y, lam, first = _solve_master(lp.a, lp.value_cost, rhs, basis, binv=binv)
    optimal = np.append(lp.values - lp.posteriors @ y - lam * lp.ent, -lam) <= _SIMPLEX_TOL
    w, _, _, _, second = _solve_master(lp.a, lp.entropy_cost, rhs, basis, lp.ranks, optimal, binv)
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
    module docstring (``_exact_candidates``), whose LP is built once per
    payoff (``_exact_split_lp``).  An int is the grid oracle:
    the points of ``simplex_grid(n_states, subdivisions)``, whose tables are
    built once and shared, and whose optimum is never below the exact one.
    The LP has a weight per candidate, a mean row per state and one
    inequality, and is solved in two stages by ``_solve_master``:

    1. Minimize the value within the budget, from the fully revealing basis
       (the vertices at the prior, the budget slack at the whole budget),
       feasible at every budget >= 0.  This optimum is ``objective``.
    2. Minimize the expected entropy, the credibility spent, over stage 1's
       optimal splits: the same constraints, started from stage 1's optimal
       basis, with only the columns of zero reduced cost under stage 1's
       duals free to enter (``_split_lp``).  A tie left goes to the split
       whose weights, over the candidates in decreasing lexicographic order
       of their posteriors, are lexicographically largest, so the split
       depends on the candidate set, not on its order.

    The split and policy (a signal per support posterior) are stage 2's,
    and ``credibility`` is the split's expected posterior entropy.
    """
    if not 0.0 <= budget < math.inf:  # NaN fails too
        raise ValueError("credibility budget must be finite and >= 0")
    if subdivisions is None:
        lp = _exact_split_lp(game.attack_payoff.tobytes())
    elif not is_positive_int(subdivisions):
        raise ValueError(f"subdivisions must be None or an int >= 1, got {subdivisions!r}")
    else:
        posteriors, ent, vertices, ranks = _grid_tables(game.n_states, int(subdivisions))
        lp = _build_split_lp(posteriors, game.attack_values(posteriors), ent, vertices, ranks)
    w, objective, pivots = _split_lp(lp, game.prior, budget)
    support = w > 1e-10
    split = PosteriorSplit(posteriors=lp.posteriors[support], weights=w[support] / w[support].sum())
    policy = policy_from_split(split, game.prior)
    return PersuasionSolution(split, policy, objective, float(lp.ent[support] @ split.weights), len(lp.values), pivots)


def min_attacker_value(game: PersuasionGame) -> float:
    """Global minimum of the best-response value over the belief simplex:
    the least vertex value, since ``payoff @ mu`` is smallest at a vertex
    and ``max(., 0)`` is non-decreasing."""
    return float(np.min(game.attack_values(np.eye(game.n_states))))


def lyapunov_drift(belief, policy, game: PersuasionGame) -> float:
    """Expected change of the receiver's value under one signaling round:
    E_[m | belief, policy] V(posterior) - V(belief)."""
    q, posteriors = _signal_split(belief, policy)
    expected = 0.0
    for q_m, value in zip(q, game.attack_values(posteriors)):  # q @ values rounds differently
        expected += q_m * value
    return float(expected - attacker_value(belief, game))


# ---------------------------------------------------------------------------
# Channel-adaptive budget allocation and artificial delay
# ---------------------------------------------------------------------------

class BudgetCurve:
    """Per-slot objective as a function of the credibility budget.

    Precomputes solve_persuasion on a budget grid over [0, log n_states];
    the optimal LP value is convex and non-increasing in the budget.
    """

    def __init__(self, game: PersuasionGame, points: int = 25, subdivisions: int | None = None):
        if not is_positive_int(points):
            raise ValueError(f"points must be an int >= 1, got {points!r}")
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
