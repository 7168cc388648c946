"""Finite-difference solvers for the weakly coupled HJB systems (d = 1).

Spatial discretization on a uniform node grid: central differences for the
second-order term a V'' with a = sigma^2 / 2, fully upwind first differences
for b V' (direction chosen per candidate action), so every assembled row is
an M-matrix row for every action. Ends are reflecting (zero outward
derivative, one-sided second difference) except for the exit problem, whose
boundary rows are Dirichlet.

Every policy evaluation is one exact linear solve. With the unknowns ordered
node-major (row k N + i for node k and regime i), the matrix zeta - L_a - M_a
of a fixed action table couples each row to its two spatial neighbours N
rows away and to the other regimes of its node, so it is banded with N sub-
and N super-diagonals and one banded LU solves it. The matrix is a weakly
chained diagonally dominant M-matrix, so policy iteration is Howard's
algorithm with exact evaluation (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009). Minimization over actions is an exhaustive scan of the
ActionGrid in list order; ties keep the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateError,
    MaxIterError,
    SchemeError,
    ShapeError,
    StepError,
    UnboundedError,
)
from .io import write_csv
from .model import FloatArray, ModelSpec, _freeze

DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.025)

GRID_HEADER = "criterion,regime,x,value,action_index"
GRID_HEADER_T = "criterion,regime,x,value,action_index,t"


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform 1-D node grid over a closed interval."""

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 11:
            raise ShapeError("grid needs at least 11 nodes")
        if not self.x_min < self.x_max:
            raise ShapeError("grid interval must have x_min < x_max")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def nodes(self) -> FloatArray:
        return np.linspace(self.x_min, self.x_max, self.n_x)


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Values and extracted policy of one grid solve.

    For stationary criteria ``values`` is (N, n_x) and ``policy`` holds one
    action index per (regime, node). The finite-horizon solve stacks time
    levels: values (n_t + 1, N, n_x) with the terminal level last, policy
    (n_t, N, n_x) where level j acts on [t_j, t_{j+1}), and ``t_levels``
    carries the level times. ``iterations`` counts policy evaluations (1
    for a fixed policy, n_t for the finite-horizon levels).
    """

    criterion: str
    grid: Grid1D
    values: FloatArray
    policy: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple = ()
    alpha: float | None = None
    horizon: float | None = None
    t_levels: FloatArray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        pol = np.asarray(self.policy, dtype=np.int64)
        pol.setflags(write=False)
        object.__setattr__(self, "policy", pol)

    def csv_rows(self):
        xs = self.grid.nodes
        if self.values.ndim == 2:
            for i in range(self.values.shape[0]):
                for k in range(self.values.shape[1]):
                    yield (self.criterion, i + 1, xs[k], self.values[i, k], int(self.policy[i, k]))
        else:
            # terminal level has no action; written with index -1
            n_t = self.values.shape[0] - 1
            for j in range(n_t + 1):
                for i in range(self.values.shape[1]):
                    for k in range(self.values.shape[2]):
                        a = int(self.policy[j, i, k]) if j < n_t else -1
                        yield (
                            self.criterion, i + 1, xs[k], self.values[j, i, k], a,
                            self.t_levels[j],
                        )

    def to_csv(self, path) -> None:
        header = GRID_HEADER if self.values.ndim == 2 else GRID_HEADER_T
        write_csv(path, header, self.csv_rows())


@dataclass(frozen=True, eq=False)
class ErgodicEstimate:
    """Vanishing-discount estimate of the optimal long-run average cost."""

    rho: float
    relative_values: FloatArray  # (N, n_x), zero at the reference node
    policy: np.ndarray
    ladder: tuple
    ladder_values: tuple  # alpha * V_alpha(reference) per ladder entry
    extrapolants: tuple  # successive two-point extrapolations
    reference_node: int
    grid: Grid1D


class _Tables:
    """Per-(action, regime, node) coefficient tables for one spec and grid.

    sub/sup/ldiag are the three diagonals of the drift-diffusion operator L
    (excluding regime coupling), built so that L annihilates constants; sub
    and sup are nonnegative for every action, which is the M-matrix
    property the maximum principle rests on. rates[a, i, k, j] is m_ij at
    node k under action a, diagonal included.
    """

    def __init__(self, spec: ModelSpec, grid: Grid1D):
        if spec.dim != 1:
            raise ShapeError("grid solvers support dim 1 only")
        self.spec = spec
        self.grid = grid
        K = grid.n_x
        N = spec.regimes.count
        acts = spec.actions.actions
        A = acts.shape[0]
        dx = grid.dx
        nodes = grid.nodes

        # one batch row per (action, regime, node), in that order
        xs = np.tile(nodes, A * N)[:, None]
        s = np.tile(np.repeat(np.arange(N), K), A)
        u = np.repeat(acts, N * K, axis=0)
        self.a = spec.diffusion.a_batch(xs[: N * K], s[: N * K])[:, 0, 0].reshape(N, K)
        self.b = spec.drift.eval_batch(xs, s, u)[:, 0].reshape(A, N, K)
        self.c = spec.costs.running.eval_batch(xs, s, u).reshape(A, N, K)
        self.beta = spec.costs.exit_beta.eval_batch(xs, s, u).reshape(A, N, K)
        rates = spec.generator.rates_batch(np.tile(nodes, A)[:, None], np.repeat(acts, K, axis=0))
        self.rates = np.ascontiguousarray(rates.reshape(A, K, N, N).transpose(0, 2, 1, 3))

        if not np.all(self.a > 0.0):
            raise DegenerateError("grid solvers need a = sigma^2 / 2 > 0 at every node")
        b_plus = np.maximum(self.b, 0.0)
        b_minus = np.maximum(-self.b, 0.0)
        self.sub = self.a[None] / dx**2 + b_minus / dx
        self.sup = self.a[None] / dx**2 + b_plus / dx
        # reflecting ends: one-sided second difference, outward drift dropped
        self.sub[:, :, 0] = 0.0
        self.sup[:, :, 0] = self.a[None, :, 0] / dx**2 + b_plus[:, :, 0] / dx
        self.sup[:, :, -1] = 0.0
        self.sub[:, :, -1] = self.a[None, :, -1] / dx**2 + b_minus[:, :, -1] / dx
        if not (np.all(self.sub >= 0.0) and np.all(self.sup >= 0.0)):
            raise SchemeError("upwind coefficients must be finite and nonnegative")
        self.ldiag = -(self.sub + self.sup)
        self._i = np.arange(N)[:, None]
        self._k = np.arange(K)

    def gather(self, table: np.ndarray, ai_tab: np.ndarray) -> FloatArray:
        """Per-node entries of an (A, N, K, ...) table under an (N, K) action table."""
        return table[ai_tab, self._i, self._k]


def _hamiltonians(tab: _Tables, v: FloatArray, with_beta: bool) -> FloatArray:
    """Per-action pre-minimization values L_a v + M_a v + c_a (- beta_a v), (A, N, K)."""
    out = tab.ldiag * v
    out[..., 1:] += tab.sub[..., 1:] * v[:, :-1]
    out[..., :-1] += tab.sup[..., :-1] * v[:, 1:]
    out += np.einsum("aikj,jk->aik", tab.rates, v)
    out += tab.c
    if with_beta:
        out -= tab.beta * v
    return out


def _solve_policy(
    tab: _Tables,
    ai_tab: np.ndarray,
    rhs: FloatArray,
    zeta,
    dirichlet: FloatArray | None = None,
) -> FloatArray:
    """Solve (zeta - L - M) v = rhs for one action table by one banded LU.

    zeta is the zeroth-order coefficient (alpha, beta or 1/dt), a scalar or
    per (regime, node). ``dirichlet`` (N, 2) turns the two end nodes into
    identity rows pinned to the given values. Row k N + i of the node-major
    system holds node k, regime i; band row N + i - j of column k N + j holds
    its entry in that row, so the band is viewed as (2N + 1, node, regime).
    """
    from scipy.linalg import solve_banded

    N, K = ai_tab.shape
    sub = tab.gather(tab.sub, ai_tab)
    sup = tab.gather(tab.sup, ai_tab)
    rates = tab.gather(tab.rates, ai_tab)  # (N, K, N): row regime, node, column regime
    center = zeta - tab.gather(tab.ldiag, ai_tab)
    b = rhs
    if dirichlet is not None:
        for arr in (sub, sup, rates):
            arr[:, [0, -1]] = 0.0
        center[:, [0, -1]] = 1.0
        b = rhs.copy()
        b[:, [0, -1]] = dirichlet

    ab = np.zeros((2 * N + 1, K, N))
    i, j = np.arange(N)[:, None, None], np.arange(N)
    ab[N + i - j, np.arange(K)[:, None], j] = -rates
    ab[N] += center.T
    ab[0, 1:] = -sup[:, :-1].T
    ab[2 * N, :-1] = -sub[:, 1:].T
    v = solve_banded((N, N), ab.reshape(2 * N + 1, K * N), b.T.ravel())
    return v.reshape(K, N).T


def _howard(
    tab: _Tables, v: FloatArray, alpha: float | None, tol: float, max_iter: int,
    h_vals: FloatArray | None = None,
) -> tuple[FloatArray, np.ndarray, list]:
    """Howard's policy iteration from v: exact evaluation, exhaustive improvement.

    Discounted when h_vals is None (zeta = alpha); otherwise the exit problem
    (zeta = beta_a, Dirichlet ends pinned to h_vals (N, 2)). Stops when the
    improved policy repeats, so the last evaluation is exact for the returned
    policy, or when the sup-norm value change drops below tol. Returns
    (values, policy, residual history).

    The evaluated iterates never increase, because each evaluation matrix
    has a nonnegative inverse. The residual history carries no such
    guarantee: it can rise from one iteration to the next.
    """
    exit_ = h_vals is not None
    policy = np.argmin(_hamiltonians(tab, v, exit_), axis=0)
    history = []
    for _ in range(max_iter):
        zeta = tab.gather(tab.beta, policy) if exit_ else alpha
        v_new = _solve_policy(tab, policy, tab.gather(tab.c, policy), zeta, h_vals)
        ham = _hamiltonians(tab, v_new, exit_)
        best = np.min(ham, axis=0)
        res = best[:, 1:-1] if exit_ else best - alpha * v_new
        history.append(float(np.max(np.abs(res))))
        change = float(np.max(np.abs(v_new - v)))
        v, previous = v_new, policy
        policy = np.argmin(ham, axis=0)
        if change < tol or np.array_equal(policy, previous):
            return v, policy, history
    raise MaxIterError(f"policy iteration did not converge in {max_iter} iterations")


def _discount(spec: ModelSpec, alpha: float | None) -> float:
    alpha = spec.costs.alpha if alpha is None else float(alpha)
    if alpha <= 0:
        raise ShapeError("discount alpha must be > 0")
    return alpha


def _bounded_cost(spec: ModelSpec) -> float:
    m_c = spec.cost_bound()
    if not np.isfinite(m_c):
        raise UnboundedError("grid solvers need a bounded running cost")
    return m_c


def _action_table(tab: _Tables, policy: np.ndarray, ndim: int = 2) -> np.ndarray:
    """Checked int64 copy of a policy table whose trailing axes are (N, K)."""
    pol = np.array(policy, dtype=np.int64)
    N, K = tab.a.shape
    if pol.ndim != ndim or pol.shape[-2:] != (N, K):
        raise ShapeError(f"policy table has shape {pol.shape}, expected trailing axes {(N, K)}")
    if pol.size and (pol.min() < 0 or pol.max() >= tab.c.shape[0]):
        raise ShapeError(f"policy table holds an action index outside 0..{tab.c.shape[0] - 1}")
    return pol


def solve_discounted(
    spec: ModelSpec, grid: Grid1D, alpha: float | None = None, tol: float = 1e-8,
    max_iter: int = 100,
) -> GridSolution:
    """Policy iteration for min_a [L_a V + M_a V + c_a] = alpha V.

    Howard's algorithm: each evaluation is one exact banded solve of the
    coupled system, each improvement an exhaustive action scan. It stops
    when the improved policy repeats or the sup-norm value change drops
    below tol, and raises MaxIterError when neither happens within max_iter
    evaluations. The discrete maximum principle 0 <= V <= M_c/alpha is
    checked on the result.
    """
    return _discounted(_Tables(spec, grid), alpha, tol, max_iter)


def _discounted(tab: _Tables, alpha: float | None, tol: float, max_iter: int) -> GridSolution:
    alpha = _discount(tab.spec, alpha)
    m_c = _bounded_cost(tab.spec)
    v, policy, history = _howard(tab, np.zeros(tab.a.shape), alpha, tol, max_iter)
    if not (np.all(v >= -1e-9) and np.all(v <= m_c / alpha + 1e-9)):
        raise SchemeError("discounted solution violates the maximum principle bound")
    return GridSolution(
        criterion="discounted", grid=tab.grid, values=v, policy=policy,
        iterations=len(history), residual=history[-1], residual_history=tuple(history),
        alpha=alpha,
    )


def evaluate_policy_value(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, alpha: float | None = None,
) -> GridSolution:
    """Discounted value of a fixed action table (one exact coupled solve)."""
    return _evaluate_value(_Tables(spec, grid), policy, alpha)


def _evaluate_value(tab: _Tables, policy: np.ndarray, alpha: float | None) -> GridSolution:
    alpha = _discount(tab.spec, alpha)
    policy = _action_table(tab, policy)
    v = _solve_policy(tab, policy, tab.gather(tab.c, policy), alpha)
    res = float(np.max(np.abs(tab.gather(_hamiltonians(tab, v, False), policy) - alpha * v)))
    return GridSolution(
        criterion="discounted-policy", grid=tab.grid, values=v, policy=policy,
        iterations=1, residual=res, alpha=alpha,
    )


def _exit_values(spec: ModelSpec, grid: Grid1D) -> FloatArray:
    """Exit cost h at the two interval ends per regime, (N, 2)."""
    N = spec.regimes.count
    ends = np.tile([[grid.x_min], [grid.x_max]], (N, 1))
    return spec.costs.exit_h.eval_batch(ends, np.repeat(np.arange(N), 2)).reshape(N, 2)


def solve_exit(
    spec: ModelSpec, grid: Grid1D, beta=None, exit_h=None, tol: float = 1e-8,
    max_iter: int = 100,
) -> GridSolution:
    """Policy iteration for min_a [L_a V + M_a V - beta_a V + c_a] = 0 on O.

    The grid interval is the exit domain; the two boundary rows are Dirichlet
    rows pinning V to h exactly. Stopping and MaxIterError as in
    solve_discounted.
    """
    if beta is not None or exit_h is not None:
        costs = spec.costs
        if beta is not None:
            costs = replace(costs, exit_beta=beta)
        if exit_h is not None:
            costs = replace(costs, exit_h=exit_h)
        spec = replace(spec, costs=costs)
    tab = _Tables(spec, grid)
    _bounded_cost(spec)
    h_vals = _exit_values(spec, grid)
    v = np.zeros(tab.a.shape)
    v[:, [0, -1]] = h_vals
    v, policy, history = _howard(tab, v, None, tol, max_iter, h_vals)
    return GridSolution(
        criterion="exit", grid=grid, values=v, policy=policy,
        iterations=len(history), residual=history[-1], residual_history=tuple(history),
    )


def evaluate_policy_exit(spec: ModelSpec, grid: Grid1D, policy: np.ndarray) -> GridSolution:
    """Exit cost of a fixed action table (one exact coupled Dirichlet solve)."""
    tab = _Tables(spec, grid)
    policy = _action_table(tab, policy)
    v = _solve_policy(
        tab, policy, tab.gather(tab.c, policy), tab.gather(tab.beta, policy),
        _exit_values(spec, grid),
    )
    ham = tab.gather(_hamiltonians(tab, v, True), policy)
    return GridSolution(
        criterion="exit-policy", grid=grid, values=v, policy=policy,
        iterations=1, residual=float(np.max(np.abs(ham[:, 1:-1]))),
    )


def _levels(spec: ModelSpec, grid: Grid1D, n_t: int) -> FloatArray:
    """(n_t + 1, N, K) value levels with the terminal cost filled in last."""
    N, K = spec.regimes.count, grid.n_x
    values = np.empty((n_t + 1, N, K))
    values[n_t] = spec.costs.terminal.eval_batch(
        np.tile(grid.nodes, N)[:, None], np.repeat(np.arange(N), K)
    ).reshape(N, K)
    return values


def solve_finite_horizon(
    spec: ModelSpec, grid: Grid1D, horizon: float | None = None, n_t: int | None = None,
) -> GridSolution:
    """Backward semi-implicit scheme for the finite-horizon system.

    At each level the minimizing action is chosen explicitly from the next
    level's values, then the coupled linear system for the new level is
    solved exactly; the terminal level equals c_T exactly. Needs the time
    step at or below 0.1 for the frozen-policy accuracy to hold.
    """
    T = spec.costs.horizon if horizon is None else float(horizon)
    if n_t is None:
        n_t = max(int(np.ceil(T / 0.05)), 10)
    dt = T / n_t
    if dt > 0.1 + 1e-12:
        raise StepError(f"finite-horizon time step {dt:.4g} exceeds 0.1; raise n_t")
    _bounded_cost(spec)
    tab = _Tables(spec, grid)
    values = _levels(spec, grid, n_t)
    policy = np.empty((n_t, *tab.a.shape), dtype=np.int64)

    worst_res = 0.0
    ham = _hamiltonians(tab, values[n_t], False)
    for j in range(n_t - 1, -1, -1):
        v_next = values[j + 1]
        pol = np.argmin(ham, axis=0)
        values[j] = _solve_policy(tab, pol, tab.gather(tab.c, pol) + v_next / dt, 1.0 / dt)
        ham = _hamiltonians(tab, values[j], False)
        res = float(np.max(np.abs((v_next - values[j]) / dt + tab.gather(ham, pol))))
        worst_res = max(worst_res, res)
        policy[j] = pol

    return GridSolution(
        criterion="finite-horizon", grid=grid, values=values, policy=policy,
        iterations=n_t, residual=worst_res, horizon=T,
        t_levels=np.linspace(0.0, T, n_t + 1),
    )


def evaluate_policy_finite_horizon(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, horizon: float | None = None,
) -> GridSolution:
    """Finite-horizon cost of a fixed time-indexed action table."""
    T = spec.costs.horizon if horizon is None else float(horizon)
    tab = _Tables(spec, grid)
    policy = _action_table(tab, policy, ndim=3)
    n_t = policy.shape[0]
    dt = T / n_t
    values = _levels(spec, grid, n_t)
    for j in range(n_t - 1, -1, -1):
        pol = policy[j]
        rhs = tab.gather(tab.c, pol) + values[j + 1] / dt
        values[j] = _solve_policy(tab, pol, rhs, 1.0 / dt)
    return GridSolution(
        criterion="finite-horizon-policy", grid=grid, values=values, policy=policy,
        iterations=n_t, residual=0.0, horizon=T,
        t_levels=np.linspace(0.0, T, n_t + 1),
    )


def _reference_node(grid: Grid1D) -> int:
    return int(np.argmin(np.abs(grid.nodes)))


def _ladder(ladder) -> tuple:
    ladder = tuple(sorted((float(a) for a in ladder), reverse=True))
    if len(ladder) < 2:
        raise ShapeError("ergodic ladder needs at least two discount values")
    return ladder


def _extrapolate(alphas, ys) -> float:
    """Two-point linear extrapolation of alpha * V_alpha to alpha = 0."""
    (a0, a1), (y0, y1) = alphas, ys
    return (a1 * y0 - a0 * y1) / (a1 - a0)


def estimate_ergodic(
    spec: ModelSpec, grid: Grid1D, ladder=DEFAULT_LADDER, tol: float = 1e-8,
    max_iter: int = 100,
) -> ErgodicEstimate:
    """Vanishing-discount estimate of the optimal ergodic constant.

    Solves the discounted problem for each ladder alpha (one coefficient
    table for the whole ladder) and extrapolates alpha * V_alpha(reference
    node, regime 1) linearly in alpha from the two smallest ladder entries;
    the relative value is the smallest-alpha solution shifted to vanish at
    the reference node.
    """
    ladder = _ladder(ladder)
    tab = _Tables(spec, grid)
    k_ref = _reference_node(grid)
    ys = []
    sol = None
    for alpha in ladder:
        sol = _discounted(tab, alpha, tol, max_iter)
        ys.append(alpha * float(sol.values[0, k_ref]))
    extrapolants = tuple(
        _extrapolate(ladder[j:j + 2], ys[j:j + 2]) for j in range(len(ladder) - 1)
    )
    rel = sol.values - sol.values[0, k_ref]
    return ErgodicEstimate(
        rho=float(extrapolants[-1]), relative_values=rel, policy=sol.policy, ladder=ladder,
        ladder_values=tuple(ys), extrapolants=extrapolants, reference_node=k_ref,
        grid=grid,
    )


def estimate_ergodic_policy(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, ladder=DEFAULT_LADDER,
) -> float:
    """Long-run average cost of a fixed action table via the same ladder.

    Only the two smallest ladder entries enter the extrapolation, so only
    those are evaluated.
    """
    alphas = _ladder(ladder)[-2:]
    tab = _Tables(spec, grid)
    k_ref = _reference_node(grid)
    ys = [alpha * float(_evaluate_value(tab, policy, alpha).values[0, k_ref]) for alpha in alphas]
    return float(_extrapolate(alphas, ys))
