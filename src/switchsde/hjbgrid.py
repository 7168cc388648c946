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
and N super-diagonals and one LAPACK dgbsv call solves it. The matrix is a
weakly chained diagonally dominant M-matrix, so policy iteration is Howard's
algorithm with exact evaluation (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009). Minimization over actions is an exhaustive scan of the
ActionGrid in list order; ties keep the lowest index.

The solvers work on stacks of models sharing one grid (``_Tables``): the
stacked system is block diagonal, so one banded solve per Howard iteration
or time level serves every model, and each model keeps its own stopping
test. The public functions solve the one-model stack; the robustness
sweeps stack a whole perturbation schedule.
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
    """Coefficient tables of a stack of B models on one grid.

    A stack is solved as one system whose values are (regime, block, node)
    arrays, block b holding ``specs[b]``. Every block's first node has
    sub = 0 and its last node sup = 0, so nothing couples two blocks: the
    node-major system of the stack is block diagonal with the band of one
    model, and one model is the one-block stack. ``labels`` names the
    blocks in error messages.

    Tables are (action, regime, model, node[, regime]) with one model slice
    per block, except that a stack of one spec in every block (the true
    model tiled for a replay) builds that spec once and broadcasts it.
    ``models`` lists the specs of the slices and ``model`` maps each block
    to its slice.

    sub and sup are the off-diagonals of the drift-diffusion operator L
    (excluding regime coupling), whose diagonal is -(sub + sup) so that L
    annihilates constants; they are nonnegative for every action, which is
    the M-matrix property the maximum principle rests on.
    rates[a, i, m, k, j] is m_ij at node k under action a, diagonal
    included.
    """

    def __init__(self, specs, grid: Grid1D, labels=()):
        self.specs = tuple(specs)
        self.grid = grid
        self.labels = tuple(labels)
        first = self.specs[0]
        for spec in self.specs:
            if spec.regimes.count != first.regimes.count or not np.array_equal(
                spec.actions.actions, first.actions.actions
            ):
                raise ShapeError("stacked models must share their regimes and actions")
        B = len(self.specs)
        tiled = all(spec is first for spec in self.specs)
        self.models = [first] if tiled else list(self.specs)
        self.model = np.zeros(B, dtype=np.int64) if tiled else np.arange(B)
        parts = [_node_tables(spec, grid) for spec in self.models]
        self.c, self.beta, self.sub, self.sup, self.rates = (
            np.stack(t, axis=2) for t in zip(*parts)
        )

        A, N, M, K = self.c.shape
        self.shape = (N, B, K)
        # flat index of (action 0, regime, model of the block, node) in an
        # (A, N, M, K) table; action a adds a * N M K
        i, m, k = np.arange(N)[:, None, None], self.model[:, None], np.arange(K)
        self._base = (i * M + m) * K + k
        self._stride = N * M * K

    def gather(self, table: np.ndarray, ai_tab: np.ndarray) -> FloatArray:
        """Per-node entries of an (A, N, M, K, ...) table under an (N, B, K) action table."""
        flat = table.reshape(-1, *table.shape[4:])
        return flat.take(ai_tab * self._stride + self._base, axis=0)

    def per_model(self, values: list) -> np.ndarray:
        """Per-block copy of one (N, X) array per model slice, (N, B, X)."""
        return np.stack(values, axis=1)[:, self.model]


def _node_tables(spec: ModelSpec, grid: Grid1D) -> tuple:
    """(c, beta, sub, sup, rates) of one model on the grid's nodes, checked."""
    if spec.dim != 1:
        raise ShapeError("grid solvers support dim 1 only")
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
    a = spec.diffusion.a_batch(xs[: N * K], s[: N * K])[:, 0, 0].reshape(N, K)
    b = spec.drift.eval_batch(xs, s, u)[:, 0].reshape(A, N, K)
    c = spec.costs.running.eval_batch(xs, s, u).reshape(A, N, K)
    beta = spec.costs.exit_beta.eval_batch(xs, s, u).reshape(A, N, K)
    rates = spec.generator.rates_batch(np.tile(nodes, A)[:, None], np.repeat(acts, K, axis=0))
    rates = rates.reshape(A, K, N, N).transpose(0, 2, 1, 3)

    if not np.all(a > 0.0):
        raise DegenerateError("grid solvers need a = sigma^2 / 2 > 0 at every node")
    sub = a[None] / dx**2 + np.maximum(-b, 0.0) / dx
    sup = a[None] / dx**2 + np.maximum(b, 0.0) / dx
    # reflecting ends: one-sided second difference, outward drift dropped
    sub[:, :, 0] = 0.0
    sup[:, :, -1] = 0.0
    for name, table in (("sub", sub), ("sup", sup), ("c", c), ("beta", beta), ("rates", rates)):
        if not np.all(np.isfinite(table)):
            raise SchemeError(f"coefficient table '{name}' is not finite on the grid")
    if not (np.all(sub >= 0.0) and np.all(sup >= 0.0)):
        raise SchemeError("upwind coefficients must be nonnegative")
    return c, beta, sub, sup, rates


def _hamiltonians(tab: _Tables, v: FloatArray, with_beta: bool) -> FloatArray:
    """Per-action pre-minimization values L_a v + M_a v + c_a (- beta_a v), (A, N, B, K)."""
    out = -(tab.sub + tab.sup) * v
    out[..., 1:] += tab.sub[..., 1:] * v[..., :-1]
    out[..., :-1] += tab.sup[..., :-1] * v[..., 1:]
    out += np.einsum("ai...j,j...->ai...", tab.rates, v)
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
    """Solve (zeta - L - M) v = rhs for one stacked action table by one banded LU.

    zeta is the zeroth-order coefficient (alpha, beta or 1/dt), a scalar or
    per (regime, block, node). ``dirichlet`` (N, B, 2) turns every block's
    two end nodes into identity rows pinned to the given values.

    Row r = k N + i of the node-major system holds stacked node k (block
    and node), regime i. LAPACK's column-major band storage puts entry
    (r, c) at band row 2N + r - c of column c, below N rows of workspace
    for the LU's fill-in. Each diagonal of the system (regime coupling,
    upwind neighbours) is then a regular stride of that storage and is
    written through one strided view; N padding columns on each side take
    the neighbour entries that fall outside the matrix.
    """
    from scipy.linalg.lapack import dgbsv

    N, B, K = ai_tab.shape
    n = B * K
    sub = tab.gather(tab.sub, ai_tab)
    sup = tab.gather(tab.sup, ai_tab)
    rates = tab.gather(tab.rates, ai_tab)  # (N, B, K, N): row regime, block, node, column regime
    center = zeta + (sub + sup)
    b = rhs
    if dirichlet is not None:
        for arr in (sub, sup, rates):
            arr[:, :, [0, -1]] = 0.0
        center[:, :, [0, -1]] = 1.0
        b = rhs.copy()
        b[:, :, [0, -1]] = dirichlet

    width = 3 * N + 1
    store = np.zeros((n * N + 2 * N) * width)

    def diagonal(offset, shape, strides):
        # entry (r, c) lives at store[(c + N) * width + 2N + r - c]
        return np.lib.stride_tricks.as_strided(
            store[N * width + offset:], shape, [store.itemsize * st for st in strides]
        )

    node = (K * N * width, N * width)  # strides of (block, node) along the diagonal
    diagonal(2 * N, (B, K, N, N), (*node, 1, width - 1))[...] = -rates.transpose(1, 2, 0, 3)
    diagonal(2 * N, (B, K, N), (*node, width))[...] += center.transpose(1, 2, 0)
    diagonal(N * width + N, (B, K, N), (*node, width))[...] = -sup.transpose(1, 2, 0)
    diagonal(3 * N - N * width, (B, K, N), (*node, width))[...] = -sub.transpose(1, 2, 0)
    _, _, v, info = dgbsv(
        N, N, store.reshape(-1, width)[N:N + n * N].T, b.transpose(1, 2, 0).flatten(),
        overwrite_ab=True, overwrite_b=True,
    )
    if info != 0:
        raise SchemeError(f"banded LU of the policy system failed (LAPACK dgbsv info {info})")
    return np.ascontiguousarray(v.reshape(B, K, N).transpose(2, 0, 1))


def _howard(
    tab: _Tables, v: FloatArray, alpha: float | None, tol: float, max_iter: int,
    h_vals: FloatArray | None = None,
) -> tuple[FloatArray, np.ndarray, list]:
    """Howard's policy iteration from v: exact evaluation, exhaustive improvement.

    Discounted when h_vals is None (zeta = alpha); otherwise the exit problem
    (zeta = beta_a, Dirichlet ends pinned to h_vals (N, B, 2)). Each block
    stops on its own test: when its improved policy repeats, so its last
    evaluation is exact for the returned policy, or when its sup-norm value
    change drops below tol. A stopped block keeps the values, policy and
    residual history of that iteration, as a solve of its model alone
    would; the stack is evaluated until every block has stopped. Returns
    (values, policy, per-block residual histories).

    The evaluated iterates never increase, because each evaluation matrix
    has a nonnegative inverse. The residual history carries no such
    guarantee: it can rise from one iteration to the next.
    """
    exit_ = h_vals is not None
    policy = np.argmin(_hamiltonians(tab, v, exit_), axis=0)
    out_v, out_policy = np.empty_like(v), np.empty_like(policy)
    histories = [[] for _ in tab.specs]
    live = np.ones(len(tab.specs), dtype=bool)
    for _ in range(max_iter):
        zeta = tab.gather(tab.beta, policy) if exit_ else alpha
        v_new = _solve_policy(tab, policy, tab.gather(tab.c, policy), zeta, h_vals)
        ham = _hamiltonians(tab, v_new, exit_)
        best = np.min(ham, axis=0)
        res = np.max(np.abs(best[..., 1:-1] if exit_ else best - alpha * v_new), axis=(0, 2))
        change = np.max(np.abs(v_new - v), axis=(0, 2))
        v, previous = v_new, policy
        policy = np.argmin(ham, axis=0)
        for b in np.flatnonzero(live):
            histories[b].append(float(res[b]))
        stop = live & ((change < tol) | np.all(policy == previous, axis=(0, 2)))
        out_v[:, stop] = v[:, stop]
        out_policy[:, stop] = policy[:, stop]
        live &= ~stop
        if not live.any():
            return out_v, out_policy, histories
    where = f" ({tab.labels[np.flatnonzero(live)[0]]})" if tab.labels else ""
    raise MaxIterError(f"policy iteration did not converge in {max_iter} iterations{where}")


def _shared(specs, name: str):
    """A cost constant every stacked model must share (schedules never perturb it)."""
    values = {getattr(spec.costs, name) for spec in specs}
    if len(values) != 1:
        raise ShapeError(f"stacked models need one costs.{name}")
    return values.pop()


def _discount(specs, alpha: float | None) -> float:
    alpha = _shared(specs, "alpha") if alpha is None else float(alpha)
    if alpha <= 0:
        raise ShapeError("discount alpha must be > 0")
    return alpha


def _bounded_cost(spec: ModelSpec) -> float:
    m_c = spec.cost_bound()
    if not np.isfinite(m_c):
        raise UnboundedError("grid solvers need a bounded running cost")
    return m_c


def _action_table(tab: _Tables, policy: np.ndarray, ndim: int = 2) -> np.ndarray:
    """Checked int64 copy of a one-model policy table whose trailing axes are
    (N, K), with the block axis inserted: (..., N, 1, K)."""
    pol = np.array(policy, dtype=np.int64)
    N, _, K = tab.shape
    if pol.ndim != ndim or pol.shape[-2:] != (N, K):
        raise ShapeError(f"policy table has shape {pol.shape}, expected trailing axes {(N, K)}")
    if pol.size and (pol.min() < 0 or pol.max() >= tab.c.shape[0]):
        raise ShapeError(f"policy table holds an action index outside 0..{tab.c.shape[0] - 1}")
    return pol[..., None, :]


def _blocks(arr: np.ndarray) -> list:
    """Per-block views of an (..., B, K) array."""
    return list(np.moveaxis(arr, -2, 0))


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
    return _discounted(_Tables([spec], grid), alpha, tol, max_iter)[0]


def _discounted(tab: _Tables, alpha: float | None, tol: float, max_iter: int) -> list:
    """solve_discounted for every block of the stack, one GridSolution each."""
    alpha = _discount(tab.models, alpha)
    bounds = [_bounded_cost(spec) / alpha for spec in tab.models]
    v, policy, histories = _howard(tab, np.zeros(tab.shape), alpha, tol, max_iter)
    sols = []
    for vb, pb, history, m in zip(_blocks(v), _blocks(policy), histories, tab.model):
        if not (np.all(vb >= -1e-9) and np.all(vb <= bounds[m] + 1e-9)):
            raise SchemeError("discounted solution violates the maximum principle bound")
        sols.append(GridSolution(
            criterion="discounted", grid=tab.grid, values=vb, policy=pb,
            iterations=len(history), residual=history[-1], residual_history=tuple(history),
            alpha=alpha,
        ))
    return sols


def evaluate_policy_value(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, alpha: float | None = None,
) -> GridSolution:
    """Discounted value of a fixed action table (one exact coupled solve)."""
    tab = _Tables([spec], grid)
    alpha = _discount(tab.models, alpha)
    policy = _action_table(tab, policy)
    v = _solve_policy(tab, policy, tab.gather(tab.c, policy), alpha)
    ham = np.take_along_axis(_hamiltonians(tab, v, False), policy[None], axis=0)[0]
    return GridSolution(
        criterion="discounted-policy", grid=grid, values=v[:, 0], policy=policy[:, 0],
        iterations=1, residual=float(np.max(np.abs(ham - alpha * v))), alpha=alpha,
    )


def _exit_values(tab: _Tables) -> FloatArray:
    """Exit cost h at the two interval ends per regime and block, (N, B, 2)."""
    grid = tab.grid
    N = tab.shape[0]
    ends = np.tile([[grid.x_min], [grid.x_max]], (N, 1))
    s = np.repeat(np.arange(N), 2)
    return tab.per_model([spec.costs.exit_h.eval_batch(ends, s).reshape(N, 2) for spec in tab.models])


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
    return _exit(_Tables([spec], grid), tol, max_iter)[0]


def _exit(tab: _Tables, tol: float, max_iter: int) -> list:
    """solve_exit for every block of the stack, each pinned to its own h."""
    for spec in tab.models:
        _bounded_cost(spec)
    h_vals = _exit_values(tab)
    v = np.zeros(tab.shape)
    v[..., [0, -1]] = h_vals
    v, policy, histories = _howard(tab, v, None, tol, max_iter, h_vals)
    return [
        GridSolution(
            criterion="exit", grid=tab.grid, values=vb, policy=pb,
            iterations=len(history), residual=history[-1], residual_history=tuple(history),
        )
        for vb, pb, history in zip(_blocks(v), _blocks(policy), histories)
    ]


def evaluate_policy_exit(spec: ModelSpec, grid: Grid1D, policy: np.ndarray) -> GridSolution:
    """Exit cost of a fixed action table (one exact coupled Dirichlet solve)."""
    tab = _Tables([spec], grid)
    policy = _action_table(tab, policy)
    v = _exit_cost(tab, policy)
    ham = np.take_along_axis(_hamiltonians(tab, v, True), policy[None], axis=0)[0]
    return GridSolution(
        criterion="exit-policy", grid=grid, values=v[:, 0], policy=policy[:, 0],
        iterations=1, residual=float(np.max(np.abs(ham[..., 1:-1]))),
    )


def _exit_cost(tab: _Tables, policy: np.ndarray) -> FloatArray:
    """Exit cost of an (N, B, K) action table, each block pinned to its own h."""
    return _solve_policy(
        tab, policy, tab.gather(tab.c, policy), tab.gather(tab.beta, policy), _exit_values(tab),
    )


def _time_levels(tab: _Tables, horizon: float | None, n_t: int | None) -> tuple:
    """(T, n_t, dt) of a finite-horizon solve; checks the step and the cost bound."""
    T = _shared(tab.models, "horizon") if horizon is None else float(horizon)
    if n_t is None:
        n_t = max(int(np.ceil(T / 0.05)), 10)
    dt = T / n_t
    if dt > 0.1 + 1e-12:
        raise StepError(f"finite-horizon time step {dt:.4g} exceeds 0.1; raise n_t")
    for spec in tab.models:
        _bounded_cost(spec)
    return T, n_t, dt


def _terminal(tab: _Tables) -> FloatArray:
    """Terminal cost c_T per regime, block and node, (N, B, K)."""
    N, _, K = tab.shape
    xs, s = np.tile(tab.grid.nodes, N)[:, None], np.repeat(np.arange(N), K)
    return tab.per_model([spec.costs.terminal.eval_batch(xs, s).reshape(N, K) for spec in tab.models])


def _step_back(tab: _Tables, policy: np.ndarray, v_next: FloatArray, dt: float) -> FloatArray:
    """One backward level: solve (1/dt - L - M) v = c + v_next / dt under policy."""
    return _solve_policy(tab, policy, tab.gather(tab.c, policy) + v_next / dt, 1.0 / dt)


def solve_finite_horizon(
    spec: ModelSpec, grid: Grid1D, horizon: float | None = None, n_t: int | None = None,
) -> GridSolution:
    """Backward semi-implicit scheme for the finite-horizon system.

    At each level the minimizing action is chosen explicitly from the next
    level's values, then the coupled linear system for the new level is
    solved exactly; the terminal level equals c_T exactly. Needs the time
    step at or below 0.1 for the frozen-policy accuracy to hold.
    """
    return _finite_horizon(_Tables([spec], grid), horizon, n_t)[0]


def _finite_horizon(tab: _Tables, horizon: float | None, n_t: int | None) -> list:
    """solve_finite_horizon for every block: one backward level loop for the stack."""
    T, n_t, dt = _time_levels(tab, horizon, n_t)
    values = np.empty((n_t + 1, *tab.shape))
    values[n_t] = _terminal(tab)
    policy = np.empty((n_t, *tab.shape), dtype=np.int64)

    worst_res = np.zeros(len(tab.specs))
    ham = _hamiltonians(tab, values[n_t], False)
    for j in range(n_t - 1, -1, -1):
        v_next = values[j + 1]
        pol = np.argmin(ham, axis=0)
        values[j] = _step_back(tab, pol, v_next, dt)
        ham = _hamiltonians(tab, values[j], False)
        chosen = np.take_along_axis(ham, pol[None], axis=0)[0]
        res = np.max(np.abs((v_next - values[j]) / dt + chosen), axis=(0, 2))
        worst_res = np.maximum(worst_res, res)
        policy[j] = pol

    t_levels = np.linspace(0.0, T, n_t + 1)
    return [
        GridSolution(
            criterion="finite-horizon", grid=tab.grid, values=vb, policy=pb,
            iterations=n_t, residual=float(r), horizon=T, t_levels=t_levels,
        )
        for vb, pb, r in zip(_blocks(values), _blocks(policy), worst_res)
    ]


def evaluate_policy_finite_horizon(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, horizon: float | None = None,
) -> GridSolution:
    """Finite-horizon cost of a fixed time-indexed action table."""
    tab = _Tables([spec], grid)
    policy = _action_table(tab, policy, ndim=3)
    T = spec.costs.horizon if horizon is None else float(horizon)
    n_t = policy.shape[0]
    values = np.empty((n_t + 1, *tab.shape))
    values[n_t] = _terminal(tab)
    for j in range(n_t - 1, -1, -1):
        values[j] = _step_back(tab, policy[j], values[j + 1], T / n_t)
    return GridSolution(
        criterion="finite-horizon-policy", grid=grid, values=values[:, :, 0], policy=policy[:, :, 0],
        iterations=n_t, residual=0.0, horizon=T, t_levels=np.linspace(0.0, T, n_t + 1),
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
    return _ergodic(_Tables([spec], grid), ladder, tol, max_iter)[0]


def _ergodic(tab: _Tables, ladder, tol: float, max_iter: int) -> list:
    """estimate_ergodic for every block: one stacked Howard per ladder rung."""
    ladder = _ladder(ladder)
    k_ref = _reference_node(tab.grid)
    rungs = []
    for alpha in ladder:
        sols = _discounted(tab, alpha, tol, max_iter)
        rungs.append([alpha * float(sol.values[0, k_ref]) for sol in sols])
    estimates = []
    for sol, ys in zip(sols, zip(*rungs)):
        extrapolants = tuple(
            _extrapolate(ladder[j:j + 2], ys[j:j + 2]) for j in range(len(ladder) - 1)
        )
        estimates.append(ErgodicEstimate(
            rho=float(extrapolants[-1]), relative_values=sol.values - sol.values[0, k_ref],
            policy=sol.policy, ladder=ladder, ladder_values=ys, extrapolants=extrapolants,
            reference_node=k_ref, grid=tab.grid,
        ))
    return estimates


def estimate_ergodic_policy(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, ladder=DEFAULT_LADDER,
) -> float:
    """Long-run average cost of a fixed action table via the same ladder.

    Only the two smallest ladder entries enter the extrapolation, so only
    those are evaluated.
    """
    tab = _Tables([spec], grid)
    return _ergodic_policy(tab, _action_table(tab, policy), ladder)[0]


def _ergodic_policy(tab: _Tables, policy: np.ndarray, ladder) -> list:
    """estimate_ergodic_policy of an (N, B, K) action table: two stacked evaluations."""
    alphas = _ladder(ladder)[-2:]
    k_ref = _reference_node(tab.grid)
    rungs = [alpha * _solve_policy(tab, policy, tab.gather(tab.c, policy), alpha)[0, :, k_ref]
             for alpha in alphas]
    return [float(_extrapolate(alphas, ys)) for ys in zip(*rungs)]
