"""Robustness sweeps: solve a schedule of approximating models, replay their policies.

Each sweep stacks one model per row of a perturbation schedule and solves
them together: the LQ sweep as one stacked Riccati RK4, a grid sweep as one
block-diagonal banded system per Howard iteration or time level, on one
shared grid (or Riccati time grid). It reports two curves per row: the
value gap between the approximating and true optimal values, and the
performance loss from running the approximating model's optimal policy
inside the true model. The true model is the last block: the schedule's
own delta = 0 row, or else an appended delta = 0 control row. It is
compared with itself, so its gaps vanish exactly. A grid replay solves the
rows whose replay input differs from the true row's; the rest copy its
result. A stationary replay solves them and the true row as one stack. A
finite-horizon replay rides in the stack's own level system, one extra
block per differing row (``hjbgrid._backward``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .hjbgrid import (
    Grid1D,
    _backward,
    _differs,
    _evaluate,
    _hamiltonians,
    _lowest_attaining,
    _stationary,
    _Tables,
    _time_levels,
)
from .io import write_csv
from .model import GRID_CRITERIA, ModelSpec, PerturbationSchedule, _check_start, make_perturbation_sequence

if TYPE_CHECKING:
    from .riccati import LQSpec

SWEEP_HEADER = "n,delta,value_gap,policy_loss,aux,solver_iters"
EPS_HEADER = "n,delta,gap,three_eps,passed"
GAP_CHUNK = 64  # time nodes per chunk of _spectral_gaps


@dataclass(frozen=True, eq=False)
class SweepRow:
    n: int
    delta: float
    value_gap: float
    policy_loss: float
    aux: float
    solver_iters: int


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Gap curves over a perturbation schedule for one cost criterion."""

    criterion: str
    rows: tuple

    def csv_rows(self):
        for r in self.rows:
            yield (r.n, r.delta, r.value_gap, r.policy_loss, r.aux, r.solver_iters)

    def to_csv(self, path) -> None:
        write_csv(path, SWEEP_HEADER, self.csv_rows())

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)


def _schedule_rows(true_spec: ModelSpec, sched: PerturbationSchedule) -> tuple:
    """(deltas, models) of the sweep rows, the one row producer of every sweep:
    make_perturbation_sequence's models, one per magnitude.

    The true model is the last row: a final magnitude of 0 is the true
    model itself, and otherwise a delta = 0 control row is appended.
    """
    deltas = [float(d) for d in sched.magnitudes]
    models = make_perturbation_sequence(true_spec, sched)
    if deltas[-1] != 0.0:
        return deltas + [0.0], models + [true_spec]
    return deltas, models


def _spectral_gaps(stack: np.ndarray) -> np.ndarray:
    """max over times and regimes of ||stack[:, b] - stack[:, -1]||_2 per block b, by Gram eigenvalues.

    The top eigenvalue is at most the trace ||D||_F^2, so per block eigvalsh
    runs at the entry of largest trace, then only where the trace exceeds
    that eigenvalue less a 1e-12 share (far above the rounding of either).
    eigvalsh works per matrix, so the maximum is the float every entry gives.
    At most GAP_CHUNK time nodes are differenced at once.
    """
    n_t, n_b, n_r, rows, cols = stack.shape

    def top_eig(t, b, i):  # largest Gram eigenvalue of each entry (t[e], b[e], i[e])
        g = stack[t, b, i] - stack[t, -1, i]
        g = g @ g.swapaxes(-1, -2) if rows <= cols else g.swapaxes(-1, -2) @ g
        return np.linalg.eigvalsh(g)[:, -1]

    chunks = range(0, n_t, GAP_CHUNK)
    trace = np.concatenate([
        np.square(stack[t:t + GAP_CHUNK] - stack[t:t + GAP_CHUNK, -1:]).sum(axis=(-2, -1)) for t in chunks
    ])  # (times, blocks, regimes)
    t, i = np.unravel_index(trace.swapaxes(0, 1).reshape(n_b, -1).argmax(axis=1), (n_t, n_r))
    top = top_eig(t, np.arange(n_b), i)
    floor = (top * (1.0 - 1e-12))[:, None]
    for t0 in chunks:
        t, b, i = np.nonzero(trace[t0:t0 + GAP_CHUNK] > floor)
        np.maximum.at(top, b, top_eig(t0 + t, b, i))
    return np.sqrt(np.maximum(0.0, top))


def sweep_lq_finite_horizon(
    true_lq: LQSpec,
    sched: PerturbationSchedule,
    x0,
    i0: int,
    steps: int = 400,
) -> SweepReport:
    """Finite-horizon LQ sweep with exact (ODE-based) performance loss.

    Per row: the coupled Riccati solution K_n of the perturbed model,
    value_gap = max over the RK4 stage times and regimes of ||K_n - K||_2,
    replay the perturbed feedback in the true model through the
    fixed-feedback matrix ODE, policy_loss = x0' (M_n(0,i0) - M*(0,i0)) x0
    where M* is the true feedback pushed through the same ODE (equal to K in
    exact arithmetic), aux = sup_t ||F_n - F||_2 over the same times. No
    Monte Carlo enters.

    The rows are lq_from_model of the schedule rows of lq_model(true_lq),
    ``true_lq`` itself at delta = 0, so the LQ sweep rejects what the grid
    sweeps reject, at the direction: d_cost and hat_sigma are E_CONFIG at
    ``schedule.<key>``. They are stacked on a leading axis and solved by
    one Riccati RK4 of ``steps`` steps, whose cubic Hermite midpoints give K
    at the replay's half steps, and one fixed-feedback RK4 on the same grid;
    solver_iters is ``steps``. The true model is the last block and serves
    the reference K and the base cost M*, so its own row's gaps are exactly
    zero. An x0 that is not dim finite numbers, or an i0 that is not a whole
    regime number, is E_SHAPE before any solve; more than
    MAX_RICCATI_STEPS steps is E_STEP.
    """
    from .riccati import _check_steps, _feedback_cost_stack, _stage_stack, lq_from_model, lq_model

    steps = _check_steps(steps)
    x0, i0 = _check_start(x0, i0, true_lq.dim, true_lq.n_regimes)
    true_spec = lq_model(true_lq)
    deltas, models = _schedule_rows(true_spec, sched)
    stack = [true_lq if m is true_spec else lq_from_model(m) for m in models]
    # K at the replay's RK4 stage times: nodes of one solve, Hermite midpoints between them
    k = _stage_stack(stack, steps)  # (2 steps + 1, models, N, d, d)
    value_gap = _spectral_gaps(k).tolist()
    gains = np.stack([lq.r_inv_bt() for lq in stack]) @ k
    del k  # free the Riccati stack before the replay allocates its own
    aux = _spectral_gaps(gains).tolist()
    m0 = _feedback_cost_stack(true_lq, gains, steps)[0, :, i0 - 1]
    cost = x0 @ m0 @ x0  # (models,)

    rows = [
        SweepRow(n, delta, value_gap[n], float(cost[n] - cost[-1]), aux[n], solver_iters=steps)
        for n, delta in enumerate(deltas)
    ]
    return SweepReport(criterion="lq-finite-horizon", rows=tuple(rows))


def _grid_stack(true_spec: ModelSpec, sched: PerturbationSchedule, grid: Grid1D) -> tuple:
    """(the delta of each row, tables of the rows' models stacked on one grid),
    one block per row, labelled with its row, the true model last."""
    deltas, stack = _schedule_rows(true_spec, sched)
    return deltas, _Tables(stack, grid, [f"schedule row n = {n}, delta = {d:g}" for n, d in enumerate(deltas)])


def _replay(tab: _Tables, solve, policy: np.ndarray) -> np.ndarray:
    """``solve(stack, policy)`` of every block on the true model's tables, (N, B, K).

    Each block of the band is factored alone, so a block whose action table
    equals the true (last) block's bit for bit has its result bit for bit:
    only the true block and the differing ones are solved, on copies of the
    true tables labelled with their own rows, and the rest copy the true
    block's result.
    """
    B = len(tab.specs)
    differs = _differs(policy)
    differs[-1] = True  # the true block itself is solved
    rows = differs.nonzero()[0]
    true = tab.take([B - 1] * len(rows))
    true.labels = tuple(tab.labels[r] for r in rows)
    if len(rows) == B:
        return solve(true, policy)
    out = solve(true, policy.take(rows, axis=1))
    where = differs.cumsum() - 1  # each differing row's block in the solve
    where[~differs] = len(rows) - 1
    return out.take(where, axis=1)


def _warm_stationary(tab: _Tables, criterion: str, tol: float, max_iter: int) -> tuple:
    """Optimal values (the constant rho if ergodic), policies and iterations per block.

    The true model, the last block, is solved alone first; every other
    block then starts Howard from its optimal policy, which the
    approximating policies converge to.
    """
    B = len(tab.specs)
    sols = _stationary(tab.take([B - 1]), criterion, tol, max_iter)
    if B > 1:
        start = np.repeat(sols[0].policy[:, None], B - 1, axis=1)
        sols = _stationary(tab.take(range(B - 1)), criterion, tol, max_iter, start) + sols
    v = [s.values if s.rho is None else np.full(s.values.shape, s.rho) for s in sols]
    return np.stack(v, axis=1), np.stack([s.policy for s in sols], axis=1), [s.iterations for s in sols]


def _block_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block sup-norm of a - b over (N, B, K) arrays."""
    return np.max(np.abs(a - b), axis=(0, 2))


def _finite_horizon_gaps(tab: _Tables, n_t: int | None) -> tuple:
    """Per-block value gap over all levels, and values and replayed costs at t = 0.

    The replay is the stack's backward scheme's own, so one level of each
    is kept.
    """
    _, n_t, dt = _time_levels(tab, n_t)
    v = tab.terminal
    value_gap = _block_gap(v, v[:, -1:])
    for _, v, _, j in _backward(tab, v, n_t, dt):
        value_gap = np.maximum(value_gap, _block_gap(v, v[:, -1:]))
    return value_gap, v, j, n_t


def sweep_grid(
    true_spec: ModelSpec,
    sched: PerturbationSchedule,
    criterion: str,
    grid: Grid1D,
    tol: float = 1e-8,
    max_iter: int = 100,
    n_t: int | None = None,
) -> SweepReport:
    """Grid-based sweep for one of the four cost criteria.

    All models share one grid, so the reported gaps are pure model effects.
    value_gap compares optimal values (|rho_n - rho*| for ergodic);
    policy_loss replays the model-n policy in the true model (for ergodic
    rho_true(pi_n) - rho*, from one pinned average-cost solve); aux is the
    cross-model term J_true(pi_n) - V_n entering the triangle bound
    policy_loss <= value_gap + aux.

    The rows' models are solved as one stacked system (see hjbgrid._Tables),
    and their policies are replayed on the true model's tables: the rows
    whose replay input differs from the true row's are solved, the true row
    with them (``_replay``) or, per finite-horizon level, as extra blocks of
    the stack's own level system (``hjbgrid._backward``). The true model is
    the last block and serves the reference values. A stationary sweep solves it first, cold, and starts
    every other model's Howard from its optimal policy. Each model keeps its
    own stopping test, so every row's values and policy equal a solve of
    that model alone, but solver_iters counts the warm-started iterations.
    MaxIterError names the true model's row if it does not converge, else
    the first row that did not.
    """
    if criterion not in GRID_CRITERIA:
        raise ConfigError(f"unknown sweep criterion '{criterion}'", "criterion")
    deltas, tab = _grid_stack(true_spec, sched, grid)

    if criterion == "finite-horizon":
        # the replay is compared at t = 0
        value_gap, v, j, n_t = _finite_horizon_gaps(tab, n_t)
        iters = [n_t] * len(deltas)
    else:
        v, policy, iters = _warm_stationary(tab, criterion, tol, max_iter)

        def replayed(t, p):
            j, rho = _evaluate(t, criterion, p)
            return np.broadcast_to(rho[:, None], j.shape) if criterion == "ergodic" else j

        j = _replay(tab, replayed, policy)
        value_gap = _block_gap(v, v[:, -1:])
    policy_loss = np.max(j - v[:, -1:], axis=(0, 2))
    columns = zip(deltas, value_gap, policy_loss, _block_gap(j, v), iters)
    return SweepReport(criterion=criterion, rows=tuple(
        SweepRow(n, delta, float(g), float(loss), float(a), it)
        for n, (delta, g, loss, a, it) in enumerate(columns)
    ))


# ---------------------------------------------------------------------------
# 3-epsilon optimality check


@dataclass(frozen=True, eq=False)
class EpsRow:
    n: int
    delta: float
    gap: float
    passed: bool


@dataclass(frozen=True, eq=False)
class EpsOptimalityReport:
    """Replay of adversarial eps-optimal policies in the true model.

    threshold_n is the smallest n from which every later row passes the
    3-eps bound, or None when that never happens within the schedule.
    """

    criterion: str
    epsilon: float
    rows: tuple
    threshold_n: int | None

    @property
    def verdict(self) -> str:
        if self.threshold_n is None:
            return "not reached within n_max"
        return f"gap <= 3*eps from n = {self.threshold_n} on"

    @property
    def passed(self) -> bool:
        return self.threshold_n is not None

    def csv_rows(self):
        for r in self.rows:
            yield (r.n, r.delta, r.gap, 3.0 * self.epsilon, r.passed)

    def to_csv(self, path) -> None:
        write_csv(path, EPS_HEADER, self.csv_rows())


def _worst_eps_policy(tab: _Tables, values: np.ndarray, eps: float) -> np.ndarray:
    """Worst action within eps of the pointwise Hamiltonian minimum.

    Adversarial degradation: among the eps-acceptable actions pick the one
    with the largest Hamiltonian value (lowest index on ties), so the
    3-eps bound is exercised rather than granted.
    """
    ham = _hamiltonians(tab, values)
    acceptable = np.where(ham <= np.min(ham, axis=0)[None] + eps, ham, -np.inf)
    return _lowest_attaining(acceptable, np.max(acceptable, axis=0))


def check_eps_optimality(
    true_spec: ModelSpec,
    sched: PerturbationSchedule,
    criterion: str,
    eps: float,
    grid: Grid1D,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> EpsOptimalityReport:
    """Check that eps-optimal policies of nearby models are 3-eps optimal.

    For each schedule element: solve the approximating model, degrade its
    argmin to the worst action within eps of the Hamiltonian minimum,
    replay that policy in the true model, and measure the sup-norm gap to
    the true optimal value. Supports the stationary criteria (discounted
    and exit), where the eps-degradation acts on one Hamiltonian table. An
    eps that is not finite and > 0 is E_CONFIG at ``eps``.
    """
    if not 0 < eps < np.inf:
        raise ConfigError("eps must be finite and > 0", "eps")
    if criterion not in ("discounted", "exit"):
        raise ConfigError(
            f"eps-optimality check supports 'discounted' and 'exit', not '{criterion}'",
            "criterion",
        )
    deltas, tab = _grid_stack(true_spec, sched, grid)
    values, _, _ = _warm_stationary(tab, criterion, tol, max_iter)
    policy = _worst_eps_policy(tab, values, eps)
    j = _replay(tab, lambda t, p: _evaluate(t, criterion, p)[0], policy)
    gaps = _block_gap(j, values[:, -1:])
    rows = [
        EpsRow(n, delta, float(gap), bool(gap <= 3.0 * eps))
        for n, (delta, gap) in enumerate(zip(deltas, gaps))
    ]

    threshold = None
    for k in range(len(rows)):
        if all(r.passed for r in rows[k:]):
            threshold = k
            break
    return EpsOptimalityReport(
        criterion=criterion, epsilon=float(eps), rows=tuple(rows), threshold_n=threshold
    )
