"""Robustness sweeps: solve a schedule of approximating models, replay their policies.

Each sweep takes the distinct models of a perturbation schedule and solves
them together: the LQ sweep as one stacked Riccati RK4, a grid sweep as one
block-diagonal banded system per Howard iteration or time level, on one
shared grid (or Riccati time grid). It reports two curves per row: the
value gap between the approximating and true optimal values, and the
performance loss from running the approximating model's optimal policy
inside the true model, replayed for every row at once. The true model sits
in each stack once. A delta = 0 control row is appended whenever the
schedule does not already end with one; it shares the true model's solve,
so its gaps vanish exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .hjbgrid import (
    DEFAULT_LADDER,
    Grid1D,
    _discounted,
    _ergodic,
    _ergodic_policy,
    _exit,
    _exit_cost,
    _hamiltonians,
    _solve_policy,
    _step_back,
    _Tables,
    _terminal,
    _time_levels,
)
from .io import write_csv
from .model import ModelSpec, PerturbationSchedule, _perturb_offdiag, make_perturbation_sequence
from .riccati import LQSpec, _feedback_cost_stack, _solve_stack

SWEEP_HEADER = "n,delta,value_gap,policy_loss,aux,solver_iters,stderr"

GRID_CRITERIA = ("discounted", "finite-horizon", "exit", "ergodic")


@dataclass(frozen=True, eq=False)
class SweepRow:
    n: int
    delta: float
    value_gap: float
    policy_loss: float
    aux: float
    solver_iters: int
    stderr: float = 0.0


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Gap curves over a perturbation schedule for one cost criterion."""

    criterion: str
    rows: tuple
    config_digest: str = ""

    def csv_rows(self):
        for r in self.rows:
            yield (r.n, r.delta, r.value_gap, r.policy_loss, r.aux, r.solver_iters, r.stderr)

    def to_csv(self, path) -> None:
        write_csv(path, SWEEP_HEADER, self.csv_rows())

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)


def _schedule_deltas(sched: PerturbationSchedule) -> list[float]:
    """Schedule magnitudes plus an appended delta = 0 control entry."""
    deltas = [float(d) for d in sched.magnitudes]
    if deltas[-1] != 0.0:
        deltas.append(0.0)
    return deltas


def _spectral_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max over leading axes of the spectral norm of a - b."""
    diff = (a - b).reshape(-1, a.shape[-2], a.shape[-1])
    if not diff.any():
        return 0.0
    return float(np.max(np.linalg.svd(diff, compute_uv=False)[:, 0]))


def perturbed_lq_sequence(true_lq: LQSpec, sched: PerturbationSchedule) -> list[LQSpec]:
    """Apply the schedule's coefficient/rates directions to an LQSpec.

    Mirrors make_perturbation_sequence for the linear-quadratic data: dA,
    dB perturb the drift pair, dC the noise loading, dm the generator
    off-diagonals. Cost and noise-approx modes have no LQ counterpart here.
    """
    if sched.mode in ("cost", "noise-approx"):
        raise ConfigError(
            f"mode '{sched.mode}' does not apply to the LQ sweep", "schedule.mode"
        )
    coeff = sched.mode in ("coefficient", "combined")
    rates_mode = sched.mode in ("rates", "combined")
    out = []
    for n, delta in enumerate(sched.magnitudes):
        delta = float(delta)
        if delta == 0.0:
            out.append(true_lq)
            continue
        a, b, c, rates = true_lq.a, true_lq.b, true_lq.c, true_lq.rates
        if coeff:
            if sched.d_a is not None:
                a = a + delta * np.asarray(sched.d_a, dtype=np.float64)
            if sched.d_b is not None:
                b = b + delta * np.asarray(sched.d_b, dtype=np.float64)
            if sched.d_c is not None:
                c = c + delta * np.asarray(sched.d_c, dtype=np.float64)
        if rates_mode and sched.d_m is not None:
            rates = _perturb_offdiag(
                np.asarray(true_lq.rates), np.asarray(sched.d_m, dtype=np.float64), delta, n
            )
        out.append(replace(true_lq, a=a, b=b, c=c, rates=rates))
    return out


def sweep_lq_finite_horizon(
    true_lq: LQSpec,
    sched: PerturbationSchedule,
    x0,
    i0: int,
    steps: int = 400,
) -> SweepReport:
    """Finite-horizon LQ sweep with exact (ODE-based) performance loss.

    Per row: the coupled Riccati solution K_n of the perturbed model,
    value_gap = max over time nodes and regimes of ||K_n - K||_2, replay
    the perturbed feedback in the true model through the fixed-feedback
    matrix ODE, policy_loss = x0' (M_n(0,i0) - M*(0,i0)) x0 where M* is the
    true feedback pushed through the same ODE (equal to K in exact
    arithmetic), aux = sup_t ||F_n - F||_2. No Monte Carlo enters.

    The schedule's distinct models are stacked on a leading axis and solved
    by one Riccati RK4 and one fixed-feedback RK4. The true model sits in
    the stack once and serves the reference K, the base cost M* and the
    delta = 0 control row, so that row's gaps are exactly zero.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(true_lq.dim)
    if not 1 <= i0 <= true_lq.n_regimes:
        raise ShapeError(f"regime {i0} out of range")
    stack, slot = [true_lq], {0.0: 0}
    for delta, lq in zip(sched.magnitudes, perturbed_lq_sequence(true_lq, sched)):
        if float(delta) not in slot:
            slot[float(delta)] = len(stack)
            stack.append(lq)
    # gains on a doubled grid so the replay ODE sees exact half-step values
    k = _solve_stack(stack, 2 * steps)  # (2 steps + 1, models, N, d, d)
    gains = np.stack([lq.r_inv_bt() for lq in stack]) @ k
    value_gap = [_spectral_gap(k[:, b], k[:, 0]) for b in range(len(stack))]
    aux = [_spectral_gap(gains[:, b], gains[:, 0]) for b in range(len(stack))]
    del k  # free the Riccati stack before the replay allocates its own
    # the doubled grid is the replay's RK4 stage grid, so gains are stage gains
    m0 = _feedback_cost_stack(true_lq, gains, steps)[0, :, i0 - 1]
    cost = x0 @ m0 @ x0  # (models,)

    rows = []
    for n, delta in enumerate(_schedule_deltas(sched)):
        b = slot[delta]
        loss = float(cost[b] - cost[0])
        rows.append(SweepRow(n, delta, value_gap[b], loss, aux[b], solver_iters=2 * steps))
    return SweepReport(criterion="lq-finite-horizon", rows=tuple(rows))


def _grid_stack(true_spec: ModelSpec, sched: PerturbationSchedule, grid: Grid1D) -> tuple:
    """The schedule's distinct models stacked on one grid, in row order.

    Returns (tables of the stack, the true model's tables tiled to the same
    blocks for the replay, the block of each sweep row, the true model's
    block). The delta = 0 control row shares the true model's block.
    """
    by_delta = dict(zip(
        (float(d) for d in sched.magnitudes), make_perturbation_sequence(true_spec, sched)
    ))
    stack, slot, labels = [], {}, []
    deltas = _schedule_deltas(sched)
    for n, delta in enumerate(deltas):
        if delta not in slot:
            slot[delta] = len(stack)
            stack.append(by_delta.get(delta, true_spec))
            labels.append(f"schedule row n = {n}, delta = {delta:g}")
    tab = _Tables(stack, grid, labels)
    replay = _Tables([true_spec] * len(stack), grid)
    return tab, replay, [slot[d] for d in deltas], slot[0.0]


def _stationary(tab: _Tables, criterion: str, tol: float, max_iter: int) -> list:
    if criterion == "discounted":
        return _discounted(tab, None, tol, max_iter)
    return _exit(tab, tol, max_iter)


def _replay(replay: _Tables, criterion: str, policy: np.ndarray) -> np.ndarray:
    """Values in the true model of each block's policy, (N, B, K) to (N, B, K)."""
    if criterion == "discounted":
        alpha = replay.models[0].costs.alpha
        return _solve_policy(replay, policy, replay.gather(replay.c, policy), alpha)
    return _exit_cost(replay, policy)


def _block_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block sup-norm of a - b over (N, B, K) arrays."""
    return np.max(np.abs(a - b), axis=(0, 2))


def _finite_horizon_gaps(tab: _Tables, replay: _Tables, t: int, n_t: int | None) -> tuple:
    """Per-block value gap over all levels, and values and replayed costs at t = 0.

    The stack and the replay step back together, so each level's policy is
    replayed as soon as it is chosen and only one level of each is kept.
    """
    _, n_t, dt = _time_levels(tab, None, n_t)
    v, j = _terminal(tab), _terminal(replay)
    value_gap = _block_gap(v, v[:, t:t + 1])
    ham = _hamiltonians(tab, v, False)
    for _ in range(n_t):
        pol = np.argmin(ham, axis=0)
        v = _step_back(tab, pol, v, dt)
        j = _step_back(replay, pol, j, dt)
        ham = _hamiltonians(tab, v, False)
        value_gap = np.maximum(value_gap, _block_gap(v, v[:, t:t + 1]))
    return value_gap, v, j, n_t


def sweep_grid(
    true_spec: ModelSpec,
    sched: PerturbationSchedule,
    criterion: str,
    grid: Grid1D,
    tol: float = 1e-8,
    max_iter: int = 100,
    n_t: int | None = None,
    ladder=DEFAULT_LADDER,
) -> SweepReport:
    """Grid-based sweep for one of the four cost criteria.

    All models share one grid, so the reported gaps are pure model effects.
    value_gap compares optimal values (|rho_n - rho*| for ergodic);
    policy_loss replays the model-n policy in the true model; aux is the
    cross-model term J_true(pi_n) - V_n entering the triangle bound
    policy_loss <= value_gap + aux.

    The schedule's distinct models are solved as one stacked system (see
    hjbgrid._Tables), and every row's policy is replayed by one stacked
    evaluation on the true model's tables. The true model sits in the stack
    once and serves both the reference values and the control row. Each
    model keeps its own Howard stopping test, so every column equals a solve
    of that model alone; MaxIterError names the first row that did not
    converge.
    """
    if criterion not in GRID_CRITERIA:
        raise ConfigError(f"unknown sweep criterion '{criterion}'", "criterion")
    tab, replay, slots, t = _grid_stack(true_spec, sched, grid)

    if criterion == "ergodic":
        ests = _ergodic(tab, ladder, tol, max_iter)
        # the baseline goes through the same fixed-policy replay so the
        # control row cancels exactly instead of carrying the extrapolation
        # mismatch
        rho = _ergodic_policy(replay, np.stack([e.policy for e in ests], axis=1), ladder)
        per_block = [
            (abs(e.rho - ests[t].rho), abs(r - rho[t]), abs(r - e.rho), len(ladder))
            for e, r in zip(ests, rho)
        ]
    else:
        if criterion == "finite-horizon":
            # the replay is compared at t = 0
            value_gap, v, j, n_t = _finite_horizon_gaps(tab, replay, t, n_t)
            iters = [n_t] * len(value_gap)
        else:
            sols = _stationary(tab, criterion, tol, max_iter)
            v = np.stack([s.values for s in sols], axis=1)
            j = _replay(replay, criterion, np.stack([s.policy for s in sols], axis=1))
            value_gap = _block_gap(v, v[:, t:t + 1])
            iters = [s.iterations for s in sols]
        policy_loss = np.max(j - v[:, t:t + 1], axis=(0, 2))
        per_block = [
            (float(g), float(loss), float(a), it)
            for g, loss, a, it in zip(value_gap, policy_loss, _block_gap(j, v), iters)
        ]

    deltas = _schedule_deltas(sched)
    return SweepReport(criterion=criterion, rows=tuple(
        SweepRow(n, delta, *per_block[b]) for n, (delta, b) in enumerate(zip(deltas, slots))
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
    config_digest: str = ""

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
        write_csv(path, "n,delta,gap,three_eps,passed", self.csv_rows())


def _worst_eps_policy(tab: _Tables, values: np.ndarray, eps: float, with_beta: bool) -> np.ndarray:
    """Worst action within eps of the pointwise Hamiltonian minimum.

    Adversarial degradation: among the eps-acceptable actions pick the one
    with the largest Hamiltonian value (lowest index on ties), so the
    3-eps bound is exercised rather than granted.
    """
    ham = _hamiltonians(tab, values, with_beta)
    acceptable = ham <= np.min(ham, axis=0)[None] + eps
    return np.argmax(np.where(acceptable, ham, -np.inf), axis=0).astype(np.int64)


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
    and exit), where the eps-degradation acts on one Hamiltonian table.
    """
    if eps <= 0:
        raise ConfigError("eps must be > 0", "eps")
    if criterion not in ("discounted", "exit"):
        raise ConfigError(
            f"eps-optimality check supports 'discounted' and 'exit', not '{criterion}'",
            "criterion",
        )
    tab, replay, slots, t = _grid_stack(true_spec, sched, grid)
    values = np.stack([s.values for s in _stationary(tab, criterion, tol, max_iter)], axis=1)
    policy = _worst_eps_policy(tab, values, eps, criterion == "exit")
    gaps = _block_gap(_replay(replay, criterion, policy), values[:, t:t + 1])
    rows = [
        EpsRow(n, delta, float(gaps[b]), bool(gaps[b] <= 3.0 * eps))
        for n, (delta, b) in enumerate(zip(_schedule_deltas(sched), slots))
    ]

    threshold = None
    for k in range(len(rows)):
        if all(r.passed for r in rows[k:]):
            threshold = k
            break
    return EpsOptimalityReport(
        criterion=criterion, epsilon=float(eps), rows=tuple(rows), threshold_n=threshold
    )
