"""Robustness sweeps: solve approximating models, replay their policies.

Each sweep walks a perturbation schedule, solves the chosen criterion for
every approximating model on one shared grid (or Riccati time grid), and
reports two curves per row: the value gap between the approximating and
true optimal values, and the performance loss from running the
approximating model's optimal policy inside the true model. A delta = 0
control row is appended whenever the schedule does not already end with
one; it runs through the identical pipeline, so its gaps vanish exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .hjbgrid import (
    DEFAULT_LADDER,
    Grid1D,
    _hamiltonians,
    _Tables,
    estimate_ergodic,
    estimate_ergodic_policy,
    evaluate_policy_exit,
    evaluate_policy_finite_horizon,
    evaluate_policy_value,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
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


def _grid_models(true_spec: ModelSpec, sched: PerturbationSchedule) -> dict:
    seq = make_perturbation_sequence(true_spec, sched)
    return {float(d): m for d, m in zip(sched.magnitudes, seq)}


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
    """
    if criterion not in GRID_CRITERIA:
        raise ConfigError(f"unknown sweep criterion '{criterion}'", "criterion")
    models = _grid_models(true_spec, sched)

    if criterion == "discounted":
        sol_true = solve_discounted(true_spec, grid, tol=tol, max_iter=max_iter)

        def solve_one(m):
            s = solve_discounted(m, grid, tol=tol, max_iter=max_iter)
            j = evaluate_policy_value(true_spec, grid, s.policy, tol=tol).values
            return (
                float(np.max(np.abs(s.values - sol_true.values))),
                float(np.max(j - sol_true.values)),
                float(np.max(np.abs(j - s.values))),
                s.iterations,
            )

    elif criterion == "exit":
        sol_true = solve_exit(true_spec, grid, tol=tol, max_iter=max_iter)

        def solve_one(m):
            s = solve_exit(m, grid, tol=tol, max_iter=max_iter)
            j = evaluate_policy_exit(true_spec, grid, s.policy, tol=tol).values
            return (
                float(np.max(np.abs(s.values - sol_true.values))),
                float(np.max(j - sol_true.values)),
                float(np.max(np.abs(j - s.values))),
                s.iterations,
            )

    elif criterion == "finite-horizon":
        levels = n_t
        sol_true = solve_finite_horizon(true_spec, grid, n_t=levels, tol=tol)

        def solve_one(m):
            s = solve_finite_horizon(m, grid, n_t=levels, tol=tol)
            j = evaluate_policy_finite_horizon(true_spec, grid, s.policy, tol=tol).values
            return (
                float(np.max(np.abs(s.values - sol_true.values))),
                float(np.max(j[0] - sol_true.values[0])),
                float(np.max(np.abs(j[0] - s.values[0]))),
                s.iterations,
            )

    else:  # ergodic
        est_true = estimate_ergodic(true_spec, grid, ladder=ladder, tol=tol)
        # baseline through the same fixed-policy replay so the delta = 0 row
        # cancels exactly instead of carrying the extrapolation mismatch
        rho_base = estimate_ergodic_policy(true_spec, grid, est_true.policy, ladder=ladder, tol=tol)

        def solve_one(m):
            e = estimate_ergodic(m, grid, ladder=ladder, tol=tol)
            rho_replay = estimate_ergodic_policy(true_spec, grid, e.policy, ladder=ladder, tol=tol)
            return (
                abs(e.rho - est_true.rho),
                abs(rho_replay - rho_base),
                abs(rho_replay - e.rho),
                len(ladder),
            )

    rows = []
    for n, delta in enumerate(_schedule_deltas(sched)):
        model = models.get(delta, true_spec)
        value_gap, policy_loss, aux, iters = solve_one(model)
        rows.append(SweepRow(n, delta, value_gap, policy_loss, aux, solver_iters=iters))
    return SweepReport(criterion=criterion, rows=tuple(rows))


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
    models = _grid_models(true_spec, sched)
    with_beta = criterion == "exit"
    if criterion == "discounted":
        sol_true = solve_discounted(true_spec, grid, tol=tol, max_iter=max_iter)
    else:
        sol_true = solve_exit(true_spec, grid, tol=tol, max_iter=max_iter)

    rows = []
    for n, delta in enumerate(_schedule_deltas(sched)):
        model = models.get(delta, true_spec)
        if criterion == "discounted":
            sol_n = solve_discounted(model, grid, tol=tol, max_iter=max_iter)
        else:
            sol_n = solve_exit(model, grid, tol=tol, max_iter=max_iter)
        policy = _worst_eps_policy(_Tables(model, grid), sol_n.values, eps, with_beta)
        if criterion == "discounted":
            j = evaluate_policy_value(true_spec, grid, policy, tol=tol).values
        else:
            j = evaluate_policy_exit(true_spec, grid, policy, tol=tol).values
        gap = float(np.max(np.abs(j - sol_true.values)))
        rows.append(EpsRow(n, delta, gap, gap <= 3.0 * eps))

    threshold = None
    for k in range(len(rows)):
        if all(r.passed for r in rows[k:]):
            threshold = k
            break
    return EpsOptimalityReport(
        criterion=criterion, epsilon=float(eps), rows=tuple(rows), threshold_n=threshold
    )
