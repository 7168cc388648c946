"""Monte Carlo estimators for the four cost criteria.

Every estimator shares the same contract: paths are keyed by a global path
index under one seed, per-path totals are accumulated in path order, and the
final reduction is a fixed-topology pairwise sum, so the result is bit
identical no matter how paths are batched or scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapFractionWarning, ShapeError, UnboundedError
from .io import write_csv
from .model import FloatArray, ModelSpec, _whole
from .simulate import BatchStepper, _cap_steps, _check_step_budget, _n_steps_for, outside_interval

DEFAULT_BATCH = 16384
MAX_PATHS = 10**8  # most paths one estimate runs

ESTIMATE_HEADER = "criterion,x0,i0,value,stderr,paths,bias_bound,capped_fraction"


def pairwise_sum(values: FloatArray) -> float:
    """Sum with a fixed pairwise tree (padded to a power of two).

    The reduction topology depends only on the length, never on batching or
    scheduling, which is what makes estimator outputs byte-reproducible.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    n = 1
    while n < v.size:
        n *= 2
    if n != v.size:
        v = np.concatenate([v, np.zeros(n - v.size)])
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])


def _estimate(criterion: str, x0, i0, totals: FloatArray, **extra) -> McEstimate:
    """Sample mean and standard error of the per-path totals."""
    n = totals.size
    mean = pairwise_sum(totals) / n
    var = pairwise_sum((totals - mean) ** 2) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(max(var, 0.0) / n)
    return McEstimate(criterion, np.atleast_1d(np.asarray(x0, float)), int(i0), mean, stderr, n, **extra)


@dataclass(frozen=True)
class McEstimate:
    """Sample-mean estimate of one cost functional."""

    criterion: str
    x0: FloatArray
    i0: int
    value: float
    stderr: float
    paths: int
    truncation_bias_bound: float = 0.0
    capped_fraction: float = 0.0

    def csv_row(self):
        x0 = np.atleast_1d(self.x0)
        x0_cell = ";".join(format(v, ".17g") for v in x0) if x0.size > 1 else float(x0[0])
        return (
            self.criterion,
            x0_cell,
            self.i0,
            self.value,
            self.stderr,
            self.paths,
            self.truncation_bias_bound,
            self.capped_fraction,
        )


def write_estimates_csv(path, estimates) -> None:
    write_csv(path, ESTIMATE_HEADER, [e.csv_row() for e in estimates])


def _check_counts(n_paths: int, batch: int) -> tuple[int, int]:
    """n_paths and batch as ints; each must be a whole number >= 1 (10.0 is 10),
    and n_paths at most MAX_PATHS."""
    for v in (n_paths, batch):
        if not (_whole(v) and v >= 1):
            raise ShapeError(f"n_paths = {n_paths} and batch = {batch} must both be >= 1 and whole")
    if n_paths > MAX_PATHS:
        raise ShapeError(f"n_paths = {n_paths} is beyond the path bound {MAX_PATHS}")
    return int(n_paths), int(batch)


def _run_weighted(
    spec: ModelSpec,
    policy,
    x0,
    i0,
    dt: float,
    n_steps: int,
    seed: int,
    n_paths: int,
    weights: FloatArray,
    terminal=None,
    batch: int = DEFAULT_BATCH,
) -> FloatArray:
    """Per-path totals sum_k weights[k] * c(X_k, S_k, U_k) (+ terminal)."""
    n_paths, batch = _check_counts(n_paths, batch)
    totals = np.empty(n_paths)
    for start in range(0, n_paths, batch):
        m = min(batch, n_paths - start)
        eng = BatchStepper(spec, x0, i0, dt, seed, first_path_index=start, n_paths=m)
        acc = np.zeros(m)
        for k in range(n_steps):
            u = eng.actions(policy)
            w = weights[k]
            if w != 0.0:
                acc += w * eng.running_cost(u)
            eng.step(u)
        eng.check_finite()
        if terminal is not None:
            acc += terminal(eng.x, eng.s)
        totals[start : start + m] = acc
    return totals


def mc_finite_horizon(
    spec: ModelSpec, policy, x0, i0, T: float, dt: float, n_paths: int, seed: int,
    batch: int = DEFAULT_BATCH,
) -> McEstimate:
    """Mean of int_0^T c dt + c_T(X_T, S_T) over simulated paths."""
    n_steps = _n_steps_for(T, dt)
    weights = np.full(n_steps, dt)
    totals = _run_weighted(
        spec, policy, x0, i0, dt, n_steps, seed, n_paths, weights,
        terminal=spec.costs.terminal.eval_batch, batch=batch,
    )
    return _estimate("finite-horizon", x0, i0, totals)


def discounted_horizon(spec: ModelSpec, alpha: float, eps_tail: float) -> float:
    """Truncation horizon T_a with tail int_{T_a}^inf e^{-a t} M_c dt <= eps_tail;
    E_UNBOUNDED unless alpha and eps_tail are finite and > 0 and M_c is finite."""
    if not (0 < alpha < math.inf and 0 < eps_tail < math.inf):
        raise UnboundedError("discounted MC needs finite alpha > 0 and eps_tail > 0")
    m_c = spec.cost_bound()
    if not np.isfinite(m_c):
        raise UnboundedError("discounted MC needs a bounded running cost (M_c finite)")
    if m_c <= 0.0:
        return 0.0
    return math.log(m_c / (alpha * eps_tail)) / alpha


def mc_discounted(
    spec: ModelSpec, policy, x0, i0, alpha: float, dt: float, n_paths: int, seed: int,
    eps_tail: float = 1e-4, batch: int = DEFAULT_BATCH,
) -> McEstimate:
    """Discounted running cost, truncated where the tail is below eps_tail.

    Discounting is applied per step at the left endpoint, e^(-alpha t_k).
    The reported truncation_bias_bound is eps_tail itself.
    """
    t_alpha = discounted_horizon(spec, alpha, eps_tail)
    _check_step_budget(t_alpha, dt)
    n_steps = max(int(math.ceil(t_alpha / dt - 1e-12)), 0)
    weights = dt * np.exp(-alpha * dt * np.arange(n_steps))
    totals = _run_weighted(spec, policy, x0, i0, dt, n_steps, seed, n_paths, weights, batch=batch)
    return _estimate("discounted", x0, i0, totals, truncation_bias_bound=eps_tail)


def mc_ergodic(
    spec: ModelSpec, policy, x0, i0, t_long: float, dt: float, n_paths: int, seed: int,
    burn_in: float | None = None, batch: int = DEFAULT_BATCH,
) -> McEstimate:
    """Time-averaged running cost after a burn-in window (default 20%),
    which must leave at least one step."""
    if burn_in is None:
        burn_in = 0.2 * t_long
    if not 0.0 <= burn_in < t_long:
        raise UnboundedError("mc_ergodic needs 0 <= burn_in < t_long")
    n_steps = _n_steps_for(t_long, dt)
    k0 = int(math.ceil(burn_in / dt - 1e-9))
    if k0 >= n_steps:
        raise UnboundedError(f"burn_in = {burn_in} leaves no step of dt = {dt} before t_long = {t_long}")
    weights = np.zeros(n_steps)
    # normalize by the covered window so a constant cost is reproduced exactly
    weights[k0:] = 1.0 / (n_steps - k0)
    totals = _run_weighted(spec, policy, x0, i0, dt, n_steps, seed, n_paths, weights, batch=batch)
    return _estimate("ergodic", x0, i0, totals)


def mc_exit(
    spec: ModelSpec, policy, x0, i0, dt: float, n_paths: int, seed: int,
    t_cap: float, batch: int = DEFAULT_BATCH,
) -> McEstimate:
    """Discounted running cost up to the first grid exit, plus exit payoff.

    Per path: accumulate e^(-B_k) c dt with B_k = beta t_k, summed step by
    step, and add e^(-B_tau) h at the exit node. Paths still inside the
    domain at t_cap keep their accrued running cost, get no exit payoff, and
    are counted in capped_fraction; a fraction above 1% raises the cap warning.

    beta and h are constants, so the discount is one number per step, shared
    by every path. The running value is held per stepper row and compacted
    with the rows whenever ``BatchStepper.step`` compacts; a retired row's
    value was written once, at its exit.
    """
    n_paths, batch = _check_counts(n_paths, batch)
    n_cap = _cap_steps(t_cap, dt)
    domain, rate, h = spec.costs.exit_domain, spec.costs.exit_beta.constant, spec.costs.exit_h.constant

    values = np.zeros(n_paths)
    capped = np.zeros(n_paths, dtype=bool)
    for start in range(0, n_paths, batch):
        m = min(batch, n_paths - start)
        eng = BatchStepper(spec, x0, i0, dt, seed, first_path_index=start, n_paths=m)
        acc = np.zeros(m)
        log_disc = 0.0
        for k in range(n_cap + 1):
            disc = np.exp(-log_disc)
            out = outside_interval(eng.x, domain)
            out &= eng.alive
            if out.any():
                values[start + eng.original_index[out]] = acc[out] + disc * h
                eng.mark_dead(out)
            if eng.n_alive == 0:
                break
            if k == n_cap:
                orig = start + eng.original_index[eng.alive]
                capped[orig] = True
                values[orig] = acc[eng.alive]
                break
            u = eng.actions(policy)
            acc += disc * eng.running_cost(u) * dt
            log_disc += rate * dt
            keep = eng.step(u)
            if keep is not None:
                acc = acc[keep]
        eng.check_finite()

    frac = float(pairwise_sum(capped.astype(np.float64)) / n_paths)
    if frac > 0.01:
        warnings.warn(
            CapFractionWarning(f"{frac:.2%} of exit paths hit the time cap t_cap = {t_cap}"),
            stacklevel=2,
        )
    return _estimate("exit", x0, i0, values, capped_fraction=frac)
