"""Coupled Riccati systems for the switching linear-quadratic criterion.

The finite-horizon LQ value is x^T K(t, i) x with K solving the backward
coupled system

    -dK/dt (t,i) = C_i^T K_i C_i + A_i^T K_i + K_i A_i
                   - K_i B_i R_i^{-1} B_i^T K_i + Q_i + sum_j m_ij K_j,
    K(T, i) = P_i,

one matrix per regime, coupled through the switching rates. The optimal
feedback is u = -R^{-1} B^T K(t, i) x. Freezing a feedback F and dropping the
minimization gives the linear cost equation

    -dM/dt = (A - B F)^T M + M (A - B F) + C^T M C + Q + F^T R F + coupling,

whose solution evaluates that feedback exactly; the two trajectories agree
when F is the optimal gain.

Integration is classical fourth-order Runge-Kutta, backward from the
horizon, on z = [1, vech K_1, ..., vech K_N] (m = N d(d+1)/2 unknowns), so
iterates are symmetric by construction. The Riccati right side is the outer
product z^T z times one table G ((m+1)^2, m+1) per model, written once, in
_table_rhs, for the RK4, the Hermite half-step slopes and the defect; the
fixed-feedback one is z @ A_j with an (m+1) x (m+1) map per RK4 stage. The
core carries leading batch axes (a sweep integrates all its models at once)
and checks blow-up over blocks of BLOWUP_CHECK_STEPS stored iterates,
stopping within a block. LQSpec checks Q, P and R with the model's one
definiteness test, raising E_EIG: Q and P positive semidefinite, R positive
definite. No solve inverts P or K, so a P = 0 terminal weight is kept as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, EigError, ShapeError, StepError
from .model import (
    EIG_FLOOR, ActionGrid, BoundaryCost, CostSpec, DiffusionFamily, DriftFamily, ExitDiscount, FloatArray,
    GeneratorSpec, ModelSpec, RegimeSet, RunningCost, TerminalCost, _check_definite, _check_rates, _freeze, _whole,
)

BLOWUP_LIMIT = 1e12
BLOWUP_CHECK_STEPS = 64  # RK4 steps between two blow-up checks
COND_LIMIT = 1e12
MAX_RICCATI_STEPS = 10**7  # most steps a Riccati solve or an LQ sweep is asked for


@dataclass(frozen=True, eq=False)
class LQSpec:
    """Switching LQ problem data with a constant generator.

    All coefficient stacks are indexed by regime: A, C, Q, P are (N, d, d),
    B is (N, d, l), R is (N, l, l). Q and P must be positive semidefinite
    (least eigenvalue at least -EIG_FLOOR), R positive definite with a
    condition number at most COND_LIMIT, else E_EIG at ``lq.<name>``; rates
    follow the usual generator rules. Every array is kept as given.
    """

    dim: int
    n_regimes: int
    control_dim: int
    a: FloatArray
    b: FloatArray
    c: FloatArray
    q: FloatArray
    r: FloatArray
    p: FloatArray
    rates: FloatArray
    horizon: float

    def __post_init__(self):
        N, d, l = self.n_regimes, self.dim, self.control_dim
        shapes = dict(a=(N, d, d), b=(N, d, l), c=(N, d, d), q=(N, d, d), r=(N, l, l), p=(N, d, d),
                      rates=(N, N))
        for nm, shape in shapes.items():
            arr = np.asarray(getattr(self, nm), dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"'{nm}' has shape {arr.shape}, expected {shape}", f"lq.{nm}")
            object.__setattr__(self, nm, _freeze(arr))
        if not 0 < self.horizon < np.inf:
            raise ShapeError("horizon must be finite and > 0", "lq.horizon")
        _check_definite(self.q, "Q", -EIG_FLOOR, "semidefinite", "lq.q", error=EigError)
        _check_definite(self.p, "P", -EIG_FLOOR, "semidefinite", "lq.p", error=EigError)
        r_eigs = _check_definite(self.r, "R", EIG_FLOOR, "definite", "lq.r", error=EigError)
        if float(r_eigs.max() / r_eigs.min()) > COND_LIMIT:
            raise EigError("R is too ill-conditioned to invert reliably", "lq.r")
        _check_rates(self.rates, "lq.rates")

    def r_inv_bt(self) -> FloatArray:
        """Per-regime R^{-1} B^T, shape (N, l, d); R is checked definite above."""
        return np.linalg.solve(self.r, np.swapaxes(self.b, -1, -2))


def lq_from_model(spec: ModelSpec) -> LQSpec:
    """Extract the LQ problem from a model with lq families throughout.

    The Riccati equations have no affine drift term, so a nonzero lq drift
    offset b0 is E_CONFIG at ``model.drift.offset``. A zero terminal cost
    gives P = 0. A P or an R that LQSpec rejects is E_CONFIG at its model
    field, ``model.costs.terminal.p`` or ``model.costs.running.r``.
    """
    if spec.drift.kind != "lq" or spec.diffusion.kind != "lq":
        raise ShapeError("lq extraction needs drift and diffusion of kind 'lq'")
    if np.any(spec.drift.b0 != 0.0):
        raise ConfigError("the lq drift offset must be zero: the Riccati equations have no affine term",
                          "model.drift.offset")
    if spec.costs.running.kind != "lq":
        raise ShapeError("lq extraction needs a running cost of kind 'lq'")
    if spec.generator.kind != "constant":
        raise ShapeError("lq extraction needs a constant generator")
    tc = spec.costs.terminal
    N, d = spec.regimes.count, spec.dim
    if tc.kind == "quad":
        p = tc.p_mat
    elif tc.kind == "zero":
        p = np.zeros((N, d, d))
    else:
        raise ShapeError("lq extraction needs a 'quad' or 'zero' terminal cost")
    try:
        return LQSpec(
            dim=d, n_regimes=N, control_dim=spec.actions.action_dim, a=spec.drift.a_mat, b=spec.drift.b_mat,
            c=spec.diffusion.c_mat, q=spec.costs.running.q_mat, r=spec.costs.running.r_mat, p=p,
            rates=spec.generator.rates, horizon=spec.costs.horizon,
        )
    except (EigError, ShapeError) as exc:
        fields = {"lq.p": "model.costs.terminal.p", "lq.r": "model.costs.running.r"}
        if exc.path not in fields:
            raise
        raise ConfigError(exc.message, fields[exc.path]) from exc


def lq_model(lq: LQSpec) -> ModelSpec:
    """The all-lq model whose LQ data is ``lq``: lq_from_model returns every array of ``lq`` from it
    bit for bit. Its alpha (1) and exit data (zero on (-1, 1)) are placeholders no LQ solve reads."""
    N, d, l = lq.n_regimes, lq.dim, lq.control_dim
    return ModelSpec(
        dim=d, regimes=RegimeSet(N), actions=ActionGrid(np.zeros((1, l))),
        drift=DriftFamily("lq", d, N, l, a_mat=lq.a, b_mat=lq.b),
        diffusion=DiffusionFamily("lq", d, N, c_mat=lq.c),
        generator=GeneratorSpec("constant", N, rates=lq.rates),
        costs=CostSpec(
            running=RunningCost("lq", N, d, l, q_mat=lq.q, r_mat=lq.r), alpha=1.0,
            horizon=lq.horizon, terminal=TerminalCost("quad", N, d, p_mat=lq.p),
            exit_h=BoundaryCost("zero"), exit_beta=ExitDiscount("zero"), exit_domain=(-1.0, 1.0),
        ),
    )


def _interp(times: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Linear interpolation of values[k] (given at times[k]) at t, clamped to the grid.

    t may be a scalar or an array of times; the result carries t's shape in
    front of values' trailing axes.
    """
    t = np.minimum(np.maximum(t, times[0]), times[-1])
    # t >= times[0], so the right-sided search index is at least 1
    j = np.minimum(np.searchsorted(times, t, side="right"), len(times) - 1) - 1
    w = (t - times[j]) / (times[j + 1] - times[j])
    w = np.reshape(w, np.shape(w) + (1,) * (values.ndim - 1))
    lo = values[j] * (1.0 - w)
    lo += values[j + 1] * w
    return lo


@dataclass(frozen=True, eq=False)
class _TimeStack:
    """A (n_steps + 1, N, rows, cols) stack on an even time grid from 0 to T, frozen on construction;
    STACK names the stack's field, what its shape error calls it, and its trailing axes."""

    times: FloatArray  # (n_steps + 1,)

    def __post_init__(self):
        name, what, axes = self.STACK
        object.__setattr__(self, "times", _freeze(self.times))
        stack = _freeze(getattr(self, name))
        object.__setattr__(self, name, stack)
        if stack.ndim != 4 or stack.shape[0] != self.times.size:
            raise ShapeError(f"{what} has shape {stack.shape}, expected ({self.times.size}, {axes})")

    def rows(self):
        """The stack as flat (t, regime, row, col, value) tuples, regimes 1-based."""
        stack = getattr(self, self.STACK[0])
        for k, i, r, c in np.ndindex(stack.shape):
            yield (self.times[k], i + 1, r, c, stack[k, i, r, c])


@dataclass(frozen=True, eq=False)
class RiccatiTrajectory(_TimeStack):
    """Solution K(t_k, i) on an even time grid, t ascending from 0 to T."""

    STACK = ("k", "trajectory k", "N, d, d")
    k: FloatArray  # (n_steps + 1, N, d, d)

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.k - np.swapaxes(self.k, -1, -2))))

    def k_at(self, t: float) -> FloatArray:
        """Linear interpolation in t, shape (N, d, d)."""
        return _interp(self.times, self.k, float(t))


@dataclass(frozen=True, eq=False)
class FeedbackTrajectory(_TimeStack):
    """Gains F(t_k, i) = R^{-1} B^T K(t_k, i); control u = -F x."""

    STACK = ("gains", "gain grid", "N, l, d")
    gains: FloatArray  # (n_steps + 1, N, l, d)

    def gain_at(self, t: float) -> FloatArray:
        return _interp(self.times, self.gains, float(t))


def _vech(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(pos, pick) of the half-vectorized (N, d, d) stack: pos[i, p, q] = pos[i, q, p] is the
    place of K_i[p, q] in z, and pick the flat stack index of each of z[1:]."""
    pick = np.flatnonzero(np.broadcast_to(np.triu(np.ones((d, d), dtype=bool)), (n, d, d)))
    pos = np.zeros((n, d, d), dtype=np.intp)
    pos.flat[pick] = np.arange(1, pick.size + 1)
    return np.maximum(pos, pos.swapaxes(-1, -2)), pick


def _augment(k: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """z = [1, vech of the symmetric part of k] as a row, shape (..., 1, m+1), for k (..., N, d, d)."""
    v = (0.5 * (k + k.swapaxes(-1, -2))).reshape(*k.shape[:-3], -1)[..., pick]
    return np.concatenate([np.ones((*v.shape[:-1], 1)), v], axis=-1)[..., None, :]


def _riccati_table(lqs) -> tuple[np.ndarray, ...]:
    """(G, pos, pick, basis) of models on a leading axis. Row (a, b) of G (models, (m+1)^2, m+1)
    weighs z_a z_b in g, dK/dt = -g(K): vech Q at (0, 0), vech(A^T E + E A + C^T E C + sum_j m_ij E_j)
    at (0, 1+a), -vech(E S E') at (1+a, 1+b); E = basis[a], E' = basis[b], S = B R^{-1} B^T."""
    a, c, q = (np.stack([getattr(lq, nm) for lq in lqs])[:, None] for nm in "acq")
    s = np.stack([lq.b @ lq.r_inv_bt() for lq in lqs])[:, None, None]
    pos, pick = _vech(a.shape[-3], a.shape[-1])
    m = pick.size
    e = (pos == np.arange(1, m + 1)[:, None, None, None]).astype(np.float64)
    ea = e @ a
    lin = ea + ea.swapaxes(-1, -2) + c.swapaxes(-1, -2) @ e @ c
    lin += np.einsum("bij,mjpq->bmipq", np.stack([lq.rates for lq in lqs]), e)
    g = np.zeros((len(lqs), m + 1, m + 1, m + 1))
    g[:, 0, 0, 1:] = q.reshape(len(lqs), -1)[:, pick]
    g[:, 0, 1:, 1:] = lin.reshape(len(lqs), m, -1)[..., pick]
    g[:, 1:, 1:, 1:] = -(e[:, None] @ s @ e).reshape(len(lqs), m, m, -1)[..., pick]
    return g.reshape(len(lqs), -1, m + 1), pos, pick, e


def _table_rhs(g: np.ndarray, lead: tuple):
    """rhs(j, z) = g(K) = -dK/dt, the one Riccati right side, at half-vectorized rows
    z of shape (*lead, 1, m+1): the outer product z^T z, flattened to (*lead, (m+1)^2),
    times the table G (..., (m+1)^2, m+1)."""
    flat = (*lead, -1)
    return lambda _j, z: (z.swapaxes(-1, -2) * z).reshape(flat) @ g


def _integrate_backward(rhs, terminal: np.ndarray, horizon: float, n_steps: int) -> np.ndarray:
    """RK4 for dy/dt = -rhs(j, y) from t = T down to 0, nodes at k*T/n.

    rhs receives the stage time as its index j on the half-step grid
    t_j = j*T/(2n) and a state shaped like terminal, whose leading axes are
    batch axes; the solvers pass the half-vectorized z, so no step needs
    re-symmetrizing. The stored nodes below the terminal are checked in
    blocks of BLOWUP_CHECK_STEPS, each as soon as it is complete: the first
    node going backward with an entry that is not finite or exceeds
    BLOWUP_LIMIT in size raises BlowupError.
    """
    h = horizon / n_steps
    half, sixth = 0.5 * h, h / 6.0
    traj = np.empty((n_steps + 1, *terminal.shape))
    traj[n_steps] = k = terminal
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(n_steps - 1, -1, -1):  # the step from node lo + 1 down to node lo
            j = 2 * lo + 2
            k1 = rhs(j, k)
            k2 = rhs(j - 1, k + half * k1)
            k3 = rhs(j - 1, k + half * k2)
            k4 = rhs(j - 2, k + h * k3)
            traj[lo] = k = k + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if lo % BLOWUP_CHECK_STEPS == 0:
                # nodes lo up to the next block or the terminal; per node, NaN-safe:
                # max <= limit and min >= -limit hold iff every |entry| <= limit
                nodes = traj[lo:min(lo + BLOWUP_CHECK_STEPS, n_steps)].reshape(-1, k.size)
                ok = (nodes.max(axis=1) <= BLOWUP_LIMIT) & (nodes.min(axis=1) >= -BLOWUP_LIMIT)
                if not ok.all():
                    bad = lo + np.flatnonzero(~ok)[-1]
                    raise BlowupError(f"Riccati iterate exceeded {BLOWUP_LIMIT:.0e} at t = {bad * h:.6g}")
    return traj


def _solve_z(lqs, n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, G, pos) of models sharing one horizon, z (n_steps + 1, len(lqs), m+1) from one RK4."""
    g, pos, pick, _ = _riccati_table(lqs)
    terminal = _augment(np.stack([lq.p for lq in lqs]), pick)
    traj = _integrate_backward(_table_rhs(g, terminal.shape[:-1]), terminal, lqs[0].horizon, n_steps)
    return traj[..., 0, :], g, pos


def _stage_stack(lqs, n_steps: int) -> np.ndarray:
    """K at the 2 n_steps + 1 RK4 stage times t_j = j*T/(2 n_steps): (2 n_steps + 1, len(lqs), N, d, d).

    One n_steps RK4 gives the even stages. Between nodes k and k+1 the cubic
    Hermite interpolant on the equation's own slopes zdot = -g(z) gives
    z_{k+1/2} = (z_k + z_{k+1})/2 + (h/8)(zdot_k - zdot_{k+1}), fourth order
    like the RK4 itself. Each model's slopes at a span of nodes are one
    matmul with its table; the span is half a check block, so the (m+1)^2
    outer products take a quarter of the memory of the replay's stage maps.
    """
    z, g, pos = _solve_z(lqs, n_steps)
    eighth = lqs[0].horizon / n_steps / 8.0
    span = BLOWUP_CHECK_STEPS // 2
    k = np.empty((2 * n_steps + 1, *z.shape[1:-1], *pos.shape))
    for lo in range(0, n_steps, span):
        hi = min(lo + span, n_steps)  # node hi is also the next span's first
        nodes = z[lo:hi + 1]
        zt = np.ascontiguousarray(nodes.swapaxes(0, 1))  # (models, nodes, m+1)
        gz = _table_rhs(g, zt.shape[:-1])(None, zt[..., None, :]).swapaxes(0, 1)
        k[2 * lo:2 * hi + 1:2] = nodes[..., pos]
        k[2 * lo + 1:2 * hi:2] = (0.5 * (nodes[:-1] + nodes[1:]) + eighth * (gz[1:] - gz[:-1]))[..., pos]
    return k


def _check_steps(n_steps, least: int = 1) -> int:
    """n_steps as an int if whole (100.0 is 100), at least ``least`` and at most MAX_RICCATI_STEPS,
    else E_STEP."""
    if not _whole(n_steps):
        raise StepError(f"Riccati solves need a whole number of steps, got {n_steps!r}")
    if n_steps < least:
        raise StepError(f"this Riccati solve needs n_steps >= {least}, got {n_steps!r}")
    if n_steps > MAX_RICCATI_STEPS:
        raise StepError(f"{n_steps} Riccati steps is beyond the step bound {MAX_RICCATI_STEPS}")
    return int(n_steps)


def solve_coupled_riccati(lq: LQSpec, n_steps: int = 400) -> RiccatiTrajectory:
    """Integrate the coupled system backward from K(T) = P.

    Classical RK4 with an even grid of n_steps intervals on [0, T]; the
    stored trajectory is exactly symmetric. Escapes to E_BLOWUP if any entry
    passes 1e12 and to E_EIG if R cannot be factored. A step count that is
    not whole, below 8 or above MAX_RICCATI_STEPS is E_STEP.
    """
    n_steps = _check_steps(n_steps, 8)
    z, _, pos = _solve_z([lq], n_steps)
    return RiccatiTrajectory(times=np.linspace(0.0, lq.horizon, n_steps + 1), k=z[:, 0, pos])


def lq_feedback(traj: RiccatiTrajectory, lq: LQSpec) -> FeedbackTrajectory:
    """Optimal gains F(t, i) = R^{-1} B^T K(t, i) on the trajectory grid."""
    return FeedbackTrajectory(times=traj.times, gains=lq.r_inv_bt() @ traj.k)


def _feedback_cost_stack(lq: LQSpec, stage_gains: np.ndarray, n_steps: int) -> np.ndarray:
    """Fixed-feedback cost of a stack of gain grids under one LQ model.

    stage_gains (2 n_steps + 1, ..., N, l, d) holds the gains at the RK4
    stage times t_j = j*T/(2 n_steps); the axes between time and regime are
    batch axes, and the result is (n_steps + 1, ..., N, d, d). Stage j's map
    is the Riccati table's linear rows, plus B F times the basis of
    -(BF)^T M - M BF, plus vech F^T R F in row 0, built a check block at a time.
    """
    if stage_gains.shape[0] != 2 * n_steps + 1:
        raise ShapeError(f"need gains at {2 * n_steps + 1} stage times, got {stage_gains.shape[0]}")
    g, pos, pick, e = _riccati_table([lq])
    m1 = pick.size + 1
    u = np.eye(pos.size).reshape(-1, 1, *pos.shape).swapaxes(-1, -2) @ e  # (BF)^T E, BF one unit entry
    basis = np.zeros((pos.size, m1 * m1))
    basis.reshape(-1, m1, m1)[:, 1:, 1:] = -(u + u.swapaxes(-1, -2)).reshape(*u.shape[:2], -1)[..., pick]
    span = 2 * BLOWUP_CHECK_STEPS  # stage indices per check block of steps
    lo, maps = 2 * n_steps + 1, None

    def rhs(j, z):
        nonlocal lo, maps
        if j < lo:  # the maps of the stages from j down to the start of j's check block
            lo, maps = span * ((j - 1) // span), None  # the last block's maps go first
            f = stage_gains[lo:j + 1]
            maps = ((lq.b @ f).reshape(-1, pos.size) @ basis).reshape(*f.shape[:-3], m1, m1)
            maps += g[0, :m1]
            maps[..., 0, 1:] += (f.swapaxes(-1, -2) @ lq.r @ f).reshape(*f.shape[:-3], -1)[..., pick]
        return z @ maps[j - lo]

    terminal = np.broadcast_to(_augment(lq.p, pick), (*stage_gains.shape[1:-3], 1, m1))
    z = _integrate_backward(rhs, terminal, lq.horizon, n_steps)
    maps = None  # the last block's maps go before the expansion
    return z[..., 0, pos]


def fixed_feedback_cost(lq: LQSpec, feedback: FeedbackTrajectory, n_steps: int = 400) -> RiccatiTrajectory:
    """Cost of the linear policy u = -F(t, i) x under the LQ data.

    Solves the backward linear equation with the minimization replaced by the
    frozen gain; the result M(t, i) gives the policy cost x^T M x. Gains are
    interpolated linearly to the RK4 stage times, all at once before the
    run, so passing a feedback grid at twice the resolution of the cost grid
    makes the stage lookups exact. A step count that is not whole, below 1
    or above MAX_RICCATI_STEPS is E_STEP.
    """
    n_steps = _check_steps(n_steps)
    stage_times = np.linspace(0.0, lq.horizon, 2 * n_steps + 1)
    table = _interp(feedback.times, feedback.gains, stage_times)
    m = _feedback_cost_stack(lq, table[:, None], n_steps)
    return RiccatiTrajectory(times=stage_times[::2], k=m[:, 0])


def riccati_defect(traj: RiccatiTrajectory, lq: LQSpec) -> float:
    """Max residual of the equation under a central time difference.

    For each interior node, compares (K_{k+1} - K_{k-1}) / (2 dt) against
    -g(K_k) on the symmetric parts, entry by entry in vech coordinates, all
    nodes in one matmul with the table; the result decays like dt^2 for the
    exact solution.
    """
    if len(traj.times) < 3:
        raise ShapeError("defect needs at least 3 time nodes")
    g, _, pick, _ = _riccati_table([lq])
    z = _augment(traj.k, pick)[:, 0]
    zdot = (z[2:] - z[:-2]) / (2.0 * (traj.times[1] - traj.times[0]))
    return float(np.max(np.abs(zdot + _table_rhs(g[0], zdot.shape[:-1])(None, z[1:-1, None, :]))))


def a_priori_bound(lq: LQSpec) -> float:
    """Growth bound max_i ||K(t, i)|| <= C0 * exp(k0 T) * (T + 1).

    C0 collects the data norms max_i(||Q_i|| + ||P_i||) and k0 the linear
    growth rate max_i(2 ||A_i|| + ||C_i||^2), all in the spectral norm.
    """
    nrm = lambda m: float(np.linalg.norm(m, ord=2))
    c0 = max(nrm(lq.q[i]) + nrm(lq.p[i]) for i in range(lq.n_regimes))
    k0 = max(2.0 * nrm(lq.a[i]) + nrm(lq.c[i]) ** 2 for i in range(lq.n_regimes))
    return c0 * np.exp(k0 * lq.horizon) * (lq.horizon + 1.0)
