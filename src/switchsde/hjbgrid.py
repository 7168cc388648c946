"""Finite-difference solvers for the weakly coupled HJB systems (d = 1).

Spatial discretization on a uniform node grid: central differences for the
second-order term a V'' with a = sigma^2 / 2, fully upwind first differences
for b V' (direction chosen per candidate action), so every assembled row is
an M-matrix row for every action. Ends are reflecting (zero outward
derivative, one-sided second difference) except for the exit problem, whose
boundary rows are Dirichlet. The exit problem is the discounted one at the
model's constant exit rate beta in place of alpha, on the model's exit
domain, with both ends pinned to its constant exit cost h.

Every policy evaluation is one exact linear solve. With the unknowns ordered
node-major (row k N + i for node k and regime i), the matrix zeta - L_a - M_a
of a fixed action table couples each row to its two spatial neighbours N
rows away and to the other regimes of its node, so it is banded with N sub-
and N super-diagonals and one LAPACK dgbsv call solves it. The matrix is a
weakly chained diagonally dominant M-matrix, so policy iteration is Howard's
algorithm with exact evaluation (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009). Minimization over actions is an exhaustive scan of the
ActionGrid in list order; ties keep the lowest index.

The ergodic criterion runs the same Howard loop with zeta = 0, each
evaluation one banded solve for the average cost and a relative value.

A stationary criterion ("discounted", "exit" or "ergodic") is dispatched
in one place: ``_evaluate`` is its fixed-policy solve (every Howard step,
the public evaluators, the sweeps' replay), ``_residual`` its HJB defect
and ``_stationary`` its checked Howard solve. The finite horizon has one
backward level scheme, ``_backward``, which its solve, its fixed-policy
evaluation and its sweep consume. The public functions apply
their ``alpha`` and ``horizon`` arguments to the model's costs, so the
code below them reads both from the models only.

The solvers work on stacks of models sharing one grid (``_Tables``): the
stacked system is block diagonal, so one banded solve per Howard iteration
or time level serves every model still iterating, and each model keeps its
own stopping test. A stack's tables are built in one pass: each distinct
family object is evaluated once and written to every block holding it,
and the rows of a sweep share the true model's unshifted families, so
those are evaluated once per stack. The public functions solve the
one-model stack; the robustness sweeps stack a whole perturbation
schedule, solving the true model first and the rest from its policy (a
warm start), so their values and policies equal solves of each model
alone while their iteration counts do not.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateError,
    MaxIterError,
    SchemeError,
    ShapeError,
    StepError,
    SwitchSdeError,
    UnboundedError,
)
from .io import write_csv
from .model import FloatArray, ModelSpec, _check_dim_1, _check_policy_table, _freeze, _whole

GRID_HEADER = "criterion,regime,x,value,action_index"
GRID_HEADER_T = "criterion,regime,x,value,action_index,t"
MAX_NODES = 10**6  # most nodes a grid's arrays are made for


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform 1-D node grid over a closed interval.

    ``n_x`` is a whole number of at least 11 nodes; a whole-valued real is
    kept as its int. The nodes, and every table on them, are made only for
    ``n_x <= MAX_NODES``: ``nodes`` checks that before allocating (E_SHAPE).
    """

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        n_x = self.n_x
        if not _whole(n_x):
            raise ShapeError(f"grid needs a whole number n_x of nodes, got {n_x!r}")
        if n_x < 11:
            raise ShapeError("grid needs at least 11 nodes")
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ShapeError("grid interval must be finite, with x_min < x_max")
        object.__setattr__(self, "n_x", int(n_x))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def nodes(self) -> FloatArray:
        if self.n_x > MAX_NODES:
            raise ShapeError(f"grid of n_x = {self.n_x} nodes is beyond the node bound {MAX_NODES}")
        return np.linspace(self.x_min, self.x_max, self.n_x)


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Values and extracted policy of one grid solve.

    For stationary criteria ``values`` is (N, n_x) and ``policy`` holds one
    action index per (regime, node). The finite-horizon solve stacks time
    levels: values (n_t + 1, N, n_x) with the terminal level last, policy
    (n_t, N, n_x) where level j acts on [t_j, t_{j+1}), and ``t_levels``
    carries the level times. ``iterations`` counts policy evaluations (1
    for a fixed policy, n_t for the finite-horizon levels). An ergodic solve
    carries the average cost ``rho``; its values are relative values.
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
    rho: float | None = None

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


class _Tables:
    """Coefficient tables of a stack of B models on one grid.

    A stack is solved as one system whose values are (regime, block, node)
    arrays, block b holding ``specs[b]``. Every block's first node has
    sub = 0 and its last node sup = 0, so nothing couples two blocks: the
    node-major system of the stack is block diagonal with the band of one
    model, and one model is the one-block stack. ``labels`` names the
    blocks in error messages.

    Tables are (action, regime, block, node[, regime]), one slice per
    block, and ``terminal`` (regime, block, node) holds the terminal cost
    c_T. ``alpha``, ``beta`` and ``h`` (block,) are each model's discount,
    exit discount and exit cost, which are constants of the model. The
    stack is built in one pass (``_node_tables``):
    each distinct family object is evaluated once on the grid's nodes and
    written to every block that holds it, so the rows of a sweep, which
    share the true model's unshifted families, pay for those once. The
    upwind arithmetic and every check then run once over the stack, and a
    failing check raises for the first failing block, with its label.
    ``take`` cuts a sub-stack out of built tables, copying each slice it
    names, so a block may repeat (a sweep's replay stacks copies of the
    true model's slice).

    sub and sup are the off-diagonals of the drift-diffusion operator L
    (excluding regime coupling), whose diagonal is -(sub + sup) so that L
    annihilates constants; they are nonnegative for every action, which is
    the M-matrix property the maximum principle rests on.
    rates[a, i, b, k, j] is m_ij at node k under action a, diagonal
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
        for b, spec in enumerate(self.specs):
            try:
                _check_dim_1(spec)
            except ShapeError as err:
                if b:  # an earlier block's failing check comes first
                    _Tables(self.specs[:b], grid, self.labels[:b])
                raise self._error(b, err) from None
        tables, failure = _node_tables(self.specs, grid)
        if failure is not None:
            raise self._error(*failure)
        self._index(tables)

    def _error(self, b: int, err: SwitchSdeError) -> SwitchSdeError:
        """``err`` naming block b by its label, when the stack has labels."""
        return type(err)(f"{err.message} ({self.labels[b]})", err.path) if self.labels else err

    def _index(self, tables: list) -> None:
        # C order, so that gather's flat view and take copy no table
        tables = list(map(np.ascontiguousarray, tables))
        self.c, self.sub, self.sup, self.rates, self.terminal, self.alpha, self.beta, self.h = tables
        A, N, B, K = self.c.shape
        self.shape = (N, B, K)
        # flat index of (action 0, regime, block, node) in an (A, N, B, K)
        # table; action a adds a * N B K
        i, b, k = np.arange(N)[:, None, None], np.arange(B)[:, None], np.arange(K)
        self._base = (i * B + b) * K + k
        self._stride = N * B * K

    def take(self, blocks) -> _Tables:
        """The sub-stack of the given blocks, labels kept, its tables copied
        out of this stack's."""
        sub = object.__new__(_Tables)
        sub.specs = tuple(self.specs[b] for b in blocks)
        sub.grid = self.grid
        sub.labels = tuple(self.labels[b] for b in blocks) if self.labels else ()
        sub._index([t.take(blocks, axis=2) for t in (self.c, self.sub, self.sup, self.rates)]
                   + [self.terminal.take(blocks, axis=1)]
                   + [t.take(blocks) for t in (self.alpha, self.beta, self.h)])
        return sub

    def gather(self, table: np.ndarray, ai_tab: np.ndarray) -> FloatArray:
        """Per-node entries of an (A, N, B, K, ...) table under an (N, B, K) action table."""
        flat = table.reshape(-1, *table.shape[4:])
        return flat.take(ai_tab * self._stride + self._base, axis=0)


def _per_family(specs, family, axis: int, evaluate) -> FloatArray:
    """``evaluate(f)`` for each block's family ``f = family(spec)``, stacked on
    a block axis inserted at ``axis``. Each distinct family object is
    evaluated once and written to every block that holds it (families
    compare by identity)."""
    blocks: dict = {}
    for b, spec in enumerate(specs):
        blocks.setdefault(family(spec), []).append(b)
    out, lead = None, (slice(None),) * axis
    for fam, rows in blocks.items():
        # C order, so that each copy below moves whole contiguous rows
        value = np.ascontiguousarray(evaluate(fam), dtype=np.float64)[(*lead, None)]
        if len(rows) == len(specs):  # one family for the whole stack, as in a one-model stack
            return value.repeat(len(specs), axis=axis)
        if out is None:
            out = np.empty((*value.shape[:axis], len(specs), *value.shape[axis + 1:]))
        out[(*lead, rows)] = value
    return out


def _node_tables(specs, grid: Grid1D) -> tuple:
    """The tables (c, sub, sup, rates, terminal) and the per-block constants
    (alpha, beta, h) of a stack of 1-D models sharing regimes and actions,
    and its first failing check as (block, error), or None.

    The checks, in the order a block meets them: a > 0, a bounded running
    cost, finite tables and beta, nonnegative upwind terms.
    """
    K, N = grid.n_x, specs[0].regimes.count
    actions = specs[0].actions
    A = actions.actions.shape[0]
    dx = grid.dx
    nodes = grid.nodes

    # one batch row per (action, regime, node), in that order; the first
    # N K rows are the (regime, node) batch
    xs = np.tile(nodes, A * N)[:, None]
    s = np.tile(np.repeat(np.arange(N), K), A)
    u = np.repeat(actions.actions, N * K, axis=0)
    xs1, s1 = xs[: N * K], s[: N * K]
    per = functools.partial(_per_family, specs)
    a = per(lambda m: m.diffusion, 1, lambda f: f.a_batch(xs1, s1)[:, 0, 0].reshape(N, K))
    b = per(lambda m: m.drift, 2, lambda f: f.eval_batch(xs, s, u)[:, 0].reshape(A, N, K))
    c = per(lambda m: m.costs.running, 2, lambda f: f.eval_batch(xs, s, u).reshape(A, N, K))
    rates = per(lambda m: m.generator, 2, lambda f: f.rates_batch(
        np.tile(nodes, A)[:, None], np.repeat(actions.actions, K, axis=0)
    ).reshape(A, K, N, N).transpose(0, 2, 1, 3))
    terminal = per(lambda m: m.costs.terminal, 1, lambda f: f.eval_batch(xs1, s1).reshape(N, K))
    # the actions are equal across the stack, so each running cost has one bound
    bound = per(lambda m: m.costs.running, 0, lambda f: f.bound(actions))
    alpha = np.array([m.costs.alpha for m in specs])
    beta = np.array([m.costs.exit_beta.constant for m in specs])
    h = np.array([m.costs.exit_h.constant for m in specs])

    diffusion = a[None] / dx**2
    sub = diffusion + np.maximum(-b, 0.0) / dx
    sup = diffusion + np.maximum(b, 0.0) / dx
    # reflecting ends: one-sided second difference, outward drift dropped
    sub[..., 0] = 0.0
    sup[..., -1] = 0.0
    # each check's error and pass mask, its block axis at 2
    checks = (
        (DegenerateError, "grid solvers need a = sigma^2 / 2 > 0 at every node", a[None] > 0.0),
        (UnboundedError, "grid solvers need a bounded running cost", np.isfinite(bound)[None, None]),
        *(
            (SchemeError, f"coefficient table '{name}' is not finite on the grid", np.isfinite(table))
            for name, table in (("sub", sub), ("sup", sup), ("c", c), ("beta", beta[None, None]),
                                ("rates", rates))
        ),
        (SchemeError, "upwind coefficients must be nonnegative", (sub >= 0.0) & (sup >= 0.0)),
    )
    failure = None
    if not all(ok.all() for *_, ok in checks):
        passed = np.array([ok.all(axis=tuple(i for i in range(ok.ndim) if i != 2)) for *_, ok in checks])
        block = int(np.argmin(passed.all(axis=0)))
        kind, message, _ = checks[int(np.argmin(passed[:, block]))]
        failure = block, kind(message)
    return [c, sub, sup, rates, terminal, alpha, beta, h], failure


def _hamiltonians(tab: _Tables, v: FloatArray) -> FloatArray:
    """Per-action pre-minimization values L_a v + M_a v + c_a, (A, N, B, K)."""
    out = -(tab.sub + tab.sup) * v
    out[..., 1:] += tab.sub[..., 1:] * v[..., :-1]
    out[..., :-1] += tab.sup[..., :-1] * v[..., 1:]
    # the regime coupling sum_j m_ij v_j, one multiply-add per regime j in
    # increasing j from 0.0, the order of einsum's sum, so bit for bit its value
    coupling = tab.rates[..., 0] * v[0]
    coupling += 0.0  # 0.0 + (-0.0) is 0.0, as einsum's sum starts
    for j in range(1, v.shape[0]):
        coupling += tab.rates[..., j] * v[j]
    out += coupling
    out += tab.c
    return out


def _solve_policy(
    tab: _Tables,
    ai_tab: np.ndarray,
    rhs: FloatArray,
    zeta,
    ends: FloatArray | None = None,
    pin: tuple | None = None,
) -> FloatArray:
    """Solve (zeta - L - M) v = rhs for one stacked action table by one banded LU.

    zeta is the zeroth-order coefficient (alpha, beta or 1/dt), a scalar or
    one per block (B, 1); rhs is (N, B, K), or (N, B, K, C) for C right
    sides. ``ends`` (B, 1) turns each block's two end nodes into Dirichlet
    rows pinned to the block's value: identity rows scaled by a power of two
    no smaller than the one other entry of their column, so partial
    pivoting keeps them in place and the pin is exact. ``pin`` =
    (node, regimes) replaces the column of block b's unknown at that node
    and regime ``regimes[b]`` by the unit vector (see ``_average_cost``).

    Row r = k N + i of the node-major system holds stacked node k (block
    and node), regime i. LAPACK's column-major band storage puts entry
    (r, c) at band row 2N + r - c of column c, below N rows of workspace
    for the LU's fill-in. Each diagonal of the system (regime coupling,
    upwind neighbours) is then a regular stride of that storage and is
    written through one strided view; N padding columns on each side take
    the neighbour entries that fall outside the matrix. The solve is
    LAPACK's dgbsv, loaded on the first call by ``_dgbsv``.
    """
    dgbsv = _dgbsv()
    N, B, K = ai_tab.shape
    n = B * K
    sub = tab.gather(tab.sub, ai_tab)
    sup = tab.gather(tab.sup, ai_tab)
    rates = tab.gather(tab.rates, ai_tab)  # (N, B, K, N): row regime, block, node, column regime
    center = zeta + (sub + sup)
    b = rhs
    if ends is not None:
        inner = np.stack([sub[:, :, 1], sup[:, :, -2]], axis=-1)
        scale = np.ldexp(1.0, np.frexp(np.maximum(inner, 1.0))[1])
        for arr in (sub, sup, rates):
            arr[:, :, [0, -1]] = 0.0
        center[:, :, [0, -1]] = scale
        b = rhs.copy()
        b[:, :, [0, -1]] = scale * ends

    width = 3 * N + 1
    store = np.zeros((n * N + 2 * N) * width)

    def diagonal(offset, shape, strides):
        # entry (r, c) lives at store[(c + N) * width + 2N + r - c]
        size = store.itemsize
        return np.ndarray(
            shape, store.dtype, store, (N * width + offset) * size, [size * st for st in strides]
        )

    node = (K * N * width, N * width)  # strides of (block, node) along the diagonal
    diagonal(2 * N, (B, K, N, N), (*node, 1, width - 1))[...] = -rates.transpose(1, 2, 0, 3)
    diagonal(2 * N, (B, K, N), (*node, width))[...] += center.transpose(1, 2, 0)
    diagonal(N * width + N, (B, K, N), (*node, width))[...] = -sup.transpose(1, 2, 0)
    diagonal(3 * N - N * width, (B, K, N), (*node, width))[...] = -sub.transpose(1, 2, 0)
    band = store.reshape(-1, width)
    if pin is not None:
        k_pin, regimes = pin
        columns = N + (np.arange(B) * K + k_pin) * N + regimes
        band[columns, N:] = 0.0
        band[columns, 2 * N] = 1.0
    _, _, v, info = dgbsv(
        N, N, band[N:N + n * N].T, b.reshape(N, B, K, -1).transpose(1, 2, 0, 3).reshape(n * N, -1),
        overwrite_ab=True, overwrite_b=True,
    )
    if info != 0:
        raise SchemeError(f"banded LU of the policy system failed (LAPACK dgbsv info {info})")
    return np.ascontiguousarray(np.moveaxis(v.reshape(B, K, N, *rhs.shape[3:]), 2, 0))


@functools.cache
def _dgbsv():
    """LAPACK dgbsv from scipy's compiled extension ``scipy.linalg._flapack``.

    The extension is loaded straight from its file, so the ``scipy.linalg``
    package, whose import costs several times a grid command's own work,
    never runs. The module is registered under its own name: a later
    ``import scipy.linalg`` reuses it, and one already imported is used.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("the grid solvers need scipy, which is not installed", name="scipy")
        where = os.path.join(scipy.submodule_search_locations[0], "linalg")
        loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(where, loaders).find_spec(name)
        if spec is None:
            raise ImportError(f"scipy has no LAPACK extension {name} in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name].dgbsv


def _pinned_regimes(tab: _Tables, rates: FloatArray) -> np.ndarray:
    """Per block, the lowest regime every regime reaches under a policy's rates (N, B, K, N).

    All nodes of a regime communicate (a > 0), so those regimes form the
    one closed class of a unichain policy, whose states are recurrent. A
    multichain policy has no such regime: DegenerateError.
    """
    N = rates.shape[0]
    step = np.any(rates > 0.0, axis=2).transpose(1, 0, 2) | np.eye(N, dtype=bool)  # (B, N, N)
    recurrent = np.all(np.linalg.matrix_power(step, N), axis=1)  # reached from every regime
    unichain = recurrent.any(axis=1)
    if not unichain.all():
        where = f" ({tab.labels[np.argmin(unichain)]})" if tab.labels else ""
        raise DegenerateError(f"ergodic policy is multichain: several closed regime classes{where}")
    return np.argmax(recurrent, axis=1)


def _policy_free_pin(tab: _Tables) -> np.ndarray | None:
    """``_pinned_regimes`` of every policy at once when no action moves a rate
    across zero (as with any constant generator), else None."""
    positive = tab.rates > 0.0
    if not np.all(positive == positive[:1]):
        return None
    return _pinned_regimes(tab, tab.gather(tab.rates, np.zeros(tab.shape, dtype=np.int64)))


def _average_cost(tab: _Tables, policy: np.ndarray, k_ref: int, regimes: np.ndarray | None) -> tuple:
    """Exact relative value h (N, B, K) and average cost rho (B,) of an action table.

    Solves (L + M) h + c = rho, h = 0 at an unknown p of node k_ref in a
    recurrent regime (else singular): with p's column of -(L + M) replaced
    by e_p, the right sides c and 1 give y1 and y2, and rho = y1[p] / y2[p],
    h = y1 - rho y2 off p (Puterman, Markov Decision Processes, 1994, ch. 8).
    ``regimes`` gives the recurrent regimes when they are known.
    """
    if regimes is None:
        regimes = _pinned_regimes(tab, tab.gather(tab.rates, policy))
    rhs = np.stack([tab.gather(tab.c, policy), np.ones(tab.shape)], axis=-1)
    y = _solve_policy(tab, policy, rhs, 0.0, pin=(k_ref, regimes))
    blocks = np.arange(tab.shape[1])
    rho = y[regimes, blocks, k_ref, 0] / y[regimes, blocks, k_ref, 1]
    h = y[..., 0] - rho[:, None] * y[..., 1]
    h[regimes, blocks, k_ref] = 0.0  # p's own unknown carried rho's scale, not h
    return h, rho


def _pin(tab: _Tables, criterion: str):
    """What every evaluation of one solve under a stationary criterion shares:
    each block's zeroth-order rate zeta (B, 1), alpha (discounted) or beta
    (exit), or the average cost's pinned node and regimes (None when the
    regimes depend on the policy). The exit problem's domain is the grid's
    interval, so one that is not ``costs.exit_domain`` is E_CONFIG at ``grid``.
    """
    if criterion == "ergodic":
        return _reference_node(tab.grid), _policy_free_pin(tab)
    interval = (tab.grid.x_min, tab.grid.x_max)
    domain = next((m.costs.exit_domain for m in tab.specs if m.costs.exit_domain != interval), None)
    if criterion == "exit" and domain is not None:
        raise ConfigError(f"exit solve needs the grid interval {interval} to be costs.exit_domain {domain}", "grid")
    return (tab.alpha if criterion == "discounted" else tab.beta)[:, None]


def _evaluate(tab: _Tables, criterion: str, policy: np.ndarray, pin=None) -> tuple:
    """Values (N, B, K) and rho (B,) of an action table under a stationary criterion.

    One banded solve: (zeta - L - M) v = c with zeta from ``_pin`` and, for
    exit, the end rows pinned to h; or the pinned average-cost solve (ergodic;
    the values are relative values h). rho is 0 except for the ergodic
    criterion. ``pin`` is the solve's ``_pin``, computed when not given.
    """
    if pin is None:
        pin = _pin(tab, criterion)
    if criterion == "ergodic":
        return _average_cost(tab, policy, *pin)
    ends = tab.h[:, None] if criterion == "exit" else None
    return _solve_policy(tab, policy, tab.gather(tab.c, policy), pin, ends), np.zeros(tab.shape[1])


def _residual(criterion: str, ham: FloatArray, v: FloatArray, rho: FloatArray, pin) -> FloatArray:
    """Per-block sup-norm HJB defect |ham - zeta v| (|ham - rho| if ergodic) of
    Hamiltonian values ham (N, B, K) at (v, rho); the exit problem's
    Dirichlet ends hold exactly and are left out."""
    defect = np.abs(ham - (rho[:, None] if criterion == "ergodic" else pin * v))
    return np.max(defect[..., 1:-1] if criterion == "exit" else defect, axis=(0, 2))


def _howard(
    tab: _Tables, criterion: str, v: FloatArray, tol: float, max_iter: int,
    policy: np.ndarray | None = None,
) -> tuple[FloatArray, np.ndarray, list, np.ndarray]:
    """Howard's policy iteration from v: exact evaluation, exhaustive improvement.

    Each evaluation is one ``_evaluate`` of the stationary criterion; for
    the ergodic criterion the values are h. The first policy improves on v,
    unless ``policy`` gives a warm start; either way the first value change
    is measured from v.

    Each block stops on its own test: when its improved policy repeats, so
    its last evaluation is exact for the returned policy, or when the
    sup-norm change of its values and rho drops below tol. A stopped block
    keeps that iteration's results, as a solve of its model alone from the
    same start would, and leaves the stack: later evaluations solve the
    live blocks only. Returns (values, policy, per-block residual
    histories, per-block rho).

    The discounted and exit iterates never increase, because each
    evaluation matrix has a nonnegative inverse. The residual history
    carries no such guarantee: it can rise from one iteration to the next.
    """
    if policy is None:
        policy = np.argmin(_hamiltonians(tab, v), axis=0)
    out_v, out_policy = np.empty_like(v), np.empty_like(policy)
    B = len(tab.specs)
    rho, out_rho = np.zeros(B), np.zeros(B)
    histories = [[] for _ in range(B)]
    live, live_tab = np.arange(B), tab
    pin = _pin(tab, criterion)
    for _ in range(max_iter):
        v_new, rho_new = _evaluate(live_tab, criterion, policy, pin)
        ham = _hamiltonians(live_tab, v_new)
        res = _residual(criterion, np.min(ham, axis=0), v_new, rho_new, pin)
        change = np.maximum(np.max(np.abs(v_new - v), axis=(0, 2)), np.abs(rho_new - rho))
        v, rho, previous = v_new, rho_new, policy
        policy = np.argmin(ham, axis=0)
        for b, r in zip(live, res):
            histories[b].append(float(r))
        stop = (change < tol) | np.all(policy == previous, axis=(0, 2))
        done = live[stop]
        out_v[:, done] = v[:, stop]
        out_policy[:, done] = policy[:, stop]
        out_rho[done] = rho[stop]
        if stop.all():
            return out_v, out_policy, histories, out_rho
        if stop.any():
            keep = ~stop
            live, v, policy, rho = live[keep], v[:, keep], policy[:, keep], rho[keep]
            live_tab = tab.take(live)
            pin = _pin(live_tab, criterion)
    where = f" ({tab.labels[live[0]]})" if tab.labels else ""
    raise MaxIterError(f"policy iteration did not converge in {max_iter} iterations{where}")


def _stationary(
    tab: _Tables, criterion: str, tol: float, max_iter: int, start: np.ndarray | None = None,
) -> list:
    """One stacked Howard solve of a stationary criterion, one GridSolution per block.

    ``start`` is an optional (N, B, K) first policy. The discrete maximum
    principle is checked: 0 <= V <= M_c / alpha (discounted), 0 <= rho <=
    M_c (ergodic). Ergodic values are h shifted to vanish at the reference
    node of regime 1. A max_iter that is not a whole number >= 1 is
    E_CONFIG at ``max_iter``.
    """
    if not (_whole(max_iter) and max_iter >= 1):
        raise ConfigError(f"max_iter must be a whole number >= 1, got {max_iter!r}", "max_iter")
    max_iter = int(max_iter)
    v = np.zeros(tab.shape)
    if criterion == "exit":
        v[..., [0, -1]] = tab.h[:, None]
    v, policy, histories, rho = _howard(tab, criterion, v, tol, max_iter, policy=start)
    k_ref = _reference_node(tab.grid)
    sols = []
    for vb, pb, history, r, spec in zip(_blocks(v), _blocks(policy), histories, rho, tab.specs):
        extra = {}
        if criterion == "discounted":
            alpha = spec.costs.alpha
            if not (np.all(vb >= -1e-9) and np.all(vb <= spec.cost_bound() / alpha + 1e-9)):
                raise SchemeError("discounted solution violates the maximum principle bound")
            extra = {"alpha": alpha}
        elif criterion == "ergodic":
            if not -1e-9 <= r <= spec.cost_bound() + 1e-9:
                raise SchemeError("ergodic solution violates the bound 0 <= rho <= M_c")
            vb, extra = vb - vb[0, k_ref], {"rho": float(r)}
        sols.append(GridSolution(
            criterion=criterion, grid=tab.grid, values=vb, policy=pb, iterations=len(history),
            residual=history[-1], residual_history=tuple(history), **extra,
        ))
    return sols


def _fixed_policy(spec: ModelSpec, grid: Grid1D, criterion: str, policy: np.ndarray) -> GridSolution:
    """Values of a fixed (N, K) action table under the discounted or exit criterion."""
    tab = _Tables([spec], grid)
    policy = _action_table(tab, policy)
    pin = _pin(tab, criterion)
    v, rho = _evaluate(tab, criterion, policy, pin)
    ham = np.take_along_axis(_hamiltonians(tab, v), policy[None], axis=0)[0]
    return GridSolution(
        criterion=f"{criterion}-policy", grid=grid, values=v[:, 0], policy=policy[:, 0], iterations=1,
        residual=float(_residual(criterion, ham, v, rho, pin)[0]),
        alpha=spec.costs.alpha if criterion == "discounted" else None,
    )


def _with_costs(spec: ModelSpec, **given) -> ModelSpec:
    """The model with the given cost constants (alpha, horizon) replaced where
    not None; CostSpec checks them (> 0, E_SHAPE at costs.<name>)."""
    given = {name: float(value) for name, value in given.items() if value is not None}
    return replace(spec, costs=replace(spec.costs, **given)) if given else spec


def _action_table(tab: _Tables, policy: np.ndarray, ndim: int = 2) -> np.ndarray:
    """Checked int64 copy of a one-model policy table whose trailing axes are
    (N, K), with the block axis inserted: (..., N, 1, K)."""
    return _check_policy_table(policy, tab.specs[0], tab.grid.n_x, ndim)[..., None, :]


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
    return _stationary(_Tables([_with_costs(spec, alpha=alpha)], grid), "discounted", tol, max_iter)[0]


def evaluate_policy_value(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, alpha: float | None = None,
) -> GridSolution:
    """Discounted value of a fixed action table (one exact coupled solve)."""
    return _fixed_policy(_with_costs(spec, alpha=alpha), grid, "discounted", policy)


def solve_exit(spec: ModelSpec, grid: Grid1D, tol: float = 1e-8, max_iter: int = 100) -> GridSolution:
    """Policy iteration for min_a [L_a V + M_a V + c_a] = beta V on O, V = h on its ends.

    The discounted solve at the model's constant exit rate beta, with the
    two boundary rows Dirichlet rows pinning V to the constant exit cost h
    exactly. The grid interval must be the model's ``costs.exit_domain``,
    else E_CONFIG at ``grid``. Stopping and MaxIterError as in
    solve_discounted.
    """
    return _stationary(_Tables([spec], grid), "exit", tol, max_iter)[0]


def evaluate_policy_exit(spec: ModelSpec, grid: Grid1D, policy: np.ndarray) -> GridSolution:
    """Exit cost of a fixed action table (one exact coupled Dirichlet solve)."""
    return _fixed_policy(spec, grid, "exit", policy)


def _time_levels(tab: _Tables, n_t: int | None) -> tuple:
    """(T, n_t, dt) of a finite-horizon solve over the stack's one horizon (schedules
    never perturb it); checks the step."""
    horizons = {spec.costs.horizon for spec in tab.specs}
    if len(horizons) != 1:
        raise ShapeError("stacked models need one costs.horizon")
    T = horizons.pop()
    if n_t is None:
        n_t = max(int(np.ceil(T / 0.05)), 10)
    if not (_whole(n_t) and n_t >= 1):
        raise StepError(f"finite-horizon solve needs a whole number n_t >= 1 of time levels, got {n_t}")
    n_t = int(n_t)
    dt = T / n_t
    if dt > 0.1 + 1e-12:
        raise StepError(f"finite-horizon time step {dt:.4g} exceeds 0.1; raise n_t")
    return T, n_t, dt


def _step_back(tab: _Tables, policy: np.ndarray, v_next: FloatArray, dt: float) -> FloatArray:
    """One backward level: solve (1/dt - L - M) v = c + v_next / dt under policy."""
    return _solve_policy(tab, policy, tab.gather(tab.c, policy) + v_next / dt, 1.0 / dt)


def _backward(tab: _Tables, v: FloatArray, n_t: int, dt: float, policy: np.ndarray | None = None):
    """The backward level scheme of a stack from its terminal level v = c_T.

    Level j, for j = n_t - 1 down to 0, acts with ``policy[j]`` from an
    (n_t, N, B, K) table when one is given, else with the argmin of the
    Hamiltonians at level j + 1 (the explicit choice), and solves its
    level system exactly by one ``_step_back``. Yields (policy_j, v_j,
    Hamiltonians H_a(v_j)) level by level, keeping only the current level;
    the Hamiltonians are the ones the next level chooses from.
    """
    ham = _hamiltonians(tab, v)
    for j in range(n_t - 1, -1, -1):
        pol = np.argmin(ham, axis=0) if policy is None else policy[j]
        v = _step_back(tab, pol, v, dt)
        ham = _hamiltonians(tab, v)
        yield pol, v, ham


def _finite_horizon(tab: _Tables, n_t: int | None, policy: np.ndarray | None = None) -> list:
    """Every level of the stack's backward scheme, one GridSolution per block
    with its largest level defect as the residual; ``policy`` is a checked
    (n_t, N, B, K) table or None.

    A level's defect is its fully implicit HJB defect max |(v_{j+1} - v_j)/dt
    + H(v_j)|, H being min_a H_a under the scheme's own choice and
    H_{policy[j]} under a given table.
    """
    T, n_t, dt = _time_levels(tab, n_t)
    levels, values, defects = [], [tab.terminal], []
    for pol, v, ham in _backward(tab, values[0], n_t, dt, policy):
        h = np.min(ham, axis=0) if policy is None else np.take_along_axis(ham, pol[None], axis=0)[0]
        defects.append(np.max(np.abs((values[-1] - v) / dt + h), axis=(0, 2)))
        levels.append(pol)
        values.append(v)
    values, levels = np.stack(values[::-1]), np.stack(levels[::-1])
    return [
        GridSolution(
            criterion="finite-horizon" if policy is None else "finite-horizon-policy", grid=tab.grid,
            values=vb, policy=pb, iterations=n_t, residual=float(r), horizon=T,
            t_levels=np.linspace(0.0, T, n_t + 1),
        )
        for vb, pb, r in zip(_blocks(values), _blocks(levels), np.max(defects, axis=0))
    ]


def solve_finite_horizon(
    spec: ModelSpec, grid: Grid1D, horizon: float | None = None, n_t: int | None = None,
) -> GridSolution:
    """Backward semi-implicit scheme for the finite-horizon system.

    At each level the minimizing action is chosen explicitly from the next
    level's values, then the coupled linear system for the new level is
    solved exactly; the terminal level equals c_T exactly. Needs the time
    step at or below 0.1 for the frozen-policy accuracy to hold. The
    residual is the largest fully implicit HJB defect over the levels,
    max |(v_{j+1} - v_j)/dt + min_a H_a(v_j)|, which is first order in dt
    (the level's own linear system holds to roundoff at its chosen action).
    """
    return _finite_horizon(_Tables([_with_costs(spec, horizon=horizon)], grid), n_t)[0]


def evaluate_policy_finite_horizon(
    spec: ModelSpec, grid: Grid1D, policy: np.ndarray, horizon: float | None = None,
) -> GridSolution:
    """Finite-horizon cost of a fixed time-indexed action table, one level per time step.

    The residual is the largest defect of the level equations,
    max |(v_{j+1} - v_j)/dt + H_{policy[j]}(v_j)|, which the exact level
    solves hold to roundoff.
    """
    tab = _Tables([_with_costs(spec, horizon=horizon)], grid)
    policy = _action_table(tab, policy, ndim=3)
    return _finite_horizon(tab, policy.shape[0], policy)[0]


def _reference_node(grid: Grid1D) -> int:
    return int(np.argmin(np.abs(grid.nodes)))


def estimate_ergodic(
    spec: ModelSpec, grid: Grid1D, tol: float = 1e-8, max_iter: int = 100,
) -> GridSolution:
    """Average-cost policy iteration for min_a [L_a h + M_a h + c_a] = rho.

    Unichain Howard (Puterman 1994, ch. 8-9): each evaluation is one exact
    pinned solve for (rho, h); stopping and MaxIterError as in
    solve_discounted, and 0 <= rho <= M_c is checked. A multichain policy
    raises DegenerateError. h is shifted to vanish at the reference node of
    regime 1.
    """
    return _stationary(_Tables([spec], grid), "ergodic", tol, max_iter)[0]


def estimate_ergodic_policy(spec: ModelSpec, grid: Grid1D, policy: np.ndarray) -> float:
    """Long-run average cost of a fixed action table (one pinned banded solve)."""
    tab = _Tables([spec], grid)
    return float(_evaluate(tab, "ergodic", _action_table(tab, policy))[1][0])
