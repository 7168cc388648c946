"""Properties of the grid solvers on generated 1-D models.

Each example draws a model with 1-3 regimes, 1-3 actions, a positive
constant diffusion, action-dependent saturated drift, state- and
action-dependent switching rates and a clamped quadratic cost. The checks
are the ones the monotone scheme guarantees for every such model: the
banded solve equals a dense solve of an independently assembled matrix,
the maximum and comparison principles, replaying the optimal policy
reproduces the optimal value, Howard's iterates never increase, each
block of a stacked solve equals the solve of its model alone, a warm
start changes the iteration count but not the answer, and the discounted
values approach the average cost as alpha vanishes. A stacked table build
over any generated model and schedule equals a row-by-row build bit for
bit, and fails, where it fails, on the same row with the same error.
"""

import dataclasses
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchsde import (
    ActionGrid,
    BoundaryCost,
    CostSpec,
    DegenerateError,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    Grid1D,
    ModelSpec,
    RegimeSet,
    RunningCost,
    SchemeError,
    ShapeError,
    SwitchSdeError,
    TerminalCost,
    UnboundedError,
    estimate_ergodic,
    evaluate_policy_exit,
    evaluate_policy_value,
    hjbgrid,
    robustness,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
)
from switchsde.hjbgrid import (
    _finite_horizon,
    _hamiltonians,
    _howard,
    _lowest_attaining,
    _stationary,
    _Tables,
)
from switchsde.model import DIRECTIONS, PerturbationSchedule, make_perturbation_sequence
from test_model import models

CRITERIA = {
    "discounted": (solve_discounted, evaluate_policy_value),
    "exit": (solve_exit, evaluate_policy_exit),
}


def _cost(n, weight, cap, action_weight, offset):
    return RunningCost(
        "quad-clamped", n, 1, 1, weight=weight, cap=cap, action_weight=action_weight,
        offset=offset,
    )


def _model(seed: int, n: int, n_actions: int) -> ModelSpec:
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    gx, gu = rng.uniform(-0.5, 0.5, size=2)
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(n),
        actions=ActionGrid(rng.uniform(-1.0, 1.0, size=(n_actions, 1))),
        drift=DriftFamily(
            "saturated-affine", 1, n, 1,
            a_mat=rng.uniform(-1.0, 1.0, size=(n, 1, 1)),
            b_mat=rng.uniform(-1.0, 1.0, size=(n, 1, 1)),
            b0=rng.uniform(-0.5, 0.5, size=(n, 1)),
            saturation=float(rng.uniform(0.5, 2.0)),
        ),
        diffusion=DiffusionFamily("constant", 1, n, c0=rng.uniform(0.3, 1.5, size=(n, 1, 1))),
        generator=GeneratorSpec("state-action-dependent", n, base=base, gx=gx, gu=gu),
        costs=CostSpec(
            running=_cost(n, *rng.uniform(0.1, 2.0, size=2), *rng.uniform(0.0, 1.0, size=2)),
            alpha=float(rng.uniform(0.2, 2.0)),
            horizon=1.0,
            terminal=TerminalCost("zero", n, 1),
            exit_h=BoundaryCost("constant", value=float(rng.uniform(0.0, 1.0))),
            exit_beta=ExitDiscount("constant", value=float(rng.uniform(0.1, 1.0))),
            exit_domain=(-2.0, 2.0),
        ),
    )


def _dense_solve(spec: ModelSpec, grid: Grid1D, policy: np.ndarray, criterion: str) -> np.ndarray:
    """Dense regime-major assembly of (zeta - L - M) v = c, one row at a time."""
    N, K = policy.shape
    dx, xs = grid.dx, grid.nodes
    exit_ = criterion == "exit"
    mat = np.zeros((N * K, N * K))
    rhs = np.zeros(N * K)
    for i in range(N):
        for k in range(K):
            r = i * K + k
            x, s = np.array([[xs[k]]]), np.array([i])
            u = spec.actions.actions[policy[i, k]][None]
            if exit_ and k in (0, K - 1):
                mat[r, r] = 1.0
                rhs[r] = spec.costs.exit_h.constant
                continue
            a = spec.diffusion.a_batch(x, s)[0, 0, 0]
            b = spec.drift.eval_batch(x, s, u)[0, 0]
            rates = spec.generator.rates_batch(x, u)[0]
            # upwind drift; reflecting ends drop the outward neighbour
            lo = 0.0 if k == 0 else a / dx**2 + max(-b, 0.0) / dx
            hi = 0.0 if k == K - 1 else a / dx**2 + max(b, 0.0) / dx
            zeta = spec.costs.exit_beta.constant if exit_ else spec.costs.alpha
            mat[r, r] = zeta + lo + hi - rates[i, i]
            if k > 0:
                mat[r, r - 1] = -lo
            if k < K - 1:
                mat[r, r + 1] = -hi
            for j in range(N):
                if j != i:
                    mat[r, j * K + k] = -rates[i, j]
            rhs[r] = spec.costs.running.eval_batch(x, s, u)[0]
    return np.linalg.solve(mat, rhs).reshape(N, K)


def _upper_bound(spec: ModelSpec, criterion: str) -> float:
    m_c = spec.cost_bound()
    if criterion == "discounted":
        return m_c / spec.costs.alpha
    # at an interior maximum L V + M V <= 0, so beta V <= c; else V = h there
    return max(spec.costs.exit_h.value, m_c / spec.costs.exit_beta.value)


def _howard_iterates(spec: ModelSpec, grid: Grid1D, criterion: str) -> list:
    """Values of each policy evaluation of Howard's algorithm, step by step.

    Stops like the solvers: when the improved policy repeats or the value
    change drops below their default tol.
    """
    exit_ = criterion == "exit"
    evaluate = CRITERIA[criterion][1]
    tab = _Tables([spec], grid)
    v = np.zeros(tab.shape)  # (regime, block, node) with one block
    if exit_:
        v[..., [0, -1]] = spec.costs.exit_h.constant
    policy = np.argmin(_hamiltonians(tab, v), axis=0)[:, 0]
    iterates = [v[:, 0]]
    while True:
        iterates.append(evaluate(spec, grid, policy).values)
        improved = np.argmin(_hamiltonians(tab, iterates[-1][:, None]), axis=0)[:, 0]
        if np.array_equal(improved, policy) or np.abs(iterates[-1] - iterates[-2]).max() < 1e-8:
            return iterates[1:]
        policy = improved


MODELS = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), n_x=st.integers(11, 41),
    n_actions=st.integers(1, 3), criterion=st.sampled_from(sorted(CRITERIA)),
)


@settings(max_examples=60, deadline=None)
@given(**MODELS)
def test_banded_solve_matches_dense_assembly(seed, n, n_x, n_actions, criterion):
    spec = _model(seed, n, n_actions)
    grid = Grid1D(-2.0, 2.0, n_x)
    policy = np.random.default_rng(seed + 1).integers(0, n_actions, size=(n, n_x))
    got = CRITERIA[criterion][1](spec, grid, policy)
    want = _dense_solve(spec, grid, policy, criterion)
    assert got.iterations == 1
    np.testing.assert_allclose(got.values, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(**MODELS)
def test_optimal_values_obey_scheme_invariants(seed, n, n_x, n_actions, criterion):
    spec = _model(seed, n, n_actions)
    grid = Grid1D(-2.0, 2.0, n_x)
    solve, evaluate = CRITERIA[criterion]
    sol = solve(spec, grid)
    v = sol.values
    scale = 1e-12 * max(1.0, np.abs(v).max())

    # maximum principle
    assert v.min() >= -scale
    assert v.max() <= _upper_bound(spec, criterion) + scale

    # replaying the optimal policy reproduces the optimal value
    replay = evaluate(spec, grid, sol.policy)
    np.testing.assert_allclose(replay.values, v, rtol=0.0, atol=scale)

    # Howard's iterates never increase and end at the solver's values
    iterates = _howard_iterates(spec, grid, criterion)
    assert len(iterates) == sol.iterations
    for before, after in zip(iterates, iterates[1:]):
        assert np.all(after <= before + scale)
    np.testing.assert_array_equal(iterates[-1], v)

    # comparison: a pointwise larger running cost gives a larger value
    c = spec.costs.running
    larger = dataclasses.replace(
        spec,
        costs=dataclasses.replace(
            spec.costs,
            running=_cost(n, 1.5 * c.weight, 2.0 * c.cap, c.action_weight + 0.1, c.offset + 0.05),
        ),
    )
    assert np.all(solve(larger, grid).values >= v - scale)


def test_residual_history_may_rise_while_iterates_fall():
    # a generated model on which the HJB residual of the second iterate
    # exceeds the first; the iterates themselves still decrease
    spec, grid = _model(711006391, 3, 3), Grid1D(-2.0, 2.0, 35)
    hist = solve_discounted(spec, grid).residual_history
    assert hist[1] > hist[0]
    iterates = _howard_iterates(spec, grid, "discounted")
    assert all(np.all(b <= a + 1e-12) for a, b in zip(iterates, iterates[1:]))


def _stack(seeds, n, n_actions):
    """Generated models sharing their regimes, actions and discount."""
    first = _model(seeds[0], n, n_actions)
    specs = []
    for seed in seeds:
        spec = _model(seed, n, n_actions)
        costs = dataclasses.replace(spec.costs, alpha=first.costs.alpha)
        specs.append(dataclasses.replace(spec, actions=first.actions, costs=costs))
    return specs


STACKS = dict(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), n=st.integers(1, 3),
    n_x=st.integers(11, 41), n_actions=st.integers(1, 3),
)


@settings(max_examples=40, deadline=None)
@given(**STACKS)
def test_stacked_blocks_equal_standalone_solves(seeds, n, n_x, n_actions):
    # a stack shares its regimes, actions and discount; everything else differs
    specs = _stack(seeds, n, n_actions)
    grid = Grid1D(-2.0, 2.0, n_x)
    tab = _Tables(specs, grid)
    for stacked, solve in (
        (_stationary(tab, "discounted", 1e-8, 100), solve_discounted),
        (_stationary(tab, "exit", 1e-8, 100), solve_exit),
        (_finite_horizon(tab, 20), lambda spec, grid: solve_finite_horizon(spec, grid, n_t=20)),
        (_stationary(tab, "ergodic", 1e-8, 100), estimate_ergodic),
    ):
        assert len(stacked) == len(specs)
        for spec, got in zip(specs, stacked):
            want = solve(spec, grid)
            for field in dataclasses.fields(want):
                if field.name != "grid":
                    np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))


def _howard_run(tab: _Tables, criterion: str, tol: float, start=None) -> tuple:
    """(values, policy, rho) of one stacked Howard solve, cold or from ``start``."""
    v = np.zeros(tab.shape)
    if criterion == "exit":
        v[..., [0, -1]] = tab.h[:, None]
    out = _howard(tab, criterion, v, tol, 100, policy=start)
    return out[0], out[1], out[3]


@settings(max_examples=40, deadline=None)
@given(start_seed=st.integers(0, 2**32 - 1), criterion=st.sampled_from(["discounted", "exit", "ergodic"]),
       **STACKS)
def test_warm_start_changes_only_the_iteration_count(seeds, n, n_x, n_actions, start_seed, criterion):
    tab = _Tables(_stack(seeds, n, n_actions), Grid1D(-2.0, 2.0, n_x))
    start = np.random.default_rng(start_seed).integers(0, n_actions, size=tab.shape)
    # tol 0: every block stops on a repeated policy, whose last evaluation
    # is exact, so cold and warm end on one policy and the same bits
    cold, warm = _howard_run(tab, criterion, 0.0), _howard_run(tab, criterion, 0.0, start)
    for got, want in zip(warm, cold):
        np.testing.assert_array_equal(got, want)
    # at tol 1e-8 a block may stop on a small value change instead
    tol = 1e-8
    cold, warm = _howard_run(tab, criterion, tol), _howard_run(tab, criterion, tol, start)
    np.testing.assert_allclose(warm[0], cold[0], rtol=0.0, atol=tol)
    np.testing.assert_allclose(warm[2], cold[2], rtol=0.0, atol=tol)


def test_warm_sweep_makes_fewer_block_solves(monkeypatch, saturated):
    # criterion 9's discounted sweep at 401 nodes has 12 blocks. Cold, their
    # Howard solves need 61 block-solves, but all 12 stayed in the band for
    # 6 iterations (72), and the replay adds 12: 84 in all
    solved = []
    solve = hjbgrid._solve_policy

    def counting(tab, ai_tab, *args, **kwargs):
        solved.append(ai_tab.shape[1])
        return solve(tab, ai_tab, *args, **kwargs)

    monkeypatch.setattr(hjbgrid, "_solve_policy", counting)
    sched = PerturbationSchedule("coefficient", 10, d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3))
    rep = robustness.sweep_grid(saturated, sched, "discounted", Grid1D(-2.0, 2.0, 401), tol=1e-8)
    assert rep.rows[-1].solver_iters == 5  # the true model alone, cold
    assert sum(solved) <= 32


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), n_x=st.integers(11, 41),
       n_actions=st.integers(1, 3))
def test_vanishing_discount_approaches_the_average_cost(seed, n, n_x, n_actions):
    # with u = rho / alpha + h, alpha u = min_a (L_a u + M_a u + c_a) + alpha h,
    # so u - max h and u - min h are sub- and supersolutions of the
    # discounted scheme and comparison gives |alpha V_alpha - rho| <= alpha span(h)
    spec = _model(seed, n, n_actions)
    grid = Grid1D(-2.0, 2.0, n_x)
    est = estimate_ergodic(spec, grid)
    span = np.ptp(est.values)
    for alpha in (0.2, 0.1, 0.05, 0.025):
        v = solve_discounted(spec, grid, alpha=alpha).values
        assert np.abs(alpha * v - est.rho).max() <= alpha * span + 1e-9


# ---------------------------------------------------------------------------
# the stacked table build against a row-by-row build


def _rowwise_node_tables(spec: ModelSpec, grid: Grid1D) -> tuple:
    """(c, sub, sup, rates, terminal costs) and the constants (alpha, beta, h)
    of one model, each family evaluated for this model alone and every
    check run on its own tables, in the order a block meets them."""
    if spec.dim != 1:
        raise ShapeError("grid solvers support dim 1 only")
    K, N = grid.n_x, spec.regimes.count
    acts = spec.actions.actions
    A = acts.shape[0]
    dx, nodes = grid.dx, grid.nodes
    xs = np.tile(nodes, A * N)[:, None]
    s = np.tile(np.repeat(np.arange(N), K), A)
    u = np.repeat(acts, N * K, axis=0)
    a = spec.diffusion.a_batch(xs[: N * K], s[: N * K])[:, 0, 0].reshape(N, K)
    b = spec.drift.eval_batch(xs, s, u)[:, 0].reshape(A, N, K)
    c = spec.costs.running.eval_batch(xs, s, u).reshape(A, N, K)
    beta = spec.costs.exit_beta.constant
    rates = spec.generator.rates_batch(np.tile(nodes, A)[:, None], np.repeat(acts, K, axis=0))
    rates = rates.reshape(A, K, N, N).transpose(0, 2, 1, 3)
    if not np.all(a > 0.0):
        raise DegenerateError("grid solvers need a = sigma^2 / 2 > 0 at every node")
    if not np.isfinite(spec.cost_bound()):
        raise UnboundedError("grid solvers need a bounded running cost")
    sub = a[None] / dx**2 + np.maximum(-b, 0.0) / dx
    sup = a[None] / dx**2 + np.maximum(b, 0.0) / dx
    sub[:, :, 0] = 0.0
    sup[:, :, -1] = 0.0
    for name, table in (("sub", sub), ("sup", sup), ("c", c), ("beta", beta), ("rates", rates)):
        if not np.all(np.isfinite(table)):
            raise SchemeError(f"coefficient table '{name}' is not finite on the grid")
    if not (np.all(sub >= 0.0) and np.all(sup >= 0.0)):
        raise SchemeError("upwind coefficients must be nonnegative")
    terminal = spec.costs.terminal.eval_batch(np.tile(nodes, N)[:, None], np.repeat(np.arange(N), K))
    return c, sub, sup, rates, terminal.reshape(N, K), spec.costs.alpha, beta, spec.costs.exit_h.constant


def _bits(a) -> tuple:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _directions(spec: ModelSpec, mode: str, rng) -> dict:
    """Random nonnegative directions for every key ``mode`` applies to the
    model's family kinds; nonnegative keeps shifted rates and costs valid."""
    out = {}
    for key, direction in DIRECTIONS.items():
        fam = attrgetter(direction.family.PATH)(spec)
        if mode not in direction.modes or fam.kind not in direction.keys:
            continue
        if mode == "noise-approx":
            shape = (spec.diffusion.wiener_dim,) * (1 if key == "hat_b" else 2)
        else:
            attr = next(f.attr for f in fam.FIELDS[fam.kind] if f.key == direction.keys[fam.kind])
            shape = np.shape(getattr(fam, attr))
        out[key] = rng.uniform(0.0, 1.0, shape)
    return out


@pytest.mark.parametrize("mode", PerturbationSchedule.MODES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_tables_equal_a_rowwise_build(mode, data):
    # the noise-approx pair acts through a constant diffusion on a drift with an offset
    pinned = ()
    if mode == "noise-approx":
        drift = data.draw(st.sampled_from(["constant", "lq", "saturated-affine"]))
        pinned = (("diffusion", "constant"), ("drift", drift))
    spec = data.draw(models(pinned=pinned))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sched = PerturbationSchedule(mode, data.draw(st.integers(0, 3)), **_directions(spec, mode, rng))
    grid = Grid1D(*spec.costs.exit_domain, data.draw(st.integers(11, 31)))
    rows = make_perturbation_sequence(spec, sched)
    deltas = list(sched.magnitudes) + [0.0]  # and the appended control row, the true model
    rows.append(spec)
    labels = [f"schedule row n = {n}, delta = {d:g}" for n, d in enumerate(deltas)]

    want = []
    for row, label in zip(rows, labels):
        try:
            want.append(_rowwise_node_tables(row, grid))
        except SwitchSdeError as err:
            event(f"row {len(want)} of {len(rows)} fails: {err.code}")
            with pytest.raises(type(err)) as got:
                robustness._grid_stack(spec, sched, grid)
            assert (str(got.value), got.value.path) == (f"{err.code}: {err.message} ({label})", err.path)
            return
    event("every row builds")
    _, tab = robustness._grid_stack(spec, sched, grid)
    assert tab.labels == tuple(labels)
    for b, tables in enumerate(want):
        node = (tab.c, tab.sub, tab.sup, tab.rates)
        got = [t[:, :, b] for t in node] + [tab.terminal[:, b], tab.alpha[b], tab.beta[b], tab.h[b]]
        assert [_bits(g) for g in got] == [_bits(w) for w in tables]


def _einsum_hamiltonians(tab: _Tables, v: np.ndarray) -> np.ndarray:
    """The Hamiltonians with the regime coupling summed by one einsum."""
    out = -(tab.sub + tab.sup) * v
    out[..., 1:] += tab.sub[..., 1:] * v[..., :-1]
    out[..., :-1] += tab.sup[..., :-1] * v[..., 1:]
    out += np.einsum("ai...j,j...->ai...", tab.rates, v)
    out += tab.c
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonians_equal_the_einsum_sum_bit_for_bit(n):
    # two generated models and one whose rates and running cost are all
    # -0.0 (each passes its sign rules): there values of both zero signs
    # make coupling sums of -0.0, which einsum's sum from 0.0 makes 0.0, and
    # the cost keeps the sign of a zero Hamiltonian
    specs = _stack([11, 12, 13], n, 3)
    quiet = specs[2]
    specs[2] = dataclasses.replace(
        quiet, generator=GeneratorSpec("constant", n, rates=np.full((n, n), -0.0)),
        costs=dataclasses.replace(quiet.costs, running=RunningCost("constant", n, 1, 1, value=-0.0)),
    )
    tab = _Tables(specs, Grid1D(-2.0, 2.0, 41))
    rng = np.random.default_rng(n)
    for scale in (rng.normal(size=tab.shape), rng.choice([0.0, -0.0, 1.0], size=tab.shape)):
        v = scale * rng.choice([0.0, -0.0, 1.0, 1e-3], size=tab.shape)
        got, want = _hamiltonians(tab, v), _einsum_hamiltonians(tab, v)
        assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(ham=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)),
                  elements=st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5])))
def test_action_scan_equals_argmin(ham):
    # (A, N, B, K) stacks of values from a small set with both zero signs, so
    # that ties (-0.0 == 0.0 among them) are common; the scan keeps argmin's
    # lowest index, and on the maximum argmax's
    scan = _lowest_attaining(ham, np.min(ham, axis=0))
    assert scan.dtype == np.int64
    assert np.array_equal(scan, np.argmin(ham, axis=0))
    assert np.array_equal(_lowest_attaining(ham, np.max(ham, axis=0)), np.argmax(ham, axis=0))
