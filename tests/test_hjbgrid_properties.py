"""Properties of the grid solvers on generated 1-D models.

Each example draws a model with 1-3 regimes, 1-3 actions, a positive
constant diffusion, action-dependent saturated drift, state- and
action-dependent switching rates and a clamped quadratic cost. The checks
are the ones the monotone scheme guarantees for every such model: the
banded solve equals a dense solve of an independently assembled matrix,
the maximum and comparison principles, replaying the optimal policy
reproduces the optimal value, Howard's iterates never increase, and each
block of a stacked solve equals the solve of its model alone.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    ActionGrid,
    BoundaryCost,
    CostSpec,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    Grid1D,
    ModelSpec,
    RegimeSet,
    RunningCost,
    TerminalCost,
    evaluate_policy_exit,
    evaluate_policy_value,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
)
from switchsde.hjbgrid import _discounted, _exit, _exit_values, _finite_horizon, _hamiltonians, _Tables

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
                rhs[r] = spec.costs.exit_h.eval_batch(x, s)[0]
                continue
            a = spec.diffusion.a_batch(x, s)[0, 0, 0]
            b = spec.drift.eval_batch(x, s, u)[0, 0]
            rates = spec.generator.rates_batch(x, u)[0]
            # upwind drift; reflecting ends drop the outward neighbour
            lo = 0.0 if k == 0 else a / dx**2 + max(-b, 0.0) / dx
            hi = 0.0 if k == K - 1 else a / dx**2 + max(b, 0.0) / dx
            zeta = spec.costs.exit_beta.eval_batch(x, s, u)[0] if exit_ else spec.costs.alpha
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
        v[..., [0, -1]] = _exit_values(tab)
    policy = np.argmin(_hamiltonians(tab, v, exit_), axis=0)[:, 0]
    iterates = [v[:, 0]]
    while True:
        iterates.append(evaluate(spec, grid, policy).values)
        improved = np.argmin(_hamiltonians(tab, iterates[-1][:, None], exit_), axis=0)[:, 0]
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


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), n=st.integers(1, 3),
    n_x=st.integers(11, 41), n_actions=st.integers(1, 3),
)
def test_stacked_blocks_equal_standalone_solves(seeds, n, n_x, n_actions):
    # a stack shares its regimes, actions and discount; everything else differs
    first = _model(seeds[0], n, n_actions)
    specs = []
    for seed in seeds:
        spec = _model(seed, n, n_actions)
        costs = dataclasses.replace(spec.costs, alpha=first.costs.alpha)
        specs.append(dataclasses.replace(spec, actions=first.actions, costs=costs))
    grid = Grid1D(-2.0, 2.0, n_x)
    tab = _Tables(specs, grid)
    for stacked, solve in (
        (_discounted(tab, None, 1e-8, 100), solve_discounted),
        (_exit(tab, 1e-8, 100), solve_exit),
        (_finite_horizon(tab, None, 20), lambda spec, grid: solve_finite_horizon(spec, grid, n_t=20)),
    ):
        assert len(stacked) == len(specs)
        for spec, got in zip(specs, stacked):
            want = solve(spec, grid)
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_array_equal(got.policy, want.policy)
            assert got.iterations == want.iterations
            assert got.residual_history == want.residual_history
