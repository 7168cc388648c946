"""Grid solvers against closed-form values and structural invariants."""

import dataclasses
import importlib.machinery
import importlib.util
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from switchsde import (
    ActionGrid,
    ConfigError,
    DegenerateError,
    DiffusionFamily,
    DriftFamily,
    GeneratorSpec,
    Grid1D,
    MaxIterError,
    PerturbationSchedule,
    RunningCost,
    SchemeError,
    ShapeError,
    StepError,
    TerminalCost,
    UnboundedError,
    check_eps_optimality,
    estimate_ergodic,
    estimate_ergodic_policy,
    evaluate_policy_exit,
    evaluate_policy_finite_horizon,
    evaluate_policy_value,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
    sweep_grid,
)
from switchsde import hjbgrid
from switchsde.hjbgrid import GRID_HEADER, GRID_HEADER_T, _solve_policy, _Tables
from conftest import bm_model, chain_model, chain_value, cosine_exit_model, saturated_model

GRID = Grid1D(-1.0, 1.0, 101)


def test_grid_validation():
    with pytest.raises(ShapeError, match="11 nodes"):
        Grid1D(-1.0, 1.0, 10)
    with pytest.raises(ShapeError, match="x_min < x_max"):
        Grid1D(1.0, -1.0, 101)
    for lo, hi in ((-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (-1.0, np.nan)):
        with pytest.raises(ShapeError, match="grid interval must be finite"):
            Grid1D(lo, hi, 101)
    g = Grid1D(0.0, 2.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0


@pytest.mark.parametrize("n_x", [101.0, np.float64(101.0), np.int32(101)], ids=repr)
def test_grid_takes_a_whole_valued_node_count_as_its_int(chain, n_x):
    grid = Grid1D(-1.0, 1.0, n_x)
    assert type(grid.n_x) is int and grid.n_x == 101
    want = solve_discounted(chain, GRID)
    got = solve_discounted(chain, grid)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.policy, want.policy)


@pytest.mark.parametrize("n_x", [101.5, np.float64(101.5), math.inf, math.nan, "101"], ids=repr)
def test_grid_rejects_a_node_count_that_is_not_whole(n_x):
    # 101.5 used to build, and its first solve raised numpy's TypeError
    with pytest.raises(ShapeError, match="grid needs a whole number n_x of nodes"):
        Grid1D(-1.0, 1.0, n_x)


def test_grid_nodes_beyond_the_node_bound_are_refused_before_they_are_made(chain):
    grid = Grid1D(-1.0, 1.0, hjbgrid.MAX_NODES + 1)  # the count alone allocates nothing
    with pytest.raises(ShapeError, match="node bound 1000000"):
        grid.nodes
    with pytest.raises(ShapeError, match="node bound 1000000"):
        solve_discounted(chain, grid)
    assert Grid1D(-1.0, 1.0, hjbgrid.MAX_NODES).dx == 2.0 / (hjbgrid.MAX_NODES - 1)


# ---------------------------------------------------------------------------
# discounted


def test_discounted_chain_matches_linear_solve(chain):
    # x-independent data: V is constant in x and solves (alpha I - M) V = c
    sol = solve_discounted(chain, GRID)
    v = chain_value(chain)
    for i in range(2):
        assert np.abs(sol.values[i] - v[i]).max() <= 1e-8


def test_discounted_constant_cost_is_c_over_alpha():
    sol = solve_discounted(bm_model(sigma=1.0, cost_value=1.0), GRID)
    assert np.abs(sol.values - 1.0).max() <= 1e-8


def test_discounted_solve_rejects_an_infinite_alpha(saturated):
    # it once returned all-zero values with a NaN residual
    with pytest.raises(ShapeError, match="alpha must be finite") as info:
        solve_discounted(saturated, Grid1D(-2.0, 2.0, 21), alpha=math.inf)
    assert info.value.path == "costs.alpha"


def test_discounted_maximum_principle(saturated):
    grid = Grid1D(-2.0, 2.0, 101)
    sol = solve_discounted(saturated, grid)
    bound = saturated.cost_bound() / saturated.costs.alpha
    assert sol.values.min() >= -1e-12
    assert sol.values.max() <= bound + 1e-12


def test_policy_replay_reproduces_value(saturated):
    grid = Grid1D(-2.0, 2.0, 101)
    sol = solve_discounted(saturated, grid)
    replay = evaluate_policy_value(saturated, grid, sol.policy)
    assert np.abs(replay.values - sol.values).max() <= 1e-7


def test_suboptimal_policy_costs_more(saturated):
    grid = Grid1D(-2.0, 2.0, 101)
    sol = solve_discounted(saturated, grid)
    frozen = evaluate_policy_value(saturated, grid, np.zeros_like(sol.policy))
    assert (frozen.values - sol.values).min() >= -1e-8


def test_cost_scaling_doubles_value_keeps_policy(saturated):
    grid = Grid1D(-2.0, 2.0, 101)
    base = solve_discounted(saturated, grid)
    doubled = dataclasses.replace(
        saturated,
        costs=dataclasses.replace(
            saturated.costs,
            running=RunningCost(
                "quad-clamped", 2, 1, 1, weight=2.0, cap=8.0, action_weight=0.2
            ),
        ),
    )
    sol2 = solve_discounted(doubled, grid)
    assert np.abs(sol2.values - 2.0 * base.values).max() <= 1e-8
    assert np.array_equal(sol2.policy, base.policy)


def test_degenerate_diffusion_raises_typed_error(make_chain):
    with pytest.raises(DegenerateError, match="sigma"):
        solve_discounted(make_chain(sigma=0.0), GRID)


def overflowing_drift(spec):
    """The saturated model with a drift of 1e308 everywhere: b / dx overflows."""
    drift = dataclasses.replace(spec.drift, a_mat=np.full((2, 1, 1), 1e308), saturation=1e308)
    return dataclasses.replace(spec, drift=drift)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("solve", [solve_discounted, solve_exit, solve_finite_horizon])
def test_non_finite_coefficients_raise_scheme_error(saturated, solve):
    with pytest.raises(SchemeError, match="'sub' is not finite"):
        solve(overflowing_drift(saturated), Grid1D(-2.0, 2.0, 21))


def test_singular_policy_system_raises_scheme_error():
    # zeta = 0 with reflecting ends: the rows of -L sum to zero, and with
    # a / dx^2 = 32 the banded LU meets an exactly zero pivot
    grid = Grid1D(-1.0, 1.0, 17)
    tab = _Tables([bm_model(sigma=1.0)], grid)
    policy = np.zeros(tab.shape, dtype=np.int64)
    with pytest.raises(SchemeError, match="dgbsv info 17"):
        _solve_policy(tab, policy, np.ones(tab.shape), 0.0)


@pytest.mark.parametrize("missing,named", [("scipy", "scipy"), ("extension", "scipy.linalg._flapack")])
def test_missing_lapack_extension_raises_import_error(monkeypatch, missing, named):
    # uncached, with no extension module registered yet: a missing scipy or
    # a scipy without its LAPACK extension is an ImportError naming it
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    if missing == "scipy":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    else:
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError) as err:
        hjbgrid._dgbsv.__wrapped__()
    assert err.value.name == named


@pytest.mark.parametrize("solve", [solve_discounted, solve_exit])
def test_exhausted_policy_iteration_raises(saturated, solve):
    grid = Grid1D(-2.0, 2.0, 51)
    assert solve(saturated, grid).iterations > 1
    with pytest.raises(MaxIterError, match="1 iterations"):
        solve(saturated, grid, max_iter=1)


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, math.nan])
@pytest.mark.parametrize("solve", [solve_discounted, solve_exit, estimate_ergodic])
def test_a_max_iter_that_is_not_a_whole_number_above_0_is_a_config_error(saturated, solve, max_iter):
    with pytest.raises(ConfigError, match="max_iter must be a whole number >= 1") as info:
        solve(saturated, Grid1D(-2.0, 2.0, 21), max_iter=max_iter)
    assert info.value.path == "max_iter"


@pytest.mark.parametrize("evaluate", [evaluate_policy_value, evaluate_policy_exit])
def test_fixed_policy_table_is_checked(saturated, evaluate):
    grid = Grid1D(-2.0, 2.0, 21)
    with pytest.raises(ShapeError, match="shape"):
        evaluate(saturated, grid, np.zeros((2, 20), dtype=np.int64))
    with pytest.raises(ShapeError, match="action index"):
        evaluate(saturated, grid, np.full((2, 21), 2))


ZEROS = np.zeros((2, 21), dtype=np.int64)  # an action table of the saturated model on 21 nodes
ENTRY_POINTS = {
    "solve_discounted": solve_discounted,
    "solve_exit": solve_exit,
    "solve_finite_horizon": solve_finite_horizon,
    "estimate_ergodic": estimate_ergodic,
    "evaluate_policy_value": lambda spec, grid: evaluate_policy_value(spec, grid, ZEROS),
    "evaluate_policy_exit": lambda spec, grid: evaluate_policy_exit(spec, grid, ZEROS),
    "evaluate_policy_finite_horizon": lambda spec, grid: evaluate_policy_finite_horizon(
        spec, grid, np.zeros((20, 2, 21), dtype=np.int64)
    ),
    "estimate_ergodic_policy": lambda spec, grid: estimate_ergodic_policy(spec, grid, ZEROS),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_grid_entry_point_rejects_an_unbounded_cost(saturated, entry):
    running = RunningCost("lq", 2, 1, 1, q_mat=np.ones((2, 1, 1)), r_mat=np.ones((2, 1, 1)))
    spec = dataclasses.replace(saturated, costs=dataclasses.replace(saturated.costs, running=running))
    grid = Grid1D(-2.0, 2.0, 21)
    ENTRY_POINTS[entry](saturated, grid)  # the bounded model passes
    with pytest.raises(UnboundedError, match="bounded running cost"):
        ENTRY_POINTS[entry](spec, grid)


def planar(spec):
    """The saturated model's data on d = 2: constant drift, noise and costs."""
    return dataclasses.replace(
        spec, dim=2,
        drift=DriftFamily("constant", 2, 2, 1, b0=np.zeros((2, 2))),
        diffusion=DiffusionFamily("constant", 2, 2, c0=np.tile(np.eye(2), (2, 1, 1))),
        costs=dataclasses.replace(
            spec.costs, running=RunningCost("regime", 2, 2, 1, values=np.array([1.0, 2.0])),
            terminal=TerminalCost("zero", 2, 2),
        ),
    )


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_grid_entry_point_rejects_a_planar_model(saturated, entry):
    with pytest.raises(ShapeError, match="dim 1 only"):
        ENTRY_POINTS[entry](planar(saturated), Grid1D(-2.0, 2.0, 21))


# one model per failing check of the table build, in the order a block
# meets the checks: its model, error type and message
TABLE_FAULTS = {
    "dim": (planar, ShapeError, "grid solvers support dim 1 only"),
    "a": (
        lambda spec: dataclasses.replace(
            spec, diffusion=DiffusionFamily("constant", 1, 2, c0=np.zeros((2, 1, 1)))
        ),
        DegenerateError, "grid solvers need a = sigma^2 / 2 > 0 at every node",
    ),
    "cost": (
        lambda spec: dataclasses.replace(spec, costs=dataclasses.replace(
            spec.costs, running=RunningCost("lq", 2, 1, 1, q_mat=np.ones((2, 1, 1)), r_mat=np.ones((2, 1, 1)))
        )),
        UnboundedError, "grid solvers need a bounded running cost",
    ),
    "sub": (overflowing_drift, SchemeError, "coefficient table 'sub' is not finite on the grid"),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "rows", [("ok", "sub", "a"), ("ok", "cost", "a"), ("a", "dim"), ("ok", "dim", "a"), ("sub", "cost", "ok"),
             ("ok", "ok", "dim")],
    ids="-".join,
)
def test_a_stack_fails_on_its_lowest_failing_row_with_that_rows_error(saturated, rows):
    # a later row may fail a check that comes earlier in the order: the
    # stack still names the lowest failing row, with the error that row
    # alone raises
    specs = [saturated if row == "ok" else TABLE_FAULTS[row][0](saturated) for row in rows]
    n = next(n for n, row in enumerate(rows) if row != "ok")
    _, kind, message = TABLE_FAULTS[rows[n]]
    grid = Grid1D(-2.0, 2.0, 21)
    with pytest.raises(kind) as alone:
        _Tables([specs[n]], grid)
    assert str(alone.value) == f"{kind.code}: {message}"
    with pytest.raises(kind) as stacked:
        _Tables(specs, grid, [f"row {k}" for k in range(len(rows))])
    assert str(stacked.value) == f"{kind.code}: {message} (row {n})"


# ---------------------------------------------------------------------------
# finite horizon


def test_finite_horizon_constant_cost_exact():
    sol = solve_finite_horizon(bm_model(sigma=1.0, cost_value=1.0), GRID, horizon=1.0)
    assert np.abs(sol.values[0] - 1.0).max() <= 1e-12
    assert np.abs(sol.values[-1]).max() == 0.0  # terminal level is exact


def test_finite_horizon_chain_first_order_in_time(chain):
    """Regime-only costs integrate to V(0) = int_0^T e^{Ms} c ds.

    The oracle is the upper-right block of the augmented matrix exponential;
    the semi-implicit scheme must converge to it at first order in dt.
    """
    aug = np.zeros((3, 3))
    aug[:2, :2] = chain.generator.rates
    aug[:2, 2] = chain.costs.running.values
    oracle = expm(aug)[:2, 2]
    errs = {}
    for n_t in (20, 40):
        sol = solve_finite_horizon(chain, GRID, horizon=1.0, n_t=n_t)
        errs[n_t] = max(np.abs(sol.values[0, i] - oracle[i]).max() for i in range(2))
    assert errs[40] <= 2e-3
    assert 1.7 <= errs[20] / errs[40] <= 2.3


def test_finite_horizon_residual_is_the_first_order_hjb_defect(saturated):
    # each level's linear system holds to roundoff at the action it was solved
    # with; the residual is the fully implicit HJB defect with min over the
    # actions, O(dt): it must halve, within a factor 1.6 to 2.5, as n_t doubles
    grid = Grid1D(-2.0, 2.0, 201)
    res = [solve_finite_horizon(saturated, grid, n_t=n_t).residual for n_t in (20, 40, 80)]
    assert res[-1] >= 1e-3
    for coarse, fine in zip(res, res[1:]):
        assert 1.6 <= coarse / fine <= 2.5


def test_finite_horizon_policy_residual_is_the_defect_of_its_level_equations(saturated):
    # a random table: each level's equation (v_{j+1} - v_j)/dt + H_{pi_j}(v_j)
    # = 0 holds to roundoff, and the residual is its measured largest defect
    grid = Grid1D(-2.0, 2.0, 401)
    policy = np.random.default_rng(19).integers(0, 2, size=(20, 2, grid.n_x))
    sol = evaluate_policy_finite_horizon(saturated, grid, policy)
    dt = saturated.costs.horizon / 20
    tab = _Tables([saturated], grid)
    defect = 0.0
    for j in range(20):
        ham = hjbgrid._hamiltonians(tab, sol.values[j][:, None])[:, :, 0]
        at = np.take_along_axis(ham, policy[j][None], axis=0)[0]
        defect = max(defect, float(np.max(np.abs((sol.values[j + 1] - sol.values[j]) / dt + at))))
    assert sol.residual == defect
    assert 0.0 < sol.residual < 1e-9


def test_finite_horizon_rejects_coarse_time_step(chain):
    with pytest.raises(StepError, match="exceeds 0.1"):
        solve_finite_horizon(chain, GRID, horizon=2.0, n_t=10)
    # a fixed policy's levels set the step: 5 levels over T = 1 is dt = 0.2
    with pytest.raises(StepError, match="exceeds 0.1"):
        evaluate_policy_finite_horizon(chain, GRID, np.zeros((5, 2, GRID.n_x), dtype=np.int64))


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_finite_horizon_override_is_checked_as_the_model_horizon(chain, horizon):
    for solve in (
        lambda: solve_finite_horizon(chain, GRID, horizon=horizon),
        lambda: evaluate_policy_finite_horizon(
            chain, GRID, np.zeros((20, 2, GRID.n_x), dtype=np.int64), horizon=horizon
        ),
    ):
        with pytest.raises(ShapeError) as err:
            solve()
        assert err.value.path == "costs.horizon"


@pytest.mark.parametrize("n_t", [20.5, math.nan, math.inf, "20"])
def test_finite_horizon_rejects_a_fractional_level_count(chain, n_t):
    sched = PerturbationSchedule("rates", 1, d_m=np.array([[0.0, 1.0], [0.0, 0.0]]))
    for solve in (
        lambda: solve_finite_horizon(chain, Grid1D(-1.0, 1.0, 21), n_t=n_t),
        lambda: sweep_grid(chain, sched, "finite-horizon", Grid1D(-1.0, 1.0, 21), n_t=n_t),
    ):
        with pytest.raises(StepError, match="whole number"):
            solve()


def test_finite_horizon_takes_a_whole_float_level_count(chain):
    a = solve_finite_horizon(chain, GRID, n_t=20.0)
    b = solve_finite_horizon(chain, GRID, n_t=20)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# exit


def test_exit_quadratic_is_grid_exact():
    # a = 1 and c = 2 give phi = 1 - x^2, whose central differences are exact
    spec = bm_model(sigma=math.sqrt(2.0), cost_value=2.0)
    sol = solve_exit(spec, GRID)
    phi = 1.0 - GRID.nodes**2
    assert np.abs(sol.values[0] - phi).max() <= 1e-12
    assert abs(sol.values[0, 0]) <= 1e-12 and abs(sol.values[0, -1]) <= 1e-12


def test_exit_cosine_second_order(cosine_exit):
    errs = {}
    for n_x in (51, 101):
        g = Grid1D(-1.0, 1.0, n_x)
        sol = solve_exit(cosine_exit, g)
        phi = np.cos(np.pi * g.nodes / 2.0) / 2.0
        errs[n_x] = np.abs(sol.values[0] - phi).max()
        assert errs[n_x] <= 2.0 * g.dx**2
    assert errs[51] / errs[101] >= 3.0


@pytest.mark.parametrize("model,n_x", [(cosine_exit_model, 101), (saturated_model, 401)])
def test_exit_pins_the_ends_exactly(model, n_x):
    # a / dx^2 > 1 at the ends: an unscaled identity row would be pivoted
    # below its neighbour and come back with rounding
    spec = model()
    grid = Grid1D(*spec.costs.exit_domain, n_x)
    sol = solve_exit(spec, grid)
    h = spec.costs.exit_h.value
    assert np.all(sol.values[:, [0, -1]] == h)


COST_SCHEDULE = PerturbationSchedule("cost", 1, d_cost=0.5)
EXIT_ENTRY_POINTS = {
    "solve_exit": solve_exit,
    "evaluate_policy_exit": lambda spec, grid: evaluate_policy_exit(
        spec, grid, np.zeros((spec.regimes.count, grid.n_x), dtype=np.int64)
    ),
    "sweep_grid": lambda spec, grid: sweep_grid(spec, COST_SCHEDULE, "exit", grid),
    "check_eps_optimality": lambda spec, grid: check_eps_optimality(spec, COST_SCHEDULE, "exit", 0.05, grid),
}


@pytest.mark.parametrize("interval", [(-2.0, 2.0), (-1.0, 2.0), (-1.0, 1.5)])
@pytest.mark.parametrize("entry", sorted(EXIT_ENTRY_POINTS))
def test_every_exit_entry_point_needs_the_grid_interval_to_be_the_exit_domain(entry, interval):
    # unit-cost Brownian motion exiting (-1, 1): E tau = 1 at 0, where a
    # solve on (-2, 2) would give E tau on that interval, 4
    spec = bm_model(sigma=1.0, cost_value=1.0)
    EXIT_ENTRY_POINTS[entry](spec, Grid1D(*spec.costs.exit_domain, 21))
    with pytest.raises(ConfigError, match=r"to be costs.exit_domain \(-1.0, 1.0\)") as info:
        EXIT_ENTRY_POINTS[entry](spec, Grid1D(*interval, 21))
    assert info.value.path == "grid"


# ---------------------------------------------------------------------------
# ergodic


def test_ergodic_chain_stationary_average(chain):
    est = estimate_ergodic(chain, GRID)
    assert est.criterion == "ergodic"
    # exact for the discretized chain: the stationary average of c
    assert abs(est.rho - 4.0 / 3.0) <= 1e-10
    assert est.residual == est.residual_history[-1] <= 1e-10
    assert est.iterations == len(est.residual_history)
    # relative value is anchored at the reference node (x = 0) of regime 1
    assert est.values[0, GRID.n_x // 2] == 0.0


def test_ergodic_policy_replay_matches(chain):
    # the chain has a single action, so replaying the extracted policy
    # reproduces the optimal long-run average
    est = estimate_ergodic(chain, GRID)
    rep = estimate_ergodic_policy(chain, GRID, est.policy)
    assert abs(rep - est.rho) <= 1e-10


def test_ergodic_with_transient_first_regime(chain):
    # regime 1 leaks into regime 2, which never leaves: the chain is
    # unichain with regime 1 transient, so rho is regime 2's cost
    spec = chain_model(m12=1.0, m21=0.0)
    est = estimate_ergodic(spec, GRID)
    assert abs(est.rho - 2.0) <= 1e-10
    assert est.residual <= 1e-10
    assert abs(estimate_ergodic_policy(spec, GRID, est.policy) - 2.0) <= 1e-10


def test_ergodic_multichain_raises_degenerate_error():
    # no switching either way: each regime is a closed class of its own
    spec = chain_model(m12=0.0, m21=0.0)
    with pytest.raises(DegenerateError, match="multichain"):
        estimate_ergodic(spec, GRID)
    with pytest.raises(DegenerateError, match="multichain"):
        estimate_ergodic_policy(spec, GRID, np.zeros((2, GRID.n_x), dtype=np.int64))


def test_ergodic_pin_follows_a_policy_that_switches_the_rates_off():
    # with gu = 1 the action u = -20 sets g = 1 + tanh(-20) = 0 exactly, so
    # which regimes are recurrent depends on the policy
    assert np.tanh(-20.0) == -1.0
    spec = dataclasses.replace(
        chain_model(values=(2.0, 1.0)),
        actions=ActionGrid(np.array([[0.0], [-20.0]])),
        generator=GeneratorSpec("state-action-dependent", 2, base=np.array([[0.0, 1.0], [2.0, 0.0]]), gu=1.0),
    )
    # regime 2 is the cheaper: the optimal policy stops switching out of it
    # and keeps regime 1's rates on, so regime 2 alone is recurrent, while
    # under the first action both regimes are
    est = estimate_ergodic(spec, GRID)
    assert np.all(est.policy[0] == 0) and np.all(est.policy[1] == 1)
    assert abs(est.rho - 1.0) <= 1e-10
    assert est.residual <= 1e-10
    # switching off in both regimes leaves each a closed class of its own
    with pytest.raises(DegenerateError, match="multichain"):
        estimate_ergodic_policy(spec, GRID, np.ones((2, GRID.n_x), dtype=np.int64))


def test_ergodic_honours_max_iter(saturated):
    grid = Grid1D(-2.0, 2.0, 51)
    with pytest.raises(MaxIterError):
        estimate_ergodic(saturated, grid, max_iter=1)


# ---------------------------------------------------------------------------
# CSV output


def test_stationary_csv_layout(tmp_path, chain):
    sol = solve_discounted(chain, GRID)
    out = tmp_path / "values.csv"
    sol.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + 2 * GRID.n_x
    first = lines[1].split(",")
    assert first[0] == "discounted" and first[1] == "1"


def test_finite_horizon_csv_layout(tmp_path, chain):
    sol = solve_finite_horizon(chain, GRID, horizon=1.0, n_t=10)
    out = tmp_path / "values.csv"
    sol.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == GRID_HEADER_T
    assert len(lines) == 1 + 11 * 2 * GRID.n_x
    # terminal rows carry action index -1
    assert lines[-1].split(",")[4] == "-1"
