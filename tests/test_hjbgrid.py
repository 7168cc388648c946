"""Grid solvers against closed-form values and structural invariants."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from switchsde import (
    DegenerateError,
    ErgodicEstimate,
    Grid1D,
    MaxIterError,
    RunningCost,
    SchemeError,
    ShapeError,
    StepError,
    estimate_ergodic,
    estimate_ergodic_policy,
    evaluate_policy_exit,
    evaluate_policy_value,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
)
from switchsde.hjbgrid import DEFAULT_LADDER, GRID_HEADER, GRID_HEADER_T, _solve_policy, _Tables
from conftest import bm_model, chain_model, chain_value

GRID = Grid1D(-1.0, 1.0, 101)


def test_grid_validation():
    with pytest.raises(ShapeError, match="11 nodes"):
        Grid1D(-1.0, 1.0, 10)
    with pytest.raises(ShapeError, match="x_min < x_max"):
        Grid1D(1.0, -1.0, 101)
    g = Grid1D(0.0, 2.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0


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


@pytest.mark.parametrize("solve", [solve_discounted, solve_exit])
def test_exhausted_policy_iteration_raises(saturated, solve):
    grid = Grid1D(-2.0, 2.0, 51)
    assert solve(saturated, grid).iterations > 1
    with pytest.raises(MaxIterError, match="1 iterations"):
        solve(saturated, grid, max_iter=1)


@pytest.mark.parametrize("evaluate", [evaluate_policy_value, evaluate_policy_exit])
def test_fixed_policy_table_is_checked(saturated, evaluate):
    grid = Grid1D(-2.0, 2.0, 21)
    with pytest.raises(ShapeError, match="shape"):
        evaluate(saturated, grid, np.zeros((2, 20), dtype=np.int64))
    with pytest.raises(ShapeError, match="action index"):
        evaluate(saturated, grid, np.full((2, 21), 2))


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


def test_finite_horizon_rejects_coarse_time_step(chain):
    with pytest.raises(StepError, match="exceeds 0.1"):
        solve_finite_horizon(chain, GRID, horizon=2.0, n_t=10)


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


# ---------------------------------------------------------------------------
# ergodic ladder


def test_ergodic_chain_stationary_average(chain):
    est = estimate_ergodic(chain, GRID)
    assert isinstance(est, ErgodicEstimate)
    assert est.ladder == DEFAULT_LADDER
    assert abs(est.rho - 4.0 / 3.0) / (4.0 / 3.0) <= 0.02
    assert abs(est.rho) <= chain.costs.running.values.max()
    # relative value is anchored at the reference node of regime 1
    assert est.relative_values[0, est.reference_node] == 0.0
    assert len(est.extrapolants) == len(est.ladder) - 1


def test_ergodic_policy_replay_matches(chain):
    # the chain has a single action, so replaying the extracted policy
    # reproduces the optimal long-run average
    est = estimate_ergodic(chain, GRID)
    rep = estimate_ergodic_policy(chain, GRID, est.policy)
    assert abs(rep - est.rho) <= 1e-10


def test_ergodic_needs_two_ladder_entries(chain):
    with pytest.raises(ShapeError):
        estimate_ergodic(chain, GRID, ladder=(0.1,))


def test_ergodic_ladder_honours_max_iter(saturated):
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
