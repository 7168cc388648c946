"""Monte Carlo cost functionals against closed-form and discrete-chain oracles."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    DEFAULT_BATCH,
    ActionGrid,
    BatchStepper,
    BoundaryCost,
    CallablePolicy,
    CapFractionWarning,
    ConfigError,
    ConstantPolicy,
    CostSpec,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    Grid1D,
    GridPolicy,
    McEstimate,
    ModelSpec,
    RegimeSet,
    RunningCost,
    ShapeError,
    StepError,
    TerminalCost,
    TimeGridPolicy,
    UnboundedError,
    discounted_horizon,
    mc_discounted,
    mc_ergodic,
    mc_exit,
    mc_finite_horizon,
    pairwise_sum,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
    write_estimates_csv,
)
from switchsde.costs import ESTIMATE_HEADER
from switchsde.simulate import CHUNK
from conftest import bm_model, chain_model, chain_value, lq_model, saturated_model

ZERO = ConstantPolicy(np.zeros(1))


# ---------------------------------------------------------------------------
# summation and bookkeeping


@given(st.lists(st.floats(-1e6, 1e6), max_size=200))
@settings(max_examples=50, deadline=None)
def test_pairwise_sum_matches_fsum(xs):
    total = pairwise_sum(np.asarray(xs, dtype=np.float64))
    assert total == pytest.approx(math.fsum(xs), abs=1e-6)


def test_pairwise_sum_edge_cases():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.ones(7)) == 7.0


def test_default_batch_size():
    assert DEFAULT_BATCH == 16384


def test_estimate_header():
    assert ESTIMATE_HEADER == "criterion,x0,i0,value,stderr,paths,bias_bound,capped_fraction"


def test_csv_row_formats_vector_and_scalar_x0():
    vec = McEstimate("discounted", np.array([1.0, 2.5]), 1, 0.5, 0.1, 10)
    assert vec.csv_row()[1] == "1;2.5"
    scal = McEstimate("exit", np.array([0.25]), 2, 0.5, 0.1, 10)
    assert scal.csv_row()[1] == 0.25


def test_write_estimates_csv(tmp_path):
    est = McEstimate("ergodic", np.array([0.0]), 1, 1.25, 0.01, 100)
    out = tmp_path / "estimates.csv"
    write_estimates_csv(out, [est])
    lines = out.read_text().splitlines()
    assert lines[0] == ESTIMATE_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "ergodic"
    assert float(cells[3]) == 1.25


# ---------------------------------------------------------------------------
# discounted criterion


def test_discounted_horizon_formula():
    spec = chain_model()  # M_c = 2
    assert discounted_horizon(spec, 1.0, 1e-4) == pytest.approx(math.log(2.0e4), rel=1e-14)
    assert discounted_horizon(bm_model(cost_value=0.0), 1.0, 1e-4) == 0.0


def test_discounted_rejects_bad_parameters(chain):
    with pytest.raises(UnboundedError):
        mc_discounted(chain, ZERO, [0.0], 1, 0.0, 0.01, 4, seed=1)
    with pytest.raises(UnboundedError):
        mc_discounted(chain, ZERO, [0.0], 1, 1.0, 0.01, 4, seed=1, eps_tail=0.0)
    with pytest.raises(UnboundedError):
        mc_discounted(chain, ZERO, [0.0], 1, 1.0, 0.01, 4, seed=1, eps_tail=math.nan)
    with pytest.raises(UnboundedError):
        mc_discounted(chain, ZERO, [0.0], 1, math.nan, 0.01, 4, seed=1)


@pytest.mark.parametrize("alpha,eps_tail", [(math.inf, 1e-4), (1.0, math.inf)], ids=["alpha", "eps_tail"])
def test_discounted_rejects_an_infinite_alpha_or_eps_tail(chain, alpha, eps_tail):
    # both were a bare ValueError (math domain error) from the horizon's log
    with pytest.raises(UnboundedError):
        discounted_horizon(chain, alpha, eps_tail)
    with pytest.raises(UnboundedError):
        mc_discounted(chain, ZERO, [0.0], 1, alpha, 0.01, 4, seed=1, eps_tail=eps_tail)


def test_discounted_rejects_an_alpha_eps_tail_product_that_underflows(chain):
    with pytest.raises(UnboundedError, match="underflows"):
        discounted_horizon(chain, 1e-200, 1e-200)
    with pytest.raises(UnboundedError, match="underflows"):
        mc_discounted(chain, ZERO, [0.0], 1, 1e-200, 0.01, 4, seed=1, eps_tail=1e-200)


def test_discounted_rejects_an_unbounded_running_cost(ref_lq):
    with pytest.raises(UnboundedError, match="bounded running cost"):
        mc_discounted(lq_model(ref_lq), ZERO, [0.0, 0.0], 1, 1.0, 0.01, 4, seed=1)


def test_tabulated_noise_of_constant_sigma_matches_the_constant_family():
    # sigma = 1 at two nodes interpolates to 1 everywhere: the grid solve and
    # the Monte Carlo estimate equal those of the constant family bit for bit
    spec = saturated_model()
    nodes = np.array([-2.0, 2.0])
    noise = DiffusionFamily("tabulated", 1, 2, x_nodes=nodes, values=np.ones((2, 2)))
    table = dataclasses.replace(spec, diffusion=noise)
    assert np.array_equal(table.diffusion.eval_batch(np.zeros((2, 1)), np.array([0, 1])), np.ones((2, 1, 1)))
    grid = Grid1D(-2.0, 2.0, 101)
    want, got = solve_discounted(spec, grid), solve_discounted(table, grid)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.policy, want.policy)
    policy = ConstantPolicy(np.array([1.0]))
    want, got = (mc_discounted(s, policy, [0.5], 1, 0.5, 0.01, 64, seed=5) for s in (spec, table))
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_discounted_constant_cost_is_deterministic():
    # single regime, c = 1: every path accumulates the same geometric sum
    # dt * sum_k e^(-alpha dt k), so the estimate is exact and stderr is 0.
    spec = bm_model(sigma=1.0, cost_value=1.0)
    alpha, dt, eps_tail = 0.5, 0.01, 1e-4
    est = mc_discounted(spec, ZERO, [0.0], 1, alpha, dt, 4, seed=1, eps_tail=eps_tail)
    n_steps = math.ceil(discounted_horizon(spec, alpha, eps_tail) / dt - 1e-12)
    geom = dt * (1 - math.exp(-alpha * dt * n_steps)) / (1 - math.exp(-alpha * dt))
    assert est.value == pytest.approx(geom, abs=1e-12)
    assert est.stderr == 0.0
    assert abs(est.value - 1.0 / alpha) < 0.01
    assert est.truncation_bias_bound == eps_tail


def test_discounted_matches_markov_chain_expectation():
    """The estimator mean is the discrete-chain expectation, not the ODE value.

    With sigma = 0 the regime is an exact Markov chain with one-step matrix
    P = I + M dt, so the truncated left-endpoint sum has expectation
    W = dt (I - G)^{-1} (I - G^K) c with G = e^{-alpha dt} P. At dt = 0.025
    W differs from the continuous value by ~2e-2, well beyond the Monte
    Carlo error, and the estimate must track W rather than V.
    """
    spec = chain_model(sigma=0.0)
    alpha, dt, eps_tail, i0 = 1.0, 0.025, 1e-3, 2
    n_steps = math.ceil(discounted_horizon(spec, alpha, eps_tail) / dt - 1e-12)
    g = math.exp(-alpha * dt) * (np.eye(2) + spec.generator.rates * dt)
    gk = np.linalg.matrix_power(g, n_steps)
    w = dt * np.linalg.solve(np.eye(2) - g, (np.eye(2) - gk) @ spec.costs.running.values)
    est = mc_discounted(spec, ZERO, [0.0], i0, alpha, dt, 20000, seed=7, eps_tail=eps_tail)
    assert abs(est.value - w[i0 - 1]) <= 3.0 * est.stderr
    assert abs(w[i0 - 1] - chain_value(spec)[i0 - 1]) > 6.0 * est.stderr
    assert est.criterion == "discounted"
    assert est.paths == 20000


def test_estimates_do_not_depend_on_batch_size(chain):
    small = mc_discounted(chain, ZERO, [0.1], 1, 1.0, 0.05, 300, seed=5,
                          eps_tail=0.05, batch=64)
    full = mc_discounted(chain, ZERO, [0.1], 1, 1.0, 0.05, 300, seed=5,
                         eps_tail=0.05)
    assert small.value == full.value
    assert small.stderr == full.stderr


# ---------------------------------------------------------------------------
# finite horizon and ergodic criteria


def test_finite_horizon_constant_cost_exact():
    spec = bm_model(sigma=1.0, cost_value=1.0)
    est = mc_finite_horizon(spec, ZERO, [0.3], 1, 1.0, 0.1, 4, seed=2)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


def test_finite_horizon_adds_terminal_cost():
    from switchsde import TerminalCost

    spec = bm_model(sigma=1.0, cost_value=1.0)
    spec = dataclasses.replace(
        spec, costs=dataclasses.replace(
            spec.costs, terminal=TerminalCost("constant", 1, 1, value=0.5)
        )
    )
    est = mc_finite_horizon(spec, ZERO, [0.3], 1, 1.0, 0.1, 4, seed=2)
    assert est.value == pytest.approx(1.5, abs=1e-12)


def test_ergodic_constant_cost_exact():
    spec = bm_model(sigma=1.0, cost_value=1.0)
    est = mc_ergodic(spec, ZERO, [0.0], 1, 1.0, 0.05, 4, seed=3)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


def test_ergodic_chain_matches_stationary_average(chain):
    # pi = (2, 1)/3 for rates (1, 2), so rho = (2*1 + 1*2)/3 = 4/3
    est = mc_ergodic(chain, ZERO, [0.0], 1, 40.0, 0.05, 300, seed=11)
    assert abs(est.value - 4.0 / 3.0) <= 3.0 * est.stderr + 0.02


def test_ergodic_rejects_bad_burn_in(chain):
    with pytest.raises(UnboundedError):
        mc_ergodic(chain, ZERO, [0.0], 1, 1.0, 0.05, 4, seed=1, burn_in=1.0)
    with pytest.raises(UnboundedError):
        mc_ergodic(chain, ZERO, [0.0], 1, 1.0, 0.05, 4, seed=1, burn_in=-0.1)
    # burn_in / dt rounds up to the last step, so no step would be averaged
    for dt, burn_in in ((0.1, 0.95), (0.05, 0.975)):
        with pytest.raises(UnboundedError, match=r"burn_in = .* dt = "):
            mc_ergodic(chain, ZERO, [0.0], 1, 1.0, dt, 4, seed=1, burn_in=burn_in)


# ---------------------------------------------------------------------------
# exit criterion


def test_exit_mean_time_brownian():
    # a = 1 and c = 1 make the exit value E[tau] = (1 - x^2)/2, so 0.5 at 0.
    spec = bm_model(sigma=math.sqrt(2.0), cost_value=1.0)
    est = mc_exit(spec, ZERO, [0.0], 1, 5e-4, 4000, seed=3, t_cap=6.0)
    assert abs(est.value - 0.5) <= 3.0 * est.stderr + 0.03
    assert est.capped_fraction == 0.0
    assert est.criterion == "exit"


def _drift_model():
    """Unit drift, no diffusion, unit running cost, beta = 0.25 and h = 2."""
    spec = bm_model(sigma=1.0, cost_value=1.0)
    return dataclasses.replace(
        spec,
        drift=DriftFamily("constant", 1, 1, 1, b0=np.ones((1, 1))),
        diffusion=DiffusionFamily("constant", 1, 1, c0=np.zeros((1, 1, 1))),
        costs=dataclasses.replace(
            spec.costs,
            exit_h=BoundaryCost("constant", value=2.0),
            exit_beta=ExitDiscount("constant", value=0.25),
        ),
    )


def test_exit_payoff_and_discount_deterministic():
    """Pure drift toward the boundary pins the exit node and both discounts.

    x_k = 0.5 + k dt reaches the boundary exactly at step 10, so the value
    is the geometric running sum plus e^(-beta tau) h with tau = 0.5.
    """
    beta, dt, k_exit = 0.25, 0.05, 10
    est = mc_exit(_drift_model(), ZERO, [0.5], 1, dt, 2, seed=4, t_cap=3.0)
    oracle = (
        dt * (1 - math.exp(-beta * dt * k_exit)) / (1 - math.exp(-beta * dt))
        + math.exp(-beta * dt * k_exit) * 2.0
    )
    assert est.value == pytest.approx(oracle, abs=1e-12)
    assert est.stderr == 0.0
    assert est.capped_fraction == 0.0


def test_exit_zero_kinds_reject_a_stored_value():
    # a 'zero' family holds no value: a stored one is rejected, and it
    # prices exits as a 'constant' family of value 0 does
    with pytest.raises(ConfigError, match="costs.exit_h.value"):
        BoundaryCost("zero", value=2.0)
    with pytest.raises(ConfigError, match="costs.exit_beta.value"):
        ExitDiscount("zero", value=5.0)
    spec = saturated_model()
    zero = dataclasses.replace(spec, costs=dataclasses.replace(
        spec.costs, exit_h=BoundaryCost("zero"), exit_beta=ExitDiscount("zero")))
    constant = dataclasses.replace(spec, costs=dataclasses.replace(
        spec.costs, exit_h=BoundaryCost("constant", value=0.0), exit_beta=ExitDiscount("constant", value=0.0)))
    args = (ConstantPolicy([1.0]), [0.0], 1, 0.01, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapFractionWarning)
        assert mc_exit(constant, *args, seed=8, t_cap=2.0) == mc_exit(zero, *args, seed=8, t_cap=2.0)


def test_exit_cap_warning():
    spec = bm_model(sigma=1.0, cost_value=0.0)
    with pytest.warns(CapFractionWarning, match="time cap"):
        est = mc_exit(spec, ZERO, [0.0], 1, 0.01, 64, seed=6, t_cap=0.05)
    assert est.capped_fraction > 0.9


# ---------------------------------------------------------------------------
# argument checks shared by every estimator


ESTIMATORS = {
    "discounted": lambda spec, dt=0.05, policy=ZERO, **kw: mc_discounted(
        spec, policy, [0.0], 1, 1.0, dt, seed=1, eps_tail=0.05, **kw),
    "finite-horizon": lambda spec, dt=0.05, policy=ZERO, **kw: mc_finite_horizon(
        spec, policy, [0.0], 1, 0.5, dt, seed=1, **kw),
    "ergodic": lambda spec, dt=0.05, policy=ZERO, **kw: mc_ergodic(
        spec, policy, [0.0], 1, 1.0, dt, seed=1, **kw),
    "exit": lambda spec, dt=0.05, policy=ZERO, **kw: mc_exit(
        spec, policy, [0.0], 1, dt, seed=1, t_cap=1.0, **kw),
}


@pytest.mark.parametrize("criterion", sorted(ESTIMATORS))
@pytest.mark.parametrize("n_paths,batch", [(0, 16), (-3, 16), (10, 0), (10, -1)])
def test_estimators_reject_nonpositive_path_and_batch_counts(chain, criterion, n_paths, batch):
    with pytest.raises(ShapeError, match="must both be >= 1"):
        ESTIMATORS[criterion](chain, n_paths=n_paths, batch=batch)


@pytest.mark.parametrize("criterion", sorted(ESTIMATORS))
@pytest.mark.parametrize("n_paths,batch", [(10.5, 16), (10, 2.5), ("10", 16), (10, None), (math.nan, 4)])
def test_estimators_reject_non_integral_path_and_batch_counts(chain, criterion, n_paths, batch):
    with pytest.raises(ShapeError, match="must both be >= 1 and whole"):
        ESTIMATORS[criterion](chain, n_paths=n_paths, batch=batch)


@pytest.mark.parametrize("criterion", sorted(ESTIMATORS))
def test_estimators_take_whole_float_counts_as_ints(chain, criterion):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapFractionWarning)
        a = ESTIMATORS[criterion](chain, n_paths=10.0, batch=4.0)
        b = ESTIMATORS[criterion](chain, n_paths=10, batch=4)
    assert a == dataclasses.replace(b, x0=a.x0)
    assert type(a.paths) is int and a.csv_row()[5] == 10


@pytest.mark.parametrize("t_cap", [0.0, -1.0, math.inf, math.nan])
def test_exit_rejects_bad_time_cap(t_cap):
    with pytest.raises(StepError, match="t_cap"):
        mc_exit(bm_model(), ZERO, [0.0], 1, 0.01, 8, seed=1, t_cap=t_cap)


@pytest.mark.parametrize("criterion", sorted(ESTIMATORS))
@pytest.mark.parametrize("dt,match", [(0.0, "must be positive"), (-0.05, "must be positive"),
                                      (1e-9, "step budget")])
def test_estimators_check_dt_and_step_budget_before_stepping(chain, criterion, dt, match):
    # at dt = 1e-9 every run is beyond MAX_STEPS: 5e8 to 4e9 steps
    with pytest.raises(StepError, match=match):
        ESTIMATORS[criterion](chain, dt=dt, n_paths=4)


@pytest.mark.parametrize("criterion", sorted(ESTIMATORS))
def test_estimators_charge_the_clamped_action(criterion):
    # saturated_model's running cost weights |u|^2 and its actions span
    # [-1, 1]; the wild policy leaves that box wherever |sin(2x)| > 1/3, so
    # only a clamp before the running cost makes it equal its clamped twin
    wild = CallablePolicy(lambda t, x, regimes: 3.0 * np.sin(2.0 * x))
    tame = CallablePolicy(lambda t, x, regimes: np.clip(3.0 * np.sin(2.0 * x), -1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapFractionWarning)
        a = ESTIMATORS[criterion](saturated_model(), policy=wild, n_paths=64)
        b = ESTIMATORS[criterion](saturated_model(), policy=tame, n_paths=64)
    assert (a.value, a.stderr, a.capped_fraction) == (b.value, b.stderr, b.capped_fraction)


@pytest.mark.parametrize(
    "fn,shape",
    [
        (lambda t, x, regimes: np.zeros((x.shape[0], 2)), "(16, 2)"),
        (lambda t, x, regimes: np.zeros((3, 1)), "(3, 1)"),
        (lambda t, x, regimes: 0.5, "()"),
    ],
    ids=["two-columns", "three-rows", "scalar"],
)
def test_policy_actions_of_the_wrong_shape_raise(fn, shape):
    with pytest.raises(ShapeError, match=rf"shape {re.escape(shape)}, expected \(16, 1\)"):
        mc_discounted(saturated_model(), CallablePolicy(fn), [0.0], 1, 0.5, 0.05, 16, 7, eps_tail=0.1)


def test_exit_batch_invariance_across_compaction():
    # the drift depends on the action, so the actions must be compacted with
    # the rows when paths that exited are dropped at a chunk boundary
    spec = saturated_model()
    policy = ConstantPolicy(np.array([1.0]))
    args = (spec, policy, [0.0], 1, 0.002, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapFractionWarning)
        alone = mc_exit(*args, seed=2, t_cap=2.5, batch=1)
        batched = mc_exit(*args, seed=2, t_cap=2.5, batch=24)
    assert 0.0 < alone.capped_fraction < 1.0
    assert batched.value == alone.value
    assert batched.stderr == alone.stderr
    assert batched.capped_fraction == alone.capped_fraction


def test_exit_batch_invariance_across_mid_block_compaction(monkeypatch):
    # an x-dependent grid policy, x- and u-dependent rates, beta and h both
    # nonzero; started near the boundary, most paths exit within ~100 steps,
    # so the batch compacts mid-block long before the refill at step CHUNK
    spec = dataclasses.replace(saturated_model(), generator=GeneratorSpec(
        "state-action-dependent", 2, base=np.array([[0.0, 1.0], [2.0, 0.0]]), gx=0.5, gu=-0.3,
    ))
    grid = Grid1D(*spec.costs.exit_domain, 81)
    policy = GridPolicy(spec, grid, solve_exit(spec, grid).policy)
    compactions = []
    compact = BatchStepper._compact

    def spy(self):
        compactions.append((self._pos, self.n_alive, self.x.shape[0]))
        return compact(self)

    monkeypatch.setattr(BatchStepper, "_compact", spy)
    args = (spec, policy, [1.8], 1, 0.002, 64)
    alone = mc_exit(*args, seed=3, t_cap=8.0, batch=1)
    assert compactions == []  # a single row is never compacted
    batched = mc_exit(*args, seed=3, t_cap=8.0, batch=64)
    assert any(0 < pos < CHUNK // 4 and 2 * live <= rows for pos, live, rows in compactions)
    assert batched.value == alone.value
    assert batched.stderr == alone.stderr
    assert batched.capped_fraction == alone.capped_fraction


def _nearest_node_policy(sol):
    """``sol``'s action table at node argmin |x - grid.nodes| and, for a time table, at the
    level whose step [t_j, t_{j+1}) holds t, 1e-9 of a step early counting as on it."""
    nodes, acts = sol.grid.nodes, saturated_model().actions.actions

    def fn(t, x, regimes):
        table = sol.policy
        if table.ndim == 3:
            step = sol.t_levels[1] - sol.t_levels[0]
            table = table[min(np.searchsorted(sol.t_levels, t + 1e-9 * step, side="right") - 1, len(table) - 1)]
        return acts[table[regimes - 1, np.argmin(np.abs(x - nodes), axis=1)]]

    return CallablePolicy(fn)


def test_grid_policies_replay_the_solver_tables_bit_for_bit():
    # the seeds and the grid were fixed before the first run
    spec, grid = saturated_model(), Grid1D(-3.0, 3.0, 61)
    stationary, timed = solve_discounted(spec, grid), solve_finite_horizon(spec, grid)
    assert 0 < stationary.policy.mean() < 1 and 0 < timed.policy.mean() < 1  # both actions are used
    runs = [
        (lambda policy: mc_discounted(spec, policy, [0.5], 1, spec.costs.alpha, 0.01, 256, seed=11),
         GridPolicy(spec, grid, stationary.policy), stationary),
        (lambda policy: mc_finite_horizon(spec, policy, [-0.5], 2, 1.0, 0.01, 256, seed=12),
         TimeGridPolicy(spec, grid, timed.policy, timed.horizon), timed),
    ]
    for run, policy, sol in runs:
        grid_run, callable_run = run(policy), run(_nearest_node_policy(sol))
        for field in ("value", "stderr", "paths", "truncation_bias_bound", "capped_fraction"):
            assert getattr(grid_run, field) == getattr(callable_run, field)


# ---------------------------------------------------------------------------
# the exit estimator against its per-row restatement


def _plane_model():
    """Two regimes in d = 2 with two Wiener components, constant drift and
    diffusion, a state-dependent cost, beta = 0.5 and h = 0.3 on the square
    (-1, 1)^2."""
    n = 2
    return ModelSpec(
        dim=2,
        regimes=RegimeSet(n),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("constant", 2, n, 1, b0=np.array([[0.4, -0.2], [-0.3, 0.1]])),
        diffusion=DiffusionFamily(
            "constant", 2, n, c0=np.array([[[0.8, 0.2], [0.0, 0.6]], [[0.5, 0.0], [0.3, 0.9]]]),
        ),
        generator=GeneratorSpec("constant", n, rates=np.array([[-1.0, 1.0], [2.0, -2.0]])),
        costs=CostSpec(
            running=RunningCost("quad-clamped", n, 2, 1, weight=1.0, cap=0.5, offset=0.1),
            alpha=1.0,
            horizon=1.0,
            terminal=TerminalCost("zero", n, 2),
            exit_h=BoundaryCost("constant", value=0.3),
            exit_beta=ExitDiscount("constant", value=0.5),
            exit_domain=(-1.0, 1.0),
        ),
    )


def _mc_exit_per_row(spec, policy, x0, i0, dt, n_paths, seed, t_cap, batch):
    """mc_exit restated with a discount per row: each row's B is summed from
    beta.eval_batch and compacted with the rows, and h comes from
    exit_h.eval_batch at the exit. Returns (value, stderr, capped_fraction)."""
    n_cap = int(math.ceil(t_cap / dt - 1e-9))
    (lo, hi), beta, exit_h = spec.costs.exit_domain, spec.costs.exit_beta, spec.costs.exit_h
    values = np.zeros(n_paths)
    capped = np.zeros(n_paths, dtype=bool)
    for start in range(0, n_paths, batch):
        m = min(batch, n_paths - start)
        eng = BatchStepper(spec, x0, i0, dt, seed, first_path_index=start, n_paths=m)
        acc, log_disc = np.zeros(m), np.zeros(m)
        for k in range(n_cap + 1):
            out = np.any((eng.x <= lo) | (eng.x >= hi), axis=1) & eng.alive
            if np.any(out):
                h = exit_h.eval_batch(eng.x[out], eng.s[out])
                values[start + eng.original_index[out]] = acc[out] + np.exp(-log_disc[out]) * h
                eng.mark_dead(out)
            if eng.n_alive == 0:
                break
            if k == n_cap:
                orig = start + eng.original_index[eng.alive]
                capped[orig] = True
                values[orig] = acc[eng.alive]
                break
            u = eng.actions(policy)
            c = spec.costs.running.eval_batch(eng.x, eng.s, u)
            b = beta.eval_batch(eng.x, eng.s, u)
            acc += np.exp(-log_disc) * c * dt
            log_disc += b * dt
            keep = eng.step(u)
            if keep is not None:
                acc, log_disc = acc[keep], log_disc[keep]
    mean = pairwise_sum(values) / n_paths
    var = pairwise_sum((values - mean) ** 2) / (n_paths - 1)
    return mean, math.sqrt(max(var, 0.0) / n_paths), pairwise_sum(capped.astype(np.float64)) / n_paths


EXIT_CASES = {
    # the constant action 3 is clamped to 1; beta = 0.25, h = 0.5
    "saturated": (saturated_model, ConstantPolicy([3.0]), [0.0], 1, 0.002, 3000, 11, 2.0, 1024),
    "bm": (lambda: bm_model(math.sqrt(2.0), 1.0), ZERO, [0.3], 1, 5e-4, 600, 2, 6.0, 256),
    "plane": (_plane_model, ZERO, [0.2, -0.1], 2, 0.002, 800, 5, 1.5, 300),
    # exits at step 89, where math.exp(-B) is one ulp off numpy's exp and
    # the payoff shows it
    "drift": (_drift_model, ZERO, [0.115], 1, 0.01, 4, 1, 3.0, 4),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_equals_the_per_row_discount_loop(case):
    make, policy, x0, i0, dt, n_paths, seed, t_cap, batch = EXIT_CASES[case]
    spec = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapFractionWarning)
        est = mc_exit(spec, policy, x0, i0, dt, n_paths, seed, t_cap, batch=batch)
        ref = _mc_exit_per_row(spec, policy, x0, i0, dt, n_paths, seed, t_cap, batch)
    assert (est.value, est.stderr, est.capped_fraction) == ref
    if case == "saturated":
        assert 0.0 < est.capped_fraction < 0.2


def _constant_coefficient_model():
    """chain_model with a nonzero constant drift: the scalar step reads
    only the drift and noise columns."""
    return dataclasses.replace(
        chain_model(sigma=0.5), drift=DriftFamily("constant", 1, 2, 1, b0=np.array([[0.3], [-0.4]])),
    )


@pytest.mark.parametrize(
    "make,x0",
    [(saturated_model, [0.0]), (_plane_model, [0.0, 0.0]), (_constant_coefficient_model, [0.0])],
)
def test_step_leaves_retired_rows_unchanged(make, x0):
    # a twin batch that retires no row shows that the living rows still
    # take the same steps
    spec = make()
    eng = BatchStepper(spec, x0, 1, 0.002, seed=9, n_paths=16)
    twin = BatchStepper(spec, x0, 1, 0.002, seed=9, n_paths=16)
    u = np.zeros((16, spec.actions.action_dim))
    for _ in range(5):
        eng.step(u)
        twin.step(u)
    dead = np.zeros(16, dtype=bool)
    dead[[1, 4, 5, 11]] = True
    eng.mark_dead(dead)
    frozen = eng.x[dead].copy()
    for _ in range(3):
        assert eng.step(u) is None  # 12 of 16 rows alive: no compaction
        twin.step(u)
        assert np.array_equal(eng.x[dead], frozen)
        assert np.array_equal(eng.x[~dead], twin.x[~dead])
        assert np.array_equal(eng.s[~dead], twin.s[~dead])
    assert not np.array_equal(twin.x[dead], frozen)
