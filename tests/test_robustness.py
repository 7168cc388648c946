"""Perturbation sweeps: gap decay, exact control rows, 3-eps replay."""

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    BlowupError,
    ConfigError,
    ActionGrid,
    DegenerateError,
    DiffusionFamily,
    DriftFamily,
    GeneratorSpec,
    Grid1D,
    LQSpec,
    MaxIterError,
    PerturbationSchedule,
    RegimeSet,
    RiccatiTrajectory,
    RunningCost,
    ShapeError,
    TerminalCost,
    estimate_ergodic,
    estimate_ergodic_policy,
    evaluate_policy_exit,
    evaluate_policy_finite_horizon,
    evaluate_policy_value,
    fixed_feedback_cost,
    lq_feedback,
    lq_from_model,
    make_perturbation_sequence,
    solve_coupled_riccati,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
)
from switchsde import hjbgrid, riccati, robustness
from switchsde.hjbgrid import _evaluate, _Tables
from switchsde.riccati import _stage_stack
from switchsde.robustness import (
    GAP_CHUNK,
    SWEEP_HEADER,
    _replay,
    _spectral_gaps,
    _worst_eps_policy,
    check_eps_optimality,
    sweep_grid,
    sweep_lq_finite_horizon,
)
from conftest import chain_model, lq_model, scalar_lq


@pytest.fixture
def lq_schedule():
    return PerturbationSchedule(
        "combined", 4,
        d_a=np.full((2, 2, 2), 0.1), d_b=np.full((2, 2, 1), 0.1),
        d_c=np.full((2, 2, 2), 0.05), d_m=np.array([[0.0, 0.5], [1.0, 0.0]]),
    )


@pytest.fixture
def sat_schedule():
    return PerturbationSchedule(
        "coefficient", 3, d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3)
    )


@pytest.fixture
def sat_grid():
    return Grid1D(-2.0, 2.0, 51)


# ---------------------------------------------------------------------------
# LQ sweep


def test_lq_sweep_gaps_decay_and_control_row_vanishes(ref_lq, lq_schedule):
    rep = sweep_lq_finite_horizon(ref_lq, lq_schedule, x0=[1.0, 0.5], i0=1, steps=200)
    assert rep.criterion == "lq-finite-horizon"
    assert len(rep.rows) == 6  # n_max + 1 schedule rows plus the delta = 0 control
    deltas = rep.column("delta")
    assert deltas[-1] == 0.0 and np.all(np.diff(deltas[:-1]) < 0)
    vg = rep.column("value_gap")
    pl = rep.column("policy_loss")
    assert np.all(np.diff(vg) < 0)
    assert np.all(pl >= -1e-12)
    # the control row replays the true model against itself: exact zeros
    assert vg[-1] == 0.0 and pl[-1] == 0.0
    # performance loss is second order, so it decays faster than the gap
    assert pl[4] / pl[0] < vg[4] / vg[0]


CRITERION_4 = PerturbationSchedule(
    "combined", 10,
    d_a=np.array([[[0.2, 0.0], [0.1, 0.3]], [[0.3, 0.1], [0.0, 0.2]]]),
    d_b=np.array([[[0.1], [0.2]], [[0.2], [0.1]]]),
    d_c=np.array([[[0.05, 0.0], [0.0, 0.05]], [[0.05, 0.02], [0.0, 0.05]]]),
    d_m=np.array([[0.0, 0.5], [1.0, 0.0]]),
)


def _hermite_stage_k(lq, steps):
    """K at the 2 steps + 1 RK4 stage times: the nodes of solve_coupled_riccati(lq, steps) and,
    between them, cubic Hermite midpoints on slopes from the textbook full-matrix right side."""
    k = solve_coupled_riccati(lq, n_steps=steps).k
    t = lambda x: np.swapaxes(x, -1, -2)
    s = lq.b @ np.linalg.inv(lq.r) @ t(lq.b)
    k_dot = -(t(lq.a) @ k + k @ lq.a + t(lq.c) @ k @ lq.c - k @ s @ k + lq.q
              + np.einsum("ij,tjpq->tipq", lq.rates, k))
    stage = np.empty((2 * steps + 1, *k.shape[1:]))
    stage[::2] = k
    stage[1::2] = 0.5 * (k[:-1] + k[1:]) + (lq.horizon / steps / 8.0) * (k_dot[:-1] - k_dot[1:])
    return stage


def _rowwise_lq_sweep(true_lq, sched, x0, i0, steps):
    """(value_gap, policy_loss, aux) per row, one model at a time: K and the gains at the
    replay's stage times, the gains replayed in the true model by fixed_feedback_cost."""
    x0 = np.asarray(x0, dtype=np.float64)
    stage_times = np.linspace(0.0, true_lq.horizon, 2 * steps + 1)

    def solve(lq):
        k = _hermite_stage_k(lq, steps)
        gains = lq_feedback(RiccatiTrajectory(times=stage_times, k=k), lq)
        m = fixed_feedback_cost(true_lq, gains, n_steps=steps)
        return k, gains.gains, float(x0 @ m.k[0, i0 - 1] @ x0)

    def gap(a, b):
        return float(np.max(np.linalg.norm(a - b, ord=2, axis=(-2, -1))))

    k, f, base = solve(true_lq)
    models = [lq_from_model(m) for m in make_perturbation_sequence(lq_model(true_lq), sched)]
    if sched.magnitudes[-1] != 0.0:
        models.append(true_lq)  # the delta = 0 control row
    rows = []
    for model in models:
        k_n, f_n, cost = solve(model)
        rows.append((gap(k_n, k), cost - base, gap(f_n, f)))
    return np.array(rows)


LQ_SCHEDULES = {
    "combined": CRITERION_4,
    "rates": PerturbationSchedule("rates", 4, d_m=np.array([[0.0, 0.5], [1.0, 0.0]])),
    "custom": dataclasses.replace(CRITERION_4, n_max=3, magnitudes=[0.7, 0.3, 0.1, 0.02]),
    "custom-ending-in-0": dataclasses.replace(CRITERION_4, n_max=3, magnitudes=[0.7, 0.3, 0.1, 0.0]),
}


@pytest.mark.parametrize("which", LQ_SCHEDULES)
def test_stacked_lq_sweep_matches_rowwise_reference(ref_lq, which):
    sched = LQ_SCHEDULES[which]
    x0, i0, steps = [1.0, 0.5], 2, 200
    rep = sweep_lq_finite_horizon(ref_lq, sched, x0=x0, i0=i0, steps=steps)
    got = np.column_stack([rep.column(c) for c in ("value_gap", "policy_loss", "aux")])
    np.testing.assert_allclose(
        got, _rowwise_lq_sweep(ref_lq, sched, x0, i0, steps), rtol=1e-12, atol=1e-12
    )


def test_hermite_midpoints_converge_at_fourth_order(ref_lq):
    # the midpoints against K at the same times from a solve on twice as many steps
    errs = [
        np.abs(_stage_stack([ref_lq], n)[1::2, 0] - solve_coupled_riccati(ref_lq, n_steps=2 * n).k[1::2]).max()
        for n in (100, 200, 400)
    ]
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(np.abs(orders - 4.0) <= 0.5), orders


def test_lq_sweep_losses_and_gain_gaps_converge_at_fourth_order(ref_lq):
    def columns(steps):
        rep = sweep_lq_finite_horizon(ref_lq, CRITERION_4, x0=[1.0, 0.5], i0=2, steps=steps)
        return np.column_stack([rep.column("policy_loss"), rep.column("aux")])

    fine = columns(3200)
    steps = np.array([100, 200, 400])
    errs = np.array([np.abs(columns(n) - fine).max(axis=0) for n in steps])
    orders = -np.polyfit(np.log2(steps), np.log2(errs), 1)[0]
    assert np.all(np.abs(orders - 4.0) <= 0.5), orders


@pytest.mark.parametrize("steps", [10, 100])
def test_lq_rows_report_the_riccati_steps_run(ref_lq, lq_schedule, monkeypatch, steps):
    runs = []
    integrate = riccati._integrate_backward

    def counted(rhs, terminal, horizon, n_steps):
        runs.append(n_steps)
        return integrate(rhs, terminal, horizon, n_steps)

    monkeypatch.setattr(riccati, "_integrate_backward", counted)
    rep = sweep_lq_finite_horizon(ref_lq, lq_schedule, x0=[1.0, 0.5], i0=1, steps=steps)
    assert runs == [steps, steps]  # the Riccati solve, then the replay
    assert [r.solver_iters for r in rep.rows] == [steps] * len(rep.rows)


@pytest.mark.parametrize("x0,i0", [([1.0, 2.0, 3.0], 1), ([1.0, np.nan], 1), ([1.0, 0.5], 1.5)],
                         ids=["x0-too-long", "x0-not-finite", "i0-not-whole"])
def test_lq_sweep_start_that_is_not_a_state_and_regime_is_a_shape_error(ref_lq, lq_schedule, monkeypatch,
                                                                         x0, i0):
    def no_solve(*args):
        raise AssertionError("a solve ran before the start was checked")

    monkeypatch.setattr(riccati, "_integrate_backward", no_solve)
    with pytest.raises(ShapeError) as info:
        sweep_lq_finite_horizon(ref_lq, lq_schedule, x0=x0, i0=i0, steps=100)
    assert info.value.code == "E_SHAPE"


def _gap_stack(shape, d, n_regimes, log_scale, seed, n_times, tied=False):
    """(stack, rows, cols): 5 blocks of n_times matrices, block 1 equal to the reference, the last
    block. Tied stacks have entries in {-1, 0, 1} times a power of two, so many of their
    differences have exactly equal traces but different largest Gram eigenvalues."""
    rng = np.random.default_rng(seed)
    rows, cols = {"symmetric": (d, d), "row": (1, d), "column": (d, 1),
                  "general": tuple(rng.integers(1, 5, size=2))}[shape]
    size = (n_times, 5, n_regimes, rows, cols)
    if tied:
        stack = 2.0 ** round(log_scale) * rng.integers(-1, 2, size=size).astype(np.float64)
    else:
        stack = 10.0**log_scale * rng.normal(size=size)
    if shape == "symmetric":
        stack = stack + stack.swapaxes(-1, -2)
    stack[:, 1] = stack[:, -1]
    return stack, rows, cols


GAP_STACKS = dict(
    shape=st.sampled_from(["symmetric", "row", "column", "general"]), d=st.integers(1, 4),
    n_regimes=st.integers(1, 3), log_scale=st.floats(-8.0, 3.0), seed=st.integers(0, 2**32 - 1),
    n_times=st.sampled_from([7, 2 * GAP_CHUNK + 3]),
)


@settings(max_examples=60, deadline=None)
@given(**GAP_STACKS)
def test_spectral_gaps_match_the_blockwise_two_norm(shape, d, n_regimes, log_scale, seed, n_times):
    stack, rows, cols = _gap_stack(shape, d, n_regimes, log_scale, seed, n_times)
    got = _spectral_gaps(stack)
    expect = np.linalg.norm(stack - stack[:, -1:], ord=2, axis=(-2, -1)).max(axis=(0, 2))
    assert got[1] == 0.0 and got[-1] == 0.0 and not np.signbit(got).any()
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)
    # the same eigen-solve over all time nodes at once, bit for bit
    g = stack - stack[:, -1:]
    g = g @ g.swapaxes(-1, -2) if rows <= cols else g.swapaxes(-1, -2) @ g
    assert np.array_equal(got, np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(g)[..., -1].max(axis=(0, 2)))))


def _unpruned_gaps(stack):
    """The largest Gram eigenvalue of every entry, GAP_CHUNK time nodes at a time, maximized per block."""
    top = np.full(stack.shape[1], -np.inf)
    for t in range(0, len(stack), GAP_CHUNK):
        g = stack[t:t + GAP_CHUNK] - stack[t:t + GAP_CHUNK, -1:]
        g = g @ g.swapaxes(-1, -2) if g.shape[-2] <= g.shape[-1] else g.swapaxes(-1, -2) @ g
        top = np.maximum(top, np.linalg.eigvalsh(g)[..., -1].max(axis=(0, 2)))
    return np.sqrt(np.maximum(0.0, top))


@settings(max_examples=80, deadline=None)
@given(**GAP_STACKS, tied=st.booleans())
def test_pruned_spectral_gaps_equal_an_unpruned_evaluation(shape, d, n_regimes, log_scale, seed, n_times, tied):
    stack, _, _ = _gap_stack(shape, d, n_regimes, log_scale, seed, n_times, tied)
    assert np.array_equal(_spectral_gaps(stack), _unpruned_gaps(stack))


@pytest.mark.parametrize(
    "key,direction",
    [("d_a", np.ones((2, 1, 1))), ("d_b", np.ones((2, 2, 2))), ("d_c", np.ones((2, 2))),
     ("d_m", np.zeros((3, 3)))],
)
def test_lq_direction_of_the_wrong_shape_is_a_shape_error(ref_lq, key, direction):
    # a (2, 1, 1) d_a used to be broadcast into every entry of A
    sched = PerturbationSchedule("combined", 1, **{key: direction})
    with pytest.raises(ShapeError) as info:
        sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=1, steps=100)
    assert info.value.path == f"schedule.{key}"


def test_lq_sweep_rejects_a_cost_shift(ref_lq):
    sched = PerturbationSchedule("combined", 1, d_m=np.zeros((2, 2)), d_cost=1.0)
    with pytest.raises(ConfigError) as info:
        sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=1, steps=100)
    assert info.value.path == "schedule.d_cost"


@pytest.mark.parametrize("sched,key", [
    (PerturbationSchedule("cost", 1, d_cost=1.0), "d_cost"),
    (PerturbationSchedule("noise-approx", 1, hat_sigma=np.ones((2, 1, 1))), "hat_sigma"),
], ids=["cost", "noise-approx"])
def test_lq_sweep_rejects_a_mode_without_an_lq_direction(ref_lq, sched, key):
    # the all-lq model's running cost and diffusion kinds take neither direction,
    # so the LQ sweep rejects them where a grid sweep would, at the direction
    with pytest.raises(ConfigError) as info:
        sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=1, steps=100)
    assert info.value.path == f"schedule.{key}"


def test_lq_cost_schedule_without_a_direction_gives_zero_rows(ref_lq):
    rep = sweep_lq_finite_horizon(ref_lq, PerturbationSchedule("cost", 2), x0=[1.0, 0.5], i0=1, steps=50)
    assert len(rep.rows) == 4
    for name in ("value_gap", "policy_loss", "aux"):
        assert np.all(rep.column(name) == 0.0), name


@pytest.mark.parametrize("p_val", [1e-13, -1e-13])
def test_a_zero_shift_lq_sweep_keeps_a_semidefinite_p_exactly(p_val):
    # every row rebuilds the true model bit for bit, so every gap is 0
    sched = PerturbationSchedule("coefficient", 3, d_a=np.zeros((1, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sweep_lq_finite_horizon(scalar_lq(p_val), sched, x0=[1.0], i0=1, steps=50)
    for name in ("value_gap", "policy_loss", "aux"):
        assert rep.column(name).tolist() == [0.0] * 5, name


NON_FINITE_DIRECTIONS = {  # key: (mode, the key's shape on saturated_model, on reference_lq or None)
    "d_a": ("combined", (2, 1, 1), (2, 2, 2)),
    "d_b": ("combined", (2, 1, 1), (2, 2, 1)),
    "d_c": ("combined", (2, 1, 1), (2, 2, 2)),
    "d_m": ("combined", (2, 2), (2, 2)),
    "d_cost": ("combined", (), None),
    "hat_b": ("noise-approx", (1,), None),
    "hat_sigma": ("noise-approx", (1, 1), None),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key,sweep", [
    pytest.param(k, sweep, id=f"{k}-{sweep}") for sweep in ("grid", "lq")
    for k, (*_, lq_shape) in NON_FINITE_DIRECTIONS.items() if sweep == "grid" or lq_shape
])
def test_a_non_finite_direction_is_a_config_error_at_its_key(saturated, ref_lq, key, sweep, value):
    # NaN d_a once ended the LQ sweep as E_BLOWUP and the grid sweep as
    # E_SCHEME, inf d_m as E_RATES at lq.rates, inf d_cost as E_UNBOUNDED
    mode, grid_shape, lq_shape = NON_FINITE_DIRECTIONS[key]
    d = np.zeros(grid_shape if sweep == "grid" else lq_shape)
    d[(0,) * d.ndim] = value
    sched = PerturbationSchedule(mode, 2, **{key: d})
    with pytest.raises(ConfigError) as info:
        if sweep == "grid":
            sweep_grid(saturated, sched, "discounted", Grid1D(-2.0, 2.0, 21))
        else:
            sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=1, steps=50)
    assert info.value.code == "E_CONFIG" and info.value.path == f"schedule.{key}"


@pytest.mark.parametrize("i0", [0, 3])
def test_lq_sweep_rejects_a_regime_out_of_range(ref_lq, lq_schedule, i0):
    with pytest.raises(ShapeError, match="out of range"):
        sweep_lq_finite_horizon(ref_lq, lq_schedule, x0=[1.0, 0.5], i0=i0, steps=100)


def test_lq_sweep_raises_when_a_member_blows_up():
    # the true model is tame; delta = 1 pushes A to 5.5 over horizon 4
    lq = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.full((1, 1, 1), 0.5), b=np.zeros((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.ones((1, 1, 1)),
        rates=np.zeros((1, 1)), horizon=4.0,
    )
    solve_coupled_riccati(lq, n_steps=400)
    sched = PerturbationSchedule("coefficient", 2, d_a=np.full((1, 1, 1), 5.0))
    with pytest.raises(BlowupError):
        sweep_lq_finite_horizon(lq, sched, x0=[1.0], i0=1, steps=200)


# ---------------------------------------------------------------------------
# grid sweeps


@pytest.mark.parametrize("criterion", ["discounted", "exit", "finite-horizon"])
def test_grid_sweep_structure(saturated, sat_schedule, sat_grid, criterion):
    rep = sweep_grid(saturated, sat_schedule, criterion, sat_grid)
    assert len(rep.rows) == 5
    vg = rep.column("value_gap")
    pl = rep.column("policy_loss")
    aux = rep.column("aux")
    assert vg[3] < vg[0]
    assert np.all(pl >= -1e-8)
    assert np.all(np.isfinite(aux))
    # triangle bound: replaying a nearby model's policy costs at most
    # the value gap plus the cross-model term
    assert np.all(pl <= vg + aux + 1e-9)
    # control row: identical model, identical policy
    assert vg[-1] == 0.0 and pl[-1] == 0.0


def test_grid_sweep_ergodic_matches_stationary_formula(chain):
    # perturbing only m12 shifts the stationary law: with m12 = 1 + delta
    # and m21 = 2 the average cost is (4 + 2 delta)/(3 + delta)
    sched = PerturbationSchedule("rates", 3, d_m=np.array([[0.0, 1.0], [0.0, 0.0]]))
    rep = sweep_grid(chain, sched, "ergodic", Grid1D(-1.0, 1.0, 101))
    for row in rep.rows:
        d = row.delta
        expected = abs((4.0 + 2.0 * d) / (3.0 + d) - 4.0 / 3.0)
        assert row.value_gap == pytest.approx(expected, abs=1e-3)
        assert row.policy_loss == pytest.approx(0.0, abs=1e-9)  # single action


def test_ergodic_grid_sweep_honours_max_iter(saturated, sat_grid):
    sched = PerturbationSchedule("coefficient", 0, d_a=np.ones((2, 1, 1)))
    with pytest.raises(MaxIterError):
        sweep_grid(saturated, sched, "ergodic", sat_grid, max_iter=1)


@pytest.mark.parametrize("check", ["sweep", "eps"])
def test_stationary_sweeps_reject_an_infinite_tol(saturated, sat_grid, check):
    sched = PerturbationSchedule("coefficient", 2, d_a=np.ones((2, 1, 1)))
    with pytest.raises(ConfigError, match="tol must be") as info:
        if check == "sweep":
            sweep_grid(saturated, sched, "discounted", sat_grid, tol=math.inf)
        else:
            check_eps_optimality(saturated, sched, "discounted", 0.05, sat_grid, tol=math.inf)
    assert info.value.path == "tol"


def test_grid_sweep_rejects_unknown_criterion(chain, sat_schedule):
    with pytest.raises(ConfigError, match="criterion"):
        sweep_grid(chain, sat_schedule, "myopic", Grid1D(-1.0, 1.0, 11))


def test_sweep_csv_deterministic(saturated, sat_schedule, sat_grid, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    sweep_grid(saturated, sat_schedule, "discounted", sat_grid).to_csv(a)
    sweep_grid(saturated, sat_schedule, "discounted", sat_grid).to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6


def _first_regime(spec):
    """The saturated model's first regime alone: one regime, two actions."""
    return dataclasses.replace(
        spec,
        regimes=RegimeSet(1),
        drift=DriftFamily(
            "saturated-affine", 1, 1, 1, a_mat=spec.drift.a_mat[:1], b_mat=spec.drift.b_mat[:1],
            b0=spec.drift.b0[:1], saturation=spec.drift.saturation,
        ),
        diffusion=DiffusionFamily("constant", 1, 1, c0=spec.diffusion.c0[:1]),
        generator=GeneratorSpec("constant", 1, rates=np.zeros((1, 1))),
        costs=dataclasses.replace(
            spec.costs,
            running=RunningCost("quad-clamped", 1, 1, 1, weight=1.0, cap=4.0, action_weight=0.1),
            terminal=TerminalCost("quad", 1, 1, p_mat=np.full((1, 1, 1), 0.5)),
        ),
    )


SWEEP_CASES = {
    # criterion 9's schedule and grid
    "criterion-9": (
        lambda m: m, Grid1D(-2.0, 2.0, 201),
        PerturbationSchedule("coefficient", 10, d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3)),
    ),
    # shifts the cost offset, so each model has its own bound M_c
    "cost": (lambda m: m, Grid1D(-2.0, 2.0, 51), PerturbationSchedule("cost", 4, d_cost=0.5)),
    "rates": (
        lambda m: m, Grid1D(-2.0, 2.0, 51),
        PerturbationSchedule("rates", 4, d_m=np.array([[0.0, 0.5], [1.0, 0.0]])),
    ),
    "one-regime": (
        _first_regime, Grid1D(-2.0, 2.0, 51),
        PerturbationSchedule("coefficient", 4, d_a=np.ones((1, 1, 1)), d_c=np.full((1, 1, 1), 0.3)),
    ),
    # shifts the action loading: no perturbed row shares the true stationary policy
    "distinct": (
        lambda m: m, Grid1D(-2.0, 2.0, 201), PerturbationSchedule("coefficient", 3, d_b=np.ones((2, 1, 1))),
    ),
}


def _rowwise_grid_sweep(true_spec, sched, criterion, grid, max_iter=100, n_t=None):
    """(value_gap, policy_loss, aux, solver_iters) per row, one model at a time
    through the public solvers."""
    models = make_perturbation_sequence(true_spec, sched)
    if sched.magnitudes[-1] != 0.0:
        models.append(true_spec)  # the delta = 0 control row
    if criterion == "ergodic":
        est_true = estimate_ergodic(true_spec, grid, max_iter=max_iter)
        rows = []
        for model in models:
            est = estimate_ergodic(model, grid, max_iter=max_iter)
            rho = estimate_ergodic_policy(true_spec, grid, est.policy)
            rows.append((abs(est.rho - est_true.rho), rho - est_true.rho, abs(rho - est.rho),
                         est.iterations))
        return rows
    solve, evaluate = {
        "discounted": (lambda m: solve_discounted(m, grid, max_iter=max_iter), evaluate_policy_value),
        "exit": (lambda m: solve_exit(m, grid, max_iter=max_iter), evaluate_policy_exit),
        "finite-horizon": (lambda m: solve_finite_horizon(m, grid, n_t=n_t), evaluate_policy_finite_horizon),
    }[criterion]
    first = (lambda a: a[0]) if criterion == "finite-horizon" else (lambda a: a)
    v_true = solve(true_spec).values
    rows = []
    for model in models:
        sol = solve(model)
        j = evaluate(true_spec, grid, sol.policy).values
        rows.append((
            float(np.max(np.abs(sol.values - v_true))),
            float(np.max(first(j) - first(v_true))),
            float(np.max(np.abs(first(j) - first(sol.values)))),
            sol.iterations,
        ))
    return rows


@pytest.mark.parametrize("criterion", ["discounted", "exit", "finite-horizon", "ergodic"])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_stacked_grid_sweep_matches_rowwise_reference(saturated, case, criterion):
    model, grid, sched = SWEEP_CASES[case]
    true_spec = model(saturated)
    rep = sweep_grid(true_spec, sched, criterion, grid)
    want = _rowwise_grid_sweep(true_spec, sched, criterion, grid)
    assert [(r.value_gap, r.policy_loss, r.aux) for r in rep.rows] == [w[:3] for w in want]
    if criterion == "finite-horizon":
        # more levels than the default 20 carry a differing row across more of them
        for n_t in (11, 40):
            rows = sweep_grid(true_spec, sched, criterion, grid, n_t=n_t).rows
            want_t = _rowwise_grid_sweep(true_spec, sched, criterion, grid, n_t=n_t)
            assert [(r.value_gap, r.policy_loss, r.aux, r.solver_iters) for r in rows] == want_t
    # the true model runs cold, as alone; every other row starts from its
    # optimal policy, and on these schedules never needs more iterations
    for row, (*_, cold) in zip(rep.rows, want):
        if row.delta == 0.0:
            assert row.solver_iters == cold
        else:
            assert row.solver_iters <= cold


@pytest.mark.parametrize("criterion", ["discounted", "exit"])
def test_stacked_sweep_names_the_first_row_short_of_max_iter(saturated, criterion):
    grid = Grid1D(-2.0, 2.0, 51)
    # the true model runs first, so one iteration short of its own count
    # fails there and names the control row
    _, _, sched = SWEEP_CASES["criterion-9"]
    rows = sweep_grid(saturated, sched, criterion, grid).rows
    with pytest.raises(MaxIterError, match=f"schedule row n = {len(rows) - 1}, delta = 0\\)"):
        sweep_grid(saturated, sched, criterion, grid, max_iter=rows[-1].solver_iters - 1)

    # a true model whose action does not move the drift converges at once,
    # and its policy is a poor start for rows whose action does
    blind = dataclasses.replace(
        saturated, drift=dataclasses.replace(saturated.drift, b_mat=np.zeros((2, 1, 1)))
    )
    sched = PerturbationSchedule("coefficient", 4, d_b=np.ones((2, 1, 1)))
    rows = sweep_grid(blind, sched, criterion, grid).rows
    iters = [r.solver_iters for r in rows]
    max_iter = max(iters) - 1
    assert iters[-1] <= max_iter  # the true model converges within the budget
    n = next(k for k, it in enumerate(iters) if it > max_iter)
    with pytest.raises(MaxIterError, match=f"schedule row n = {n}, delta = {rows[n].delta:g}\\)"):
        sweep_grid(blind, sched, criterion, grid, max_iter=max_iter)


def _rowwise_eps_gaps(true_spec, sched, criterion, eps, grid):
    """The 3-eps replay gap per row, one model at a time."""
    solve, evaluate = {
        "discounted": (solve_discounted, evaluate_policy_value),
        "exit": (solve_exit, evaluate_policy_exit),
    }[criterion]
    models = make_perturbation_sequence(true_spec, sched)
    if sched.magnitudes[-1] != 0.0:
        models.append(true_spec)  # the delta = 0 control row
    v_true = solve(true_spec, grid).values
    gaps = []
    for model in models:
        values = solve(model, grid).values
        tab = _Tables([model], grid)
        policy = _worst_eps_policy(tab, values[:, None], eps)[:, 0]
        gaps.append(float(np.max(np.abs(evaluate(true_spec, grid, policy).values - v_true))))
    return gaps


@pytest.mark.parametrize("criterion", ["discounted", "exit"])
def test_stacked_eps_check_matches_rowwise_reference(saturated, criterion):
    _, grid, sched = SWEEP_CASES["criterion-9"]
    rep = check_eps_optimality(saturated, sched, criterion, 0.05, grid)
    assert [r.gap for r in rep.rows] == _rowwise_eps_gaps(saturated, sched, criterion, 0.05, grid)


# ---------------------------------------------------------------------------
# the replay solves the true row and the rows whose replay input differs


def _rowwise_policies(true_spec, sched, criterion, grid):
    """Each row's replayed action table, one model at a time, the true model's
    last: its optimal table ((n_t, N, K) for the finite horizon), or for
    'eps-<criterion>' its worst table within 0.05 of the Hamiltonian minimum."""
    models = make_perturbation_sequence(true_spec, sched)
    if sched.magnitudes[-1] != 0.0:
        models.append(true_spec)  # the delta = 0 control row
    if criterion.startswith("eps-"):
        criterion = criterion[4:]
        solve = {"discounted": solve_discounted, "exit": solve_exit}[criterion]
        return [
            _worst_eps_policy(_Tables([m], grid), solve(m, grid).values[:, None], 0.05)[:, 0]
            for m in models
        ]
    solve = {"discounted": solve_discounted, "exit": solve_exit, "finite-horizon": solve_finite_horizon,
             "ergodic": estimate_ergodic}[criterion]
    return [solve(m, grid).policy for m in models]


@pytest.mark.parametrize("criterion", ["discounted", "exit"])
@pytest.mark.parametrize("case", ["cost", "distinct"])
def test_eps_check_matches_rowwise_reference_however_many_rows_share_the_true_policy(
    saturated, case, criterion
):
    _, grid, sched = SWEEP_CASES[case]
    rep = check_eps_optimality(saturated, sched, criterion, 0.05, grid)
    assert [r.gap for r in rep.rows] == _rowwise_eps_gaps(saturated, sched, criterion, 0.05, grid)


def test_cost_rows_all_share_the_true_policy_and_distinct_rows_none(saturated):
    for case, shared in (("cost", True), ("distinct", False)):
        _, grid, sched = SWEEP_CASES[case]
        for criterion in ("discounted", "ergodic", "eps-discounted"):
            policies = _rowwise_policies(saturated, sched, criterion, grid)
            assert [np.array_equal(p, policies[-1]) for p in policies[:-1]] == [shared] * (len(policies) - 1)


@pytest.fixture
def replay_solves(monkeypatch):
    """Per stationary replay (_replay) or finite-horizon level solve
    (_step_back), in call order, the LAPACK dgbtrf factorizations made
    inside it and the right sides handed to dgbtrs, as [factorizations,
    right sides, unknowns], unknowns summing the rows of each dgbtrs call's
    right sides."""
    lapack, counts, inside = hjbgrid._lapack(), [], []

    def dgbtrf(ab, *args, **kwargs):
        if inside:
            counts[-1][0] += 1
        return lapack.dgbtrf(ab, *args, **kwargs)

    def dgbtrs(ab, kl, ku, b, *args, **kwargs):
        if inside:
            counts[-1][1] += b.shape[1]
            counts[-1][2] += b.shape[0]
        return lapack.dgbtrs(ab, kl, ku, b, *args, **kwargs)

    def counting(replay):
        def call(*args):
            counts.append([0, 0, 0])
            inside.append(True)
            try:
                return replay(*args)
            finally:
                inside.pop()
        return call

    counting_lapack = types.SimpleNamespace(dgbtrf=dgbtrf, dgbtrs=dgbtrs)
    monkeypatch.setattr(hjbgrid, "_lapack", lambda: counting_lapack)
    monkeypatch.setattr(robustness, "_replay", counting(robustness._replay))
    monkeypatch.setattr(hjbgrid, "_step_back", counting(hjbgrid._step_back))
    return counts


@pytest.mark.parametrize(
    "criterion", ["discounted", "exit", "finite-horizon", "ergodic", "eps-discounted", "eps-exit"]
)
@pytest.mark.parametrize("case", ["criterion-9", "cost", "distinct"])
def test_replay_solves_the_true_row_and_the_rows_that_differ(saturated, replay_solves, case, criterion):
    _, grid, sched = SWEEP_CASES[case]
    policies = _rowwise_policies(saturated, sched, criterion, grid)
    replay_solves.clear()  # the reference solves' own levels
    if criterion.startswith("eps-"):
        check_eps_optimality(saturated, sched, criterion[4:], 0.05, grid)
    else:
        sweep_grid(saturated, sched, criterion, grid)
    unknowns = grid.n_x * saturated.regimes.count
    if criterion != "finite-horizon":
        # one stacked solve of the true row and the differing rows
        rows = 1 + sum(not np.array_equal(p, policies[-1]) for p in policies[:-1])
        assert [c[2] for c in replay_solves] == [rows * unknowns]
        return
    # level j replays a row from its table and the later levels' replay, which
    # equals the true row's where the later tables do; the R_j rows that
    # differ ride in the stack's own level system as R_j more blocks, so each
    # level is one factorization and one solve of B + R_j blocks
    expect = []
    for j in range(len(policies[-1]) - 1, -1, -1):
        differ = sum(not np.array_equal(p[j:], policies[-1][j:]) for p in policies[:-1])
        expect.append([1, 1, (len(policies) + differ) * unknowns])
    assert replay_solves == expect
    if case == "distinct":  # every perturbed row is carried at some level
        assert expect[-1][2] == 2 * (len(policies) - 1) * unknowns + unknowns


def test_replay_error_names_the_original_row():
    # with gu = 1 the action u = -20 switches the rates off (g = 1 + tanh(-20)
    # = 0), so a row that takes it in both regimes replays a multichain policy
    spec = dataclasses.replace(
        chain_model(),
        actions=ActionGrid(np.array([[0.0], [-20.0]])),
        generator=GeneratorSpec("state-action-dependent", 2, base=np.array([[0.0, 1.0], [2.0, 0.0]]), gu=1.0),
    )
    grid = Grid1D(-1.0, 1.0, 21)
    tab = _Tables([spec] * 4, grid, [f"schedule row n = {n}" for n in range(4)])
    policy = np.zeros((2, 4, grid.n_x), dtype=np.int64)
    policy[:, 2] = 1  # solved as block 0 of the sub-stack [row 2, row 3]
    with pytest.raises(DegenerateError, match=r"multichain: several closed regime classes \(schedule row n = 2\)"):
        _replay(tab, lambda t, p: _evaluate(t, "ergodic", p)[0], policy)


@pytest.mark.parametrize("check", ["sweep", "eps"])
def test_a_table_error_in_a_stacked_sweep_names_the_row(saturated, check):
    # row 0 (delta = 1) has sigma = 0, so a = sigma^2 / 2 vanishes
    sched = PerturbationSchedule("coefficient", 3, d_c=-np.ones((2, 1, 1)))
    run = {"sweep": lambda: sweep_grid(saturated, sched, "discounted", Grid1D(-2.0, 2.0, 51)),
           "eps": lambda: check_eps_optimality(saturated, sched, "exit", 0.05, Grid1D(-2.0, 2.0, 51))}[check]
    with pytest.raises(DegenerateError) as exc:
        run()
    assert str(exc.value) == (
        "E_DEGENERATE: grid solvers need a = sigma^2 / 2 > 0 at every node (schedule row n = 0, delta = 1)"
    )
    # a one-model solve names no row
    with pytest.raises(DegenerateError) as exc:
        solve_discounted(make_perturbation_sequence(saturated, sched)[0], Grid1D(-2.0, 2.0, 51))
    assert str(exc.value) == "E_DEGENERATE: grid solvers need a = sigma^2 / 2 > 0 at every node"


# magnitudes that end in 0: that row is the true model's own, so no control
# row is appended and the schedule's last row is the true model's block
ENDS_IN_ZERO = {"three-rows": (2, [1.0, 0.5, 0.0]), "zero-only": (0, [0.0])}


def _ends_in_zero(which, mode, **directions):
    n_max, magnitudes = ENDS_IN_ZERO[which]
    return PerturbationSchedule(mode, n_max, magnitudes=np.array(magnitudes), **directions)


@pytest.mark.parametrize("which", sorted(ENDS_IN_ZERO))
@pytest.mark.parametrize("criterion", ["discounted", "exit", "finite-horizon", "ergodic"])
def test_grid_sweep_of_a_schedule_ending_in_zero(saturated, sat_grid, which, criterion):
    sched = _ends_in_zero(which, "coefficient", d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3))
    rep = sweep_grid(saturated, sched, criterion, sat_grid)
    assert [r.delta for r in rep.rows] == list(sched.magnitudes)
    assert (rep.rows[-1].value_gap, rep.rows[-1].policy_loss) == (0.0, 0.0)
    want = _rowwise_grid_sweep(saturated, sched, criterion, sat_grid)
    assert [(r.value_gap, r.policy_loss, r.aux) for r in rep.rows] == [w[:3] for w in want]
    assert rep.rows[-1].solver_iters == want[-1][3]  # the true model runs cold


@pytest.mark.parametrize("which", sorted(ENDS_IN_ZERO))
def test_lq_sweep_of_a_schedule_ending_in_zero(ref_lq, which):
    sched = _ends_in_zero(which, "rates", d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))
    rep = sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=2, steps=200)
    assert [r.delta for r in rep.rows] == list(sched.magnitudes)
    assert (rep.rows[-1].value_gap, rep.rows[-1].policy_loss) == (0.0, 0.0)
    got = np.column_stack([rep.column(c) for c in ("value_gap", "policy_loss", "aux")])
    np.testing.assert_allclose(
        got, _rowwise_lq_sweep(ref_lq, sched, [1.0, 0.5], 2, 200), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("which", sorted(ENDS_IN_ZERO))
@pytest.mark.parametrize("criterion", ["discounted", "exit"])
def test_eps_check_of_a_schedule_ending_in_zero(saturated, sat_grid, which, criterion):
    # at an eps this small the true model's degraded policy is its optimal
    # one, replayed through its own solve, so the last row's gap is 0
    sched = _ends_in_zero(which, "coefficient", d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3))
    rep = check_eps_optimality(saturated, sched, criterion, 1e-12, sat_grid)
    assert [r.delta for r in rep.rows] == list(sched.magnitudes)
    assert rep.rows[-1].gap == 0.0
    assert [r.gap for r in rep.rows] == _rowwise_eps_gaps(saturated, sched, criterion, 1e-12, sat_grid)


# ---------------------------------------------------------------------------
# 3-eps optimality


def test_eps_check_passes_for_moderate_eps(saturated, sat_schedule, sat_grid):
    rep = check_eps_optimality(saturated, sat_schedule, "discounted", 0.05, sat_grid)
    assert rep.threshold_n == 0
    assert rep.passed
    assert rep.verdict == "gap <= 3*eps from n = 0 on"
    assert all(r.gap <= 3.0 * 0.05 for r in rep.rows)
    assert all(r.gap >= 0.0 for r in rep.rows)


def test_eps_check_exit_criterion(saturated, sat_schedule, sat_grid):
    rep = check_eps_optimality(saturated, sat_schedule, "exit", 0.05, sat_grid)
    assert rep.criterion == "exit"
    assert rep.passed


def test_eps_check_fails_below_model_gap_scale(saturated, sat_schedule, sat_grid):
    # eps far below the model gap: row 0's policy misses 3 eps, while a row
    # whose degraded policy is the true optimal table replays it through
    # the very solve that produced the true value, so its gap is exactly 0
    eps = 1e-12
    rep = check_eps_optimality(saturated, sat_schedule, "discounted", eps, sat_grid)
    optimal = solve_discounted(saturated, sat_grid).policy
    models = make_perturbation_sequence(saturated, sat_schedule) + [saturated]
    replays_optimal = []
    for model in models:
        values = solve_discounted(model, sat_grid).values
        tab = _Tables([model], sat_grid)
        degraded = _worst_eps_policy(tab, values[:, None], eps)[:, 0]
        replays_optimal.append(np.array_equal(degraded, optimal))
    assert len(rep.rows) == len(models)
    assert not rep.rows[0].passed and rep.rows[0].gap > 3.0 * eps
    assert not replays_optimal[0] and replays_optimal[-1]
    for row, same in zip(rep.rows, replays_optimal):
        if same:
            assert row.gap == 0.0
    first = next(k for k in range(len(models)) if all(replays_optimal[k:]))
    assert rep.threshold_n == first
    assert rep.passed


def test_eps_check_rejects_bad_arguments(saturated, sat_schedule, sat_grid):
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="eps") as info:
            check_eps_optimality(saturated, sat_schedule, "discounted", eps, sat_grid)
        assert info.value.path == "eps"
    with pytest.raises(ConfigError, match="criterion"):
        check_eps_optimality(saturated, sat_schedule, "ergodic", 0.05, sat_grid)


def test_eps_check_csv_layout(saturated, sat_schedule, sat_grid, tmp_path):
    rep = check_eps_optimality(saturated, sat_schedule, "discounted", 0.05, sat_grid)
    out = tmp_path / "epscheck.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,delta,gap,three_eps,passed"
    assert len(lines) == 6
    # pass flags serialize as 0/1
    assert lines[1].endswith(",1")
