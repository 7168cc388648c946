"""Perturbation sweeps: gap decay, exact control rows, 3-eps replay."""

import dataclasses

import numpy as np
import pytest

from switchsde import (
    BlowupError,
    ConfigError,
    DiffusionFamily,
    DriftFamily,
    GeneratorSpec,
    Grid1D,
    LQSpec,
    MaxIterError,
    PerturbationSchedule,
    RegimeSet,
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
from switchsde.hjbgrid import _Tables
from switchsde.robustness import (
    SWEEP_HEADER,
    _worst_eps_policy,
    check_eps_optimality,
    perturbed_lq_sequence,
    sweep_grid,
    sweep_lq_finite_horizon,
)
from conftest import lq_model


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
LQ_ARRAYS = ("a", "b", "c", "q", "r", "p", "rates")


def _rowwise_lq_sweep(true_lq, sched, x0, i0, steps):
    """(value_gap, policy_loss, aux) per row, one model at a time."""
    x0 = np.asarray(x0, dtype=np.float64)

    def solve(lq):
        traj = solve_coupled_riccati(lq, n_steps=2 * steps)
        gains = lq_feedback(traj, lq)
        m = fixed_feedback_cost(true_lq, gains, n_steps=steps)
        return traj.k, gains.gains, float(x0 @ m.k[0, i0 - 1] @ x0)

    def gap(a, b):
        return float(np.max(np.linalg.norm(a - b, ord=2, axis=(-2, -1))))

    k, f, base = solve(true_lq)
    models = perturbed_lq_sequence(true_lq, sched)
    if sched.magnitudes[-1] != 0.0:
        models.append(true_lq)  # the delta = 0 control row
    rows = []
    for model in models:
        k_n, f_n, cost = solve(model)
        rows.append((gap(k_n, k), cost - base, gap(f_n, f)))
    return np.array(rows)


@pytest.mark.parametrize("which", ["combined", "rates"])
def test_stacked_lq_sweep_matches_rowwise_reference(ref_lq, which):
    if which == "combined":
        sched = CRITERION_4
    else:
        sched = PerturbationSchedule("rates", 4, d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))
    x0, i0, steps = [1.0, 0.5], 2, 200
    rep = sweep_lq_finite_horizon(ref_lq, sched, x0=x0, i0=i0, steps=steps)
    got = np.column_stack([rep.column(c) for c in ("value_gap", "policy_loss", "aux")])
    np.testing.assert_allclose(
        got, _rowwise_lq_sweep(ref_lq, sched, x0, i0, steps), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize(
    "key,direction",
    [("d_a", np.ones((2, 1, 1))), ("d_b", np.ones((2, 2, 2))), ("d_c", np.ones((2, 2))),
     ("d_m", np.zeros((3, 3)))],
)
def test_lq_direction_of_the_wrong_shape_is_a_shape_error(ref_lq, key, direction):
    # a (2, 1, 1) d_a used to be broadcast into every entry of A
    sched = PerturbationSchedule("combined", 1, **{key: direction})
    with pytest.raises(ShapeError) as info:
        perturbed_lq_sequence(ref_lq, sched)
    assert info.value.path == f"schedule.{key}"


def test_lq_sweep_rejects_a_cost_shift(ref_lq):
    sched = PerturbationSchedule("combined", 1, d_m=np.zeros((2, 2)), d_cost=1.0)
    with pytest.raises(ConfigError) as info:
        perturbed_lq_sequence(ref_lq, sched)
    assert info.value.path == "schedule.d_cost"


@pytest.mark.parametrize("sched", [
    PerturbationSchedule("cost", 1, d_cost=1.0),
    PerturbationSchedule("noise-approx", 1, hat_sigma=np.ones((2, 1, 1))),
], ids=["cost", "noise-approx"])
def test_lq_sweep_rejects_a_mode_without_an_lq_direction(ref_lq, sched):
    with pytest.raises(ConfigError) as info:
        sweep_lq_finite_horizon(ref_lq, sched, x0=[1.0, 0.5], i0=1, steps=100)
    assert info.value.path == "schedule.mode"


@pytest.mark.parametrize("i0", [0, 3])
def test_lq_sweep_rejects_a_regime_out_of_range(ref_lq, lq_schedule, i0):
    with pytest.raises(ShapeError, match="out of range"):
        sweep_lq_finite_horizon(ref_lq, lq_schedule, x0=[1.0, 0.5], i0=i0, steps=100)


def test_model_and_lq_sequences_agree_on_an_all_lq_model(ref_lq):
    model = lq_model(ref_lq)
    assert all(np.array_equal(getattr(lq_from_model(model), a), getattr(ref_lq, a)) for a in LQ_ARRAYS)
    for sched in (CRITERION_4, PerturbationSchedule("rates", 4, d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))):
        via_model = [lq_from_model(m) for m in make_perturbation_sequence(model, sched)]
        direct = perturbed_lq_sequence(lq_from_model(model), sched)
        assert len(via_model) == len(direct) == sched.n_max + 1
        for a, b in zip(via_model, direct):
            for name in LQ_ARRAYS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
}


def _rowwise_grid_sweep(true_spec, sched, criterion, grid, max_iter=100):
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
        "finite-horizon": (lambda m: solve_finite_horizon(m, grid), evaluate_policy_finite_horizon),
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


@pytest.mark.parametrize("criterion", ["discounted", "exit"])
def test_stacked_eps_check_matches_rowwise_reference(saturated, criterion):
    _, grid, sched = SWEEP_CASES["criterion-9"]
    solve, evaluate = {
        "discounted": (solve_discounted, evaluate_policy_value),
        "exit": (solve_exit, evaluate_policy_exit),
    }[criterion]
    v_true = solve(saturated, grid).values
    gaps = []
    for model in make_perturbation_sequence(saturated, sched) + [saturated]:
        values = solve(model, grid).values
        tab = _Tables([model], grid)
        policy = _worst_eps_policy(tab, values[:, None], 0.05, criterion == "exit")[:, 0]
        gaps.append(float(np.max(np.abs(evaluate(saturated, grid, policy).values - v_true))))
    rep = check_eps_optimality(saturated, sched, criterion, 0.05, grid)
    assert [r.gap for r in rep.rows] == gaps


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
        degraded = _worst_eps_policy(tab, values[:, None], eps, with_beta=False)[:, 0]
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
    with pytest.raises(ConfigError, match="eps"):
        check_eps_optimality(saturated, sat_schedule, "discounted", 0.0, sat_grid)
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
