"""Perturbation sweeps: gap decay, exact control rows, 3-eps replay."""

import numpy as np
import pytest

from switchsde import (
    BlowupError,
    ConfigError,
    Grid1D,
    LQSpec,
    PerturbationSchedule,
    fixed_feedback_cost,
    lq_feedback,
    solve_coupled_riccati,
)
from switchsde.robustness import (
    SWEEP_HEADER,
    check_eps_optimality,
    perturbed_lq_sequence,
    sweep_grid,
    sweep_lq_finite_horizon,
)


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
    if which == "combined":  # criterion 4's schedule
        sched = PerturbationSchedule(
            "combined", 10,
            d_a=np.array([[[0.2, 0.0], [0.1, 0.3]], [[0.3, 0.1], [0.0, 0.2]]]),
            d_b=np.array([[[0.1], [0.2]], [[0.2], [0.1]]]),
            d_c=np.array([[[0.05, 0.0], [0.0, 0.05]], [[0.05, 0.02], [0.0, 0.05]]]),
            d_m=np.array([[0.0, 0.5], [1.0, 0.0]]),
        )
    else:
        sched = PerturbationSchedule("rates", 4, d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))
    x0, i0, steps = [1.0, 0.5], 2, 200
    rep = sweep_lq_finite_horizon(ref_lq, sched, x0=x0, i0=i0, steps=steps)
    got = np.column_stack([rep.column(c) for c in ("value_gap", "policy_loss", "aux")])
    np.testing.assert_allclose(
        got, _rowwise_lq_sweep(ref_lq, sched, x0, i0, steps), rtol=1e-12, atol=1e-12
    )


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
    assert vg[-1] == 0.0 and abs(pl[-1]) <= 1e-8


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
    # with eps far below the perturbation-induced gaps nothing can pass
    rep = check_eps_optimality(saturated, sat_schedule, "discounted", 1e-12, sat_grid)
    assert rep.threshold_n is None
    assert not rep.passed
    assert rep.verdict == "not reached within n_max"


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
