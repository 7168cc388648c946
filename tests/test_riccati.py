"""Coupled Riccati solver against closed forms and a frozen reference orbit."""

import dataclasses
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    ActionGrid,
    BlowupError,
    ConfigError,
    DiffusionFamily,
    DriftFamily,
    EigError,
    FeedbackTrajectory,
    GeneratorSpec,
    LQSpec,
    PerturbationSchedule,
    RatesError,
    RiccatiTrajectory,
    RunningCost,
    ShapeError,
    StepError,
    TerminalCost,
    a_priori_bound,
    fixed_feedback_cost,
    lq_feedback,
    lq_from_model,
    riccati_defect,
    solve_coupled_riccati,
    sweep_lq_finite_horizon,
)
from switchsde.riccati import (
    BLOWUP_CHECK_STEPS,
    BLOWUP_LIMIT,
    MAX_RICCATI_STEPS,
    _augment,
    _feedback_cost_stack,
    _integrate_backward,
    _interp,
    _riccati_table,
    _stage_stack,
    _table_rhs,
)
from conftest import lq_model, reference_lq, scalar_lq

# K(0) of the reference problem, integrated independently with an adaptive
# RK45 at rtol 1e-12 and frozen here; symmetric by construction.
REFERENCE_K0 = np.array(
    [
        [[2.1120094727523044, 0.49953712286241697],
         [0.49953712286241697, 0.7229416964624704]],
        [[2.709023704568396, 0.14399168088579678],
         [0.14399168088579678, 0.5203509656826708]],
    ]
)


@pytest.fixture
def tanh_lq():
    return scalar_lq(p_val=0.0)


def test_scalar_closed_form_is_tanh(tanh_lq):
    traj = solve_coupled_riccati(tanh_lq, n_steps=1000)
    exact = np.tanh(1.0 - traj.times)
    assert np.max(np.abs(traj.k[:, 0, 0, 0] - exact)) < 1e-13


def test_zero_terminal_weight_is_kept_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lq = scalar_lq(p_val=0.0)
    assert lq.p.tobytes() == np.zeros((1, 1, 1)).tobytes()


def test_reference_orbit_matches_frozen_oracle(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=400)
    assert np.max(np.abs(traj.k[0] - REFERENCE_K0)) < 1e-9
    assert np.array_equal(traj.k[-1], ref_lq.p)


def test_trajectory_is_symmetric_positive_definite(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=400)
    assert traj.symmetry_defect() < 1e-12
    eigs = np.linalg.eigvalsh(traj.k)
    assert eigs.min() > 0.0


def test_defect_decays_at_second_order(ref_lq):
    d200 = riccati_defect(solve_coupled_riccati(ref_lq, n_steps=200), ref_lq)
    d400 = riccati_defect(solve_coupled_riccati(ref_lq, n_steps=400), ref_lq)
    assert d400 < d200
    assert d200 / d400 > 3.0


def test_a_priori_bound_dominates_trajectory(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=400)
    kmax = float(np.max(np.linalg.norm(traj.k, axis=(-2, -1))))
    assert kmax <= a_priori_bound(ref_lq)


def test_k_at_interpolates_endpoints(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=16)
    assert np.array_equal(traj.k_at(0.0), traj.k[0])
    assert np.array_equal(traj.k_at(ref_lq.horizon), traj.k[-1])
    mid = 0.5 * (traj.times[3] + traj.times[4])
    assert np.allclose(traj.k_at(mid), 0.5 * (traj.k[3] + traj.k[4]))


def test_feedback_terminal_gain(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=64)
    gains = lq_feedback(traj, ref_lq)
    expect = np.einsum("nij,njk->nik", ref_lq.r_inv_bt(), ref_lq.p)
    assert np.allclose(gains.gains[-1], expect)


def test_optimal_feedback_reproduces_value(ref_lq):
    # replaying the optimal gains through the fixed-feedback ODE recovers K
    traj = solve_coupled_riccati(ref_lq, n_steps=800)
    gains = lq_feedback(traj, ref_lq)
    m = fixed_feedback_cost(ref_lq, gains, n_steps=400)
    assert np.max(np.abs(m.k - traj.k[::2])) < 1e-6


def test_constant_gain_closed_form(tanh_lq):
    # F = 1 on A=0, B=Q=R=1, P=0: M(t) = 1 - exp(-2 (T - t))
    gains = FeedbackTrajectory(
        times=np.array([0.0, 1.0]), gains=np.ones((2, 1, 1, 1))
    )
    m = fixed_feedback_cost(tanh_lq, gains, n_steps=500)
    m0 = float(m.k[0, 0, 0, 0])
    assert m0 == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)
    assert m0 > np.tanh(1.0)  # suboptimal gain costs strictly more


def test_lq_from_model_maps_families():
    from switchsde import ActionGrid, BoundaryCost, CostSpec, DiffusionFamily, \
        DriftFamily, ExitDiscount, GeneratorSpec, ModelSpec, RegimeSet, \
        RunningCost, TerminalCost

    spec = ModelSpec(
        dim=1,
        regimes=RegimeSet(1),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("lq", 1, 1, 1, a_mat=np.array([[[0.3]]]), b_mat=np.array([[[1.5]]])),
        diffusion=DiffusionFamily("lq", 1, 1, c_mat=np.array([[[0.2]]])),
        generator=GeneratorSpec("constant", 1, rates=np.zeros((1, 1))),
        costs=CostSpec(
            running=RunningCost("lq", 1, 1, 1, q_mat=np.array([[[2.0]]]), r_mat=np.array([[[0.5]]])),
            alpha=1.0,
            horizon=1.5,
            terminal=TerminalCost("quad", 1, 1, p_mat=np.array([[[0.4]]])),
            exit_h=BoundaryCost("zero"),
            exit_beta=ExitDiscount("zero"),
            exit_domain=(-1.0, 1.0),
        ),
    )
    lq = lq_from_model(spec)
    assert lq.a[0, 0, 0] == 0.3
    assert lq.b[0, 0, 0] == 1.5
    assert lq.c[0, 0, 0] == 0.2
    assert lq.q[0, 0, 0] == 2.0
    assert lq.r[0, 0, 0] == 0.5
    assert lq.p[0, 0, 0] == 0.4
    assert lq.horizon == 1.5


@pytest.mark.parametrize(
    "name, shape", [("a", (2, 1, 1)), ("b", (3, 3, 3)), ("r", (2, 2)), ("rates", (2, 3))]
)
def test_lqspec_shape_error_names_the_field(ref_lq, name, shape):
    with pytest.raises(ShapeError) as info:
        dataclasses.replace(ref_lq, **{name: np.ones(shape)})
    assert info.value.path == f"lq.{name}"


def _two_controls(r):
    """Changes to the reference problem that give it two controls with R = r."""
    return dict(control_dim=2, b=np.ones((2, 2, 2)), r=np.array([r, r], dtype=np.float64))


@pytest.mark.parametrize("changes,error,match,path", [
    (dict(q=np.array([[[1.0, 0.5], [0.0, 1.0]]] * 2)), ShapeError, "Q must be symmetric", "lq.q"),
    (_two_controls([[1.0, 0.5], [0.0, 1.0]]), ShapeError, "R must be symmetric", "lq.r"),
    (dict(p=np.array([[[1.0, 0.0], [0.0, -1.0]]] * 2)), EigError, "P must be positive semidefinite", "lq.p"),
    (dict(p=np.array([-5e-11 * np.eye(2)] * 2)), EigError, "P must be positive semidefinite", "lq.p"),
    (_two_controls([[100.0, 0.0], [0.0, 1e-11]]), EigError, "ill-conditioned", "lq.r"),
    (dict(rates=np.array([[1.0, -1.0], [2.0, -2.0]])), RatesError, "off-diagonal", "lq.rates"),
    (dict(rates=np.array([[-1.0, 2.0], [2.0, -2.0]])), RatesError, "sum to zero", "lq.rates"),
], ids=["q-asymmetric", "r-asymmetric", "p-indefinite", "p-below-the-floor", "r-ill-conditioned", "negative-rate", "row-sum"])
def test_lqspec_rejects_invalid_data(ref_lq, changes, error, match, path):
    with pytest.raises(error, match=match) as info:
        dataclasses.replace(ref_lq, **changes)
    assert info.value.path == path


@pytest.mark.parametrize("rates", [[[1.0, -1.0], [2.0, -2.0]], [[-1.0, 2.0], [2.0, -2.0]]],
                         ids=["negative-rate", "row-sum"])
def test_lqspec_rate_errors_carry_the_path_lq_rates(ref_lq, rates):
    with pytest.raises(RatesError) as info:
        dataclasses.replace(ref_lq, rates=np.array(rates))
    assert info.value.path == "lq.rates"


@pytest.mark.parametrize("horizon", [0.0, -1.0])
def test_lqspec_rejects_a_horizon_that_is_not_positive(ref_lq, horizon):
    with pytest.raises(ShapeError) as info:
        dataclasses.replace(ref_lq, horizon=horizon)
    assert info.value.path == "lq.horizon"


def test_lqspec_rejects_an_infinite_horizon(ref_lq):
    with pytest.raises(ShapeError, match="horizon must be finite") as info:
        dataclasses.replace(ref_lq, horizon=np.inf)
    assert info.value.path == "lq.horizon"


def _scalar_lq_model_with(**changes):
    """The all-lq scalar model with families replaced (costs' families by name)."""
    spec = lq_model(scalar_lq(p_val=1.0))
    costs = {k: changes.pop(k) for k in ("running", "terminal") if k in changes}
    return dataclasses.replace(spec, costs=dataclasses.replace(spec.costs, **costs), **changes)


@pytest.mark.parametrize("changes,match", [
    (dict(drift=DriftFamily("constant", 1, 1, 1, b0=np.zeros((1, 1)))), "drift and diffusion"),
    (dict(diffusion=DiffusionFamily("constant", 1, 1, c0=np.ones((1, 1, 1)))), "drift and diffusion"),
    (dict(running=RunningCost("constant", 1, 1, 1, value=1.0)), "running cost"),
    (dict(generator=GeneratorSpec("state-action-dependent", 1, base=np.zeros((1, 1)))), "constant generator"),
    (dict(terminal=TerminalCost("constant", 1, 1, value=1.0)), "terminal cost"),
], ids=["drift", "diffusion", "running", "generator", "terminal"])
def test_lq_from_model_rejects_a_family_outside_lq(changes, match):
    lq_from_model(_scalar_lq_model_with())  # the all-lq model passes
    with pytest.raises(ShapeError, match=match):
        lq_from_model(_scalar_lq_model_with(**changes))


def _two_control_scalar_model(r):
    """The all-lq scalar model with two controls whose running weight is R = r."""
    return _scalar_lq_model_with(
        actions=ActionGrid(np.zeros((1, 2))),
        drift=DriftFamily("lq", 1, 1, 2, a_mat=np.zeros((1, 1, 1)), b_mat=np.ones((1, 1, 2))),
        running=RunningCost("lq", 1, 1, 2, q_mat=np.ones((1, 1, 1)), r_mat=np.array([r], dtype=np.float64)),
    )


@pytest.mark.parametrize("spec,match,path", [
    (lambda: _scalar_lq_model_with(terminal=TerminalCost("quad", 1, 1, p_mat=-np.ones((1, 1, 1)))),
     "P must be positive semidefinite", "model.costs.terminal.p"),
    (lambda: _two_control_scalar_model([[1e13, 0.0], [0.0, 1.0]]), "ill-conditioned", "model.costs.running.r"),
], ids=["p-indefinite", "r-ill-conditioned"])
def test_lq_from_model_reports_a_weight_lqspec_rejects_at_its_model_field(spec, match, path):
    lq_from_model(_two_control_scalar_model(np.eye(2)))  # a well-conditioned R passes
    with pytest.raises(ConfigError, match=match) as info:
        lq_from_model(spec())
    assert info.value.path == path


LQ_ARRAYS = ("a", "b", "c", "q", "r", "p", "rates")


@st.composite
def lq_specs(draw):
    """LQSpecs with N <= 3, d <= 3, l <= 2: Q semidefinite, R definite, P the Gram matrix of
    d x k normals for k = 0 (P = 0), d - 1 (rank-deficient semidefinite) or d (definite), and a
    generator of exponential rates."""
    n, d, l = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram = lambda m: m @ np.swapaxes(m, -1, -2)
    off = rng.exponential(size=(n, n)) * (1.0 - np.eye(n))
    p = gram(rng.normal(size=(n, d, draw(st.sampled_from([0, d - 1, d])))))
    return LQSpec(
        d, n, l, a=rng.normal(size=(n, d, d)), b=rng.normal(size=(n, d, l)), c=rng.normal(size=(n, d, d)),
        q=gram(rng.normal(size=(n, d, d))), r=gram(rng.normal(size=(n, l, l))) + np.eye(l), p=p,
        rates=off - np.diag(off.sum(axis=1)), horizon=draw(st.floats(0.01, 100.0)),
    )


@settings(max_examples=60, deadline=None)
@given(lq=lq_specs())
def test_lq_model_is_the_inverse_of_lq_from_model(lq):
    # the LQ sweep reads its rows back through lq_from_model, so the round
    # trip must hold every array bit for bit, a semidefinite P included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = lq_from_model(lq_model(lq))
    assert (back.dim, back.n_regimes, back.control_dim, back.horizon) == (lq.dim, lq.n_regimes, lq.control_dim,
                                                                        lq.horizon)
    for name in LQ_ARRAYS:
        got, want = getattr(back, name), getattr(lq, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_defect_needs_three_time_nodes(ref_lq):
    traj = RiccatiTrajectory(times=np.array([0.0, 2.0]), k=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ShapeError, match="3 time nodes"):
        riccati_defect(traj, ref_lq)


def test_needs_at_least_eight_steps(ref_lq):
    with pytest.raises(StepError, match="n_steps >= 8"):
        solve_coupled_riccati(ref_lq, n_steps=4)
    solve_coupled_riccati(ref_lq, n_steps=8)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_feedback_cost_needs_a_step(ref_lq, n_steps):
    gains = lq_feedback(solve_coupled_riccati(ref_lq, n_steps=8), ref_lq)
    with pytest.raises(StepError, match="n_steps >= 1"):
        fixed_feedback_cost(ref_lq, gains, n_steps=n_steps)


@pytest.mark.parametrize("steps", [0, -3])
def test_lq_sweep_needs_a_step(ref_lq, steps):
    sched = PerturbationSchedule("rates", 2, d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))
    with pytest.raises(StepError, match="n_steps >= 1"):
        sweep_lq_finite_horizon(ref_lq, sched, [1.0, 0.5], 2, steps=steps)


def test_zero_cost_gives_zero_value():
    lq = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.ones((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.full((1, 1, 1), 0.3),
        q=np.zeros((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.full((1, 1, 1), 1e-12),
        rates=np.zeros((1, 1)), horizon=1.0,
    )
    traj = solve_coupled_riccati(lq, n_steps=100)
    assert np.max(np.abs(traj.k)) <= 1e-10


def test_pure_integration_case():
    # A = B = C = 0: -Kdot = Q, so K(0) = P + Q T
    lq = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.zeros((1, 1, 1)), b=np.zeros((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.ones((1, 1, 1)),
        rates=np.zeros((1, 1)), horizon=2.0,
    )
    traj = solve_coupled_riccati(lq, n_steps=16)
    assert traj.k[0, 0, 0, 0] == pytest.approx(3.0, abs=1e-12)


def test_coupled_case_stable_under_step_refinement():
    lq = LQSpec(
        dim=1, n_regimes=2, control_dim=1,
        a=np.array([[[0.0]], [[-1.0]]]),
        b=np.ones((2, 1, 1)),
        c=np.full((2, 1, 1), 0.2),
        q=np.ones((2, 1, 1)),
        r=np.ones((2, 1, 1)),
        p=np.ones((2, 1, 1)),
        rates=np.array([[-1.0, 1.0], [1.0, -1.0]]),
        horizon=1.0,
    )
    coarse = solve_coupled_riccati(lq, n_steps=400)
    fine = solve_coupled_riccati(lq, n_steps=1600)
    assert np.max(np.abs(coarse.k[0] - fine.k[0])) < 1e-8


def test_feedback_gain_arithmetic():
    lq = LQSpec(
        dim=2, n_regimes=1, control_dim=1,
        a=np.zeros((1, 2, 2)), b=np.array([[[1.0], [0.0]]]), c=np.zeros((1, 2, 2)),
        q=np.eye(2)[None], r=np.full((1, 1, 1), 2.0), p=np.eye(2)[None],
        rates=np.zeros((1, 1)), horizon=1.0,
    )
    traj = RiccatiTrajectory(times=np.array([0.0, 1.0]), k=np.tile(np.eye(2), (2, 1, 1, 1)))
    gains = lq_feedback(traj, lq)
    assert np.allclose(gains.gains[0, 0], [[0.5, 0.0]])

    lq0 = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.zeros((1, 1, 1)), b=np.zeros((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.ones((1, 1, 1)),
        rates=np.zeros((1, 1)), horizon=1.0,
    )
    gains0 = lq_feedback(solve_coupled_riccati(lq0, n_steps=8), lq0)
    assert np.array_equal(gains0.gains, np.zeros_like(gains0.gains))


def test_zero_feedback_cost_is_pure_integration():
    lq = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.zeros((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.full((1, 1, 1), 0.7), r=np.ones((1, 1, 1)), p=np.full((1, 1, 1), 0.2),
        rates=np.zeros((1, 1)), horizon=3.0,
    )
    zero = FeedbackTrajectory(times=np.array([0.0, 3.0]), gains=np.zeros((2, 1, 1, 1)))
    m = fixed_feedback_cost(lq, zero, n_steps=60)
    assert m.k[0, 0, 0, 0] == pytest.approx(0.2 + 0.7 * 3.0, abs=1e-12)


def test_suboptimal_feedback_dominates_value(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=800)
    gains = lq_feedback(traj, ref_lq)
    detuned = FeedbackTrajectory(times=gains.times, gains=0.8 * gains.gains)
    m = fixed_feedback_cost(ref_lq, detuned, n_steps=400)
    diff = m.k - traj.k[::2]
    assert float(np.min(np.linalg.eigvalsh(diff))) >= -1e-8


def test_rejects_indefinite_r():
    with pytest.raises(EigError):
        LQSpec(
            dim=1, n_regimes=1, control_dim=1,
            a=np.zeros((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.zeros((1, 1, 1)),
            q=np.ones((1, 1, 1)), r=np.zeros((1, 1, 1)), p=np.ones((1, 1, 1)),
            rates=np.zeros((1, 1)), horizon=1.0,
        )


def test_rejects_indefinite_q():
    with pytest.raises(EigError):
        LQSpec(
            dim=1, n_regimes=1, control_dim=1,
            a=np.zeros((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.zeros((1, 1, 1)),
            q=-np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.ones((1, 1, 1)),
            rates=np.zeros((1, 1)), horizon=1.0,
        )


def test_unstable_uncontrolled_growth_raises_blowup():
    lq = LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.full((1, 1, 1), 5.0), b=np.zeros((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.ones((1, 1, 1)),
        rates=np.zeros((1, 1)), horizon=4.0,
    )
    with pytest.raises(BlowupError):
        solve_coupled_riccati(lq, n_steps=400)


def test_rows_emit_one_cell_per_entry(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=8)
    rows = list(traj.rows())
    assert len(rows) == 9 * 2 * 2 * 2
    t, regime, r_, c_, val = rows[0]
    assert (t, regime, r_, c_) == (0.0, 1, 0, 0)
    assert val == traj.k[0, 0, 0, 0]


def test_feedback_shape_mismatch_raises(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=8)
    with pytest.raises(ShapeError):
        FeedbackTrajectory(times=traj.times, gains=np.ones((3, 2, 1, 2)))


# ---------------------------------------------------------------------------
# the table right side on the half-vectorized state, and the fused blow-up check


def _textbook_terms(lq, k):
    """The right side's terms per regime, written out with plain @."""
    terms = []
    for i in range(lq.n_regimes):
        s = lq.b[i] @ np.linalg.inv(lq.r[i]) @ lq.b[i].T
        coupling = sum(lq.rates[i, j] * k[j] for j in range(lq.n_regimes))
        terms.append((
            lq.a[i].T @ k[i], k[i] @ lq.a[i], lq.c[i].T @ k[i] @ lq.c[i],
            -(k[i] @ s @ k[i]), lq.q[i], coupling,
        ))
    return terms


def _random_lq(seed, n, d, l):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, d, d))
    h = rng.normal(size=(n, l, l))
    off = rng.uniform(0.0, 2.0, size=(n, n)) * (1.0 - np.eye(n))
    return LQSpec(
        dim=d, n_regimes=n, control_dim=l,
        a=rng.normal(size=(n, d, d)), b=rng.normal(size=(n, d, l)), c=rng.normal(size=(n, d, d)),
        q=g @ np.swapaxes(g, -1, -2), r=h @ np.swapaxes(h, -1, -2) + np.eye(l),
        p=np.broadcast_to(np.eye(d), (n, d, d)), rates=off - np.diag(off.sum(axis=1)),
        horizon=1.0,
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3), d=st.integers(1, 3), l=st.integers(1, 2),
    batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
)
def test_operator_rhs_matches_textbook_formula(n, d, l, batch, seed):
    lq = _random_lq(seed, n, d, l)
    x = np.random.default_rng(seed + 1).normal(size=(batch, n, d, d))
    k = x + np.swapaxes(x, -1, -2)
    g, pos, pick, _ = _riccati_table([lq])
    got = _table_rhs(g, (batch, 1))(None, _augment(k, pick))[..., 0, pos]
    for b in range(batch):
        for i, terms in enumerate(_textbook_terms(lq, k[b])):
            scale = max(float(np.max(np.abs(t))) for t in terms)
            assert np.max(np.abs(got[b, i] - sum(terms))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3), d=st.integers(1, 3), l=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
)
def test_riccati_solution_stays_symmetric_positive_semidefinite(n, d, l, seed):
    k = solve_coupled_riccati(_random_lq(seed, n, d, l), n_steps=200).k
    scale = max(1.0, float(np.abs(k).max()))
    assert np.array_equal(k, np.swapaxes(k, -1, -2))
    assert np.linalg.eigvalsh(k).min() >= -1e-10 * scale


def _symmetrizing_rk4(rhs, terminal, horizon, n_steps):
    """Full-matrix RK4 for dK/dt = -rhs(j, K), re-symmetrizing every increment."""
    h = horizon / n_steps
    traj = np.empty((n_steps + 1, *terminal.shape))
    traj[n_steps] = k = 0.5 * (terminal + np.swapaxes(terminal, -1, -2))
    for step in range(n_steps, 0, -1):
        j = 2 * step
        k1 = rhs(j, k)
        k2 = rhs(j - 1, k + 0.5 * h * k1)
        k3 = rhs(j - 1, k + 0.5 * h * k2)
        k4 = rhs(j - 2, k + h * k3)
        inc = k1 + 2.0 * (k2 + k3) + k4
        k = traj[step - 1] = k + (h / 12.0) * (inc + np.swapaxes(inc, -1, -2))
    return traj


def _full_matrix_rhs(a, c, q, rates, k):
    """A^T K + K A + C^T K C + Q + sum_j m_ij K_j on full matrices, batch axes in front."""
    t = lambda x: np.swapaxes(x, -1, -2)
    return t(a) @ k + k @ a + t(c) @ k @ c + q + np.einsum("...ij,...jpq->...ipq", rates, k)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3), d=st.integers(1, 3), l=st.integers(1, 2),
    batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
)
def test_half_vectorized_solves_match_a_full_matrix_symmetrizing_rk4(n, d, l, batch, seed):
    _check_against_full_matrix_rk4([_random_lq(seed + b, n, d, l) for b in range(batch)], 100)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_half_vectorized_solves_match_a_full_matrix_rk4_at_large_dimension(d):
    """N = 2 at d = 4, 6, 8 (m = 20, 42, 72), two models, 12 steps; A and C
    are scaled by 1/sqrt(d) so that K stays far below the blow-up limit."""
    lqs = [_random_lq(100 * d + b, 2, d, 2) for b in range(2)]
    lqs = [dataclasses.replace(lq, a=lq.a / np.sqrt(d), c=lq.c / np.sqrt(d)) for lq in lqs]
    _check_against_full_matrix_rk4(lqs, 12)


def _check_against_full_matrix_rk4(lqs, n_steps):
    """The half-vectorized Riccati RK4 of a batch of models (horizon 1) and the
    fixed-feedback replay of scaled gains of the first, against the full-matrix
    symmetrizing RK4, within 1e-13 of the largest entry."""
    n, d = lqs[0].n_regimes, lqs[0].dim
    batch = len(lqs)
    a, c, q, rates, p = (np.stack([getattr(lq, nm) for lq in lqs]) for nm in ("a", "c", "q", "rates", "p"))
    s = np.stack([lq.b @ lq.r_inv_bt() for lq in lqs])
    expect = _symmetrizing_rk4(lambda _j, k: _full_matrix_rhs(a, c, q, rates, k) - k @ s @ k, p, 1.0, n_steps)
    got = _stage_stack(lqs, n_steps)[::2]
    assert np.abs(got - expect).max() <= 1e-13 * max(1.0, float(np.abs(expect).max()))

    lq = lqs[0]
    gains = lq_feedback(solve_coupled_riccati(lq, n_steps=2 * n_steps), lq).gains
    stage_gains = np.stack([(0.8 + 0.1 * b) * gains for b in range(batch)], axis=1)
    bf = lq.b @ stage_gains
    w = np.swapaxes(stage_gains, -1, -2) @ lq.r @ stage_gains

    def replay(j, m):
        return _full_matrix_rhs(lq.a - bf[j], lq.c, lq.q + w[j], lq.rates, m)

    expect = _symmetrizing_rk4(replay, np.broadcast_to(lq.p, (batch, n, d, d)), 1.0, n_steps)
    got = _feedback_cost_stack(lq, stage_gains, n_steps)
    assert np.abs(got - expect).max() <= 1e-13 * max(1.0, float(np.abs(expect).max()))


def test_defect_matches_nodewise_textbook_residual(ref_lq):
    traj = solve_coupled_riccati(ref_lq, n_steps=400)
    dt = traj.times[1] - traj.times[0]
    worst, scale = 0.0, 0.0
    for j in range(1, len(traj.times) - 1):
        kdot = (traj.k[j + 1] - traj.k[j - 1]) / (2.0 * dt)
        for i, terms in enumerate(_textbook_terms(ref_lq, traj.k[j])):
            worst = max(worst, float(np.max(np.abs(kdot[i] + sum(terms)))))
            scale = max(scale, float(np.max(np.abs(kdot[i]))))
    # the residual is a difference of O(scale) terms, so compare at that scale
    assert abs(riccati_defect(traj, ref_lq) - worst) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e13])
def test_integrate_backward_raises_blowup_on_bad_iterate(bad):
    # one step moves K by h * rhs = 0.25 * bad
    with pytest.raises(BlowupError) as exc:
        _integrate_backward(lambda j, k: np.full_like(k, bad), np.zeros((1, 1, 1, 1)), 1.0, 4)
    assert exc.value.code == "E_BLOWUP"


def test_integrate_backward_accepts_iterates_at_the_limit():
    terminal = np.full((2, 1, 2, 2), BLOWUP_LIMIT)
    traj = _integrate_backward(lambda j, k: np.zeros_like(k), terminal, 1.0, 4)
    assert np.array_equal(traj, np.broadcast_to(terminal, traj.shape))


def test_integrate_backward_passes_half_step_stage_indices():
    seen = []

    def rhs(j, k):
        seen.append(j)
        return np.zeros_like(k)

    _integrate_backward(rhs, np.zeros((1, 1, 1, 1)), 1.0, 2)
    assert seen == [4, 3, 3, 2, 2, 1, 1, 0]


# ---------------------------------------------------------------------------
# one blow-up check per solve, and closed-loop stage tables, against the
# per-step loops they replace


def _per_step_rk4(rhs, terminal, horizon, n_steps):
    """The RK4 loop with the blow-up rule applied after every step.

    Stepping backward, the first iterate with an entry that is not finite or
    exceeds BLOWUP_LIMIT in size stops the solve with BlowupError at that
    iterate's time node.
    """
    h = horizon / n_steps
    traj = np.empty((n_steps + 1, *terminal.shape))
    traj[n_steps] = k = terminal
    for step in range(n_steps, 0, -1):
        j = 2 * step
        k1 = rhs(j, k)
        k2 = rhs(j - 1, k + 0.5 * h * k1)
        k3 = rhs(j - 1, k + 0.5 * h * k2)
        k4 = rhs(j - 2, k + h * k3)
        k = k + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.abs(k).max() <= BLOWUP_LIMIT:
            raise BlowupError(f"Riccati iterate exceeded {BLOWUP_LIMIT:.0e} at t = {(step - 1) * h:.6g}")
        traj[step - 1] = k
    return traj


@pytest.mark.parametrize("first_bad", [16, 15, 9, 6, 2, 1, 0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e13])
def test_blowup_names_the_node_the_per_step_rule_stops_at(bad, first_bad):
    # stage indices run 16, 15, 15, 14, 14, ..., 0 over 8 steps; the right
    # side turns bad at stage index first_bad and stays bad below it, and its
    # quadratic term then overflows on the iterates that follow
    def rhs(j, k):
        return bad - k @ k if j <= first_bad else np.ones_like(k)

    terminal = np.zeros((2, 1, 2, 2))
    with np.errstate(all="ignore"):
        try:
            expect = _per_step_rk4(rhs, terminal, 1.0, 8)
        except BlowupError as err:
            expect = err
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes the solve
        if isinstance(expect, BlowupError):
            with pytest.raises(BlowupError) as exc:
                _integrate_backward(rhs, terminal, 1.0, 8)
            assert str(exc.value) == str(expect)
        else:  # a 1e13 stage only at t = 0 moves K by h/6 * 1e13 < BLOWUP_LIMIT
            assert np.array_equal(_integrate_backward(rhs, terminal, 1.0, 8), expect)


N_LONG = 4 * BLOWUP_CHECK_STEPS + 5


@pytest.mark.parametrize(
    "first_bad",
    [N_LONG - 1, 4 * BLOWUP_CHECK_STEPS, 3 * BLOWUP_CHECK_STEPS, 3 * BLOWUP_CHECK_STEPS - 1, 5, 0],
)
def test_a_diverging_solve_stops_within_one_check_block(first_bad):
    # step s runs the stages 2s, 2s - 1, 2s - 1, 2s - 2, so the right side
    # turns NaN first in the step that stores node first_bad
    calls = []

    def rhs(j, k):
        calls.append(j)
        return np.full_like(k, np.nan) if j <= 2 * first_bad + 1 else np.ones_like(k)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError, match=f"at t = {first_bad / N_LONG:.6g}$"):
            _integrate_backward(rhs, np.zeros((1, 1, 1, 1)), 1.0, N_LONG)
    steps = len(calls) // 4
    assert len(calls) == 4 * steps and calls[-1] == 2 * (N_LONG - steps)
    # the steps past the bad node's fill up at most the rest of its check block
    assert 0 <= steps - (N_LONG - first_bad) < BLOWUP_CHECK_STEPS


def _cached_stage_replay(lq, stage_gains, n_steps):
    """The fixed-feedback replay with its stage maps on z built stage by stage.

    Stage j's map is the Riccati table's linear rows, plus the vech of
    -(BF)^T E - E BF for each basis matrix E of z in its rows, plus
    vech F^T R F added to its row 0. RK4 asks for each interior stage twice
    in a row, so the last two stages' maps are cached.
    """
    g, pos, pick, e = _riccati_table([lq])
    m1 = pick.size + 1

    def vech(x):
        return x.reshape(*x.shape[:-3], -1)[..., pick]

    @lru_cache(maxsize=2)
    def stage(j):
        f = stage_gains[j]  # (blocks, N, l, d)
        bf = lq.b @ f
        maps = np.zeros((f.shape[0], m1, m1))
        for a in range(m1 - 1):
            maps[:, 1 + a, 1:] = vech(-(bf.swapaxes(-1, -2) @ e[a]) - e[a] @ bf)
        maps += g[0, :m1]
        maps[:, 0, 1:] += vech(f.swapaxes(-1, -2) @ lq.r @ f)
        return maps

    terminal = np.broadcast_to(_augment(lq.p, pick), (*stage_gains.shape[1:-3], 1, m1))
    return _per_step_rk4(lambda j, z: z @ stage(j), terminal, lq.horizon, n_steps)[..., 0, pos]


def _stage_gains(lq, n_steps, scales):
    """Optimal gains scaled by each factor, at the 2 n_steps + 1 stage times: (stages, blocks, N, l, d)."""
    gains = lq_feedback(solve_coupled_riccati(lq, n_steps=2 * n_steps), lq).gains
    return np.stack([s * gains for s in scales], axis=1)


@pytest.mark.parametrize("which", ["reference", "scalar"])
def test_stage_tables_replay_equals_the_stage_by_stage_replay(ref_lq, which):
    lq = ref_lq if which == "reference" else scalar_lq(p_val=1.0)
    n_steps = 100
    feedback = lq_feedback(solve_coupled_riccati(lq, n_steps=64), lq)
    detuned = FeedbackTrajectory(times=feedback.times, gains=0.8 * feedback.gains)
    table = _interp(detuned.times, detuned.gains, np.linspace(0.0, lq.horizon, 2 * n_steps + 1))
    expect = _cached_stage_replay(lq, table[:, None], n_steps)[:, 0]
    assert np.array_equal(fixed_feedback_cost(lq, detuned, n_steps=n_steps).k, expect)

    stacked = _stage_gains(lq, n_steps, [0.5, 0.8, 1.0, 1.3])
    got = _feedback_cost_stack(lq, stacked, n_steps)
    assert np.array_equal(got, _cached_stage_replay(lq, stacked, n_steps))
    for b in range(stacked.shape[1]):
        assert np.array_equal(got[:, b], _feedback_cost_stack(lq, stacked[:, b:b + 1], n_steps)[:, 0])


# ---------------------------------------------------------------------------
# step counts


def _three_solves(ref_lq, steps):
    """The three entry points that take a Riccati step count."""
    gains = lq_feedback(solve_coupled_riccati(ref_lq, n_steps=16), ref_lq)
    sched = PerturbationSchedule("rates", 2, d_m=np.array([[0.0, 0.5], [1.0, 0.0]]))
    return {
        "riccati": lambda: solve_coupled_riccati(ref_lq, steps).k,
        "feedback": lambda: fixed_feedback_cost(ref_lq, gains, steps).k,
        "sweep": lambda: np.array(list(sweep_lq_finite_horizon(ref_lq, sched, [1.0, 0.5], 2, steps=steps).csv_rows()),
                                  dtype=object),
    }


@pytest.mark.parametrize("steps", [100.5, np.float64(50.5), np.inf, np.nan, "100"])
@pytest.mark.parametrize("which", ["riccati", "feedback", "sweep"])
def test_a_step_count_that_is_not_whole_is_a_step_error(ref_lq, which, steps):
    with pytest.raises(StepError, match="whole number of steps") as info:
        _three_solves(ref_lq, steps)[which]()
    assert info.value.code == "E_STEP"


@pytest.mark.parametrize("which", ["riccati", "feedback", "sweep"])
def test_a_whole_valued_real_step_count_is_taken_as_its_int(ref_lq, which):
    got = _three_solves(ref_lq, 100.0)[which]()
    assert np.array_equal(got, _three_solves(ref_lq, 100)[which]())
    assert np.array_equal(_three_solves(ref_lq, np.float64(100.0))[which](), got)


@pytest.mark.parametrize("which", ["riccati", "feedback", "sweep"])
def test_a_step_count_beyond_the_bound_is_refused_before_allocating(ref_lq, which):
    solve = _three_solves(ref_lq, 10 * MAX_RICCATI_STEPS)[which]
    tracemalloc.start()
    try:
        with pytest.raises(StepError, match="beyond the step bound"):
            solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 10^8 steps would ask for gigabytes
