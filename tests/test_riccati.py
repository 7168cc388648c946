"""Coupled Riccati solver against closed forms and a frozen reference orbit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    BlowupError,
    EigError,
    FeedbackTrajectory,
    LQSpec,
    RiccatiTrajectory,
    ShapeError,
    a_priori_bound,
    fixed_feedback_cost,
    lq_feedback,
    lq_from_model,
    riccati_defect,
    solve_coupled_riccati,
)
from switchsde.riccati import BLOWUP_LIMIT, _integrate_backward, _riccati_data, _riccati_rhs
from conftest import reference_lq, scalar_lq

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
    with pytest.warns(UserWarning, match="nudged"):
        return scalar_lq(p_val=0.0)


def test_scalar_closed_form_is_tanh(tanh_lq):
    traj = solve_coupled_riccati(tanh_lq, n_steps=1000)
    exact = np.tanh(1.0 - traj.times)
    assert np.max(np.abs(traj.k[:, 0, 0, 0] - exact)) < 1e-9


def test_zero_terminal_weight_warns_and_nudges():
    with pytest.warns(UserWarning, match="nudged"):
        lq = scalar_lq(p_val=0.0)
    assert lq.p[0, 0, 0] > 0.0


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


def test_needs_at_least_eight_steps(ref_lq):
    with pytest.raises(ShapeError):
        solve_coupled_riccati(ref_lq, n_steps=4)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_feedback_cost_needs_a_step(ref_lq, n_steps):
    gains = lq_feedback(solve_coupled_riccati(ref_lq, n_steps=8), ref_lq)
    with pytest.raises(ShapeError):
        fixed_feedback_cost(ref_lq, gains, n_steps=n_steps)


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
# operator-form right side and the fused blow-up check


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
    op, s, q, _ = _riccati_data([lq])
    got = _riccati_rhs(k, op, s, q)
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
    assert np.abs(k - np.swapaxes(k, -1, -2)).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(k).min() >= -1e-10 * scale


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
