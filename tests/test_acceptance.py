"""End-to-end acceptance checks for the package.

Each test covers one numbered criterion, prints a single PASS/FAIL line and
enforces the stated tolerance and runtime budget. Budgets are wall-clock
seconds on one core; all randomness is seeded, so reruns are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from switchsde import (
    BatchStepper,
    ConstantPolicy,
    FeedbackTrajectory,
    Grid1D,
    PerturbationSchedule,
    a_priori_bound,
    cli,
    estimate_ergodic,
    fixed_feedback_cost,
    mc_discounted,
    mc_ergodic,
    mc_exit,
    solve_coupled_riccati,
    solve_discounted,
    solve_exit,
)
from switchsde.robustness import check_eps_optimality, sweep_grid, sweep_lq_finite_horizon
from conftest import (
    bm_model,
    chain_model,
    chain_value,
    cosine_exit_model,
    reference_lq,
    saturated_model,
    scalar_lq,
)

ZERO = ConstantPolicy(np.zeros(1))

SAT_GRID = Grid1D(-2.0, 2.0, 201)
SAT_SCHEDULE = PerturbationSchedule(
    "coefficient", 10, d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3)
)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_scalar_riccati_closed_form():
    with pytest.warns(UserWarning, match="nudged"):
        lq = scalar_lq()
    t0 = time.perf_counter()
    traj = solve_coupled_riccati(lq, n_steps=1000)
    elapsed = time.perf_counter() - t0
    err = abs(float(traj.k[0, 0, 0, 0]) - math.tanh(1.0))
    ok = err <= 1e-6 and elapsed < 0.1
    _report(1, ok, f"|K(0) - tanh(1)| = {err:.2e} (tol 1e-6), {elapsed:.3f}s")


def test_criterion_02_riccati_bound_suite():
    lq = reference_lq()
    t0 = time.perf_counter()
    trajs = {n: solve_coupled_riccati(lq, n_steps=n) for n in (400, 800, 1600)}
    k = trajs[400].k
    min_eig = min(
        np.linalg.eigvalsh(k[j, i]).min()
        for j in range(1, k.shape[0] - 1)
        for i in range(lq.n_regimes)
    )
    max_norm = max(
        np.linalg.norm(k[j, i], 2) for j in range(k.shape[0]) for i in range(lq.n_regimes)
    )
    bound = a_priori_bound(lq)

    def lip(traj):
        dt = traj.times[1] - traj.times[0]
        return float(np.max(np.abs(np.diff(traj.k, axis=0))) / dt)

    l1, l2, l3 = lip(trajs[400]), lip(trajs[800]), lip(trajs[1600])
    r1, r2 = l2 / l1, l3 / l2
    elapsed = time.perf_counter() - t0
    ok = (
        min_eig > 0.0
        and max_norm <= bound
        and max(r1, 1.0 / r1) <= 1.1
        and max(r2, 1.0 / r2) <= 1.1
        and elapsed < 1.0
    )
    _report(
        2, ok,
        f"min eig {min_eig:.3f} > 0, max norm {max_norm:.3f} <= {bound:.1f}, "
        f"Lipschitz ratios {r1:.3f}/{r2:.3f} <= 1.1, {elapsed:.2f}s",
    )


def test_criterion_03_constant_gain_closed_form():
    with pytest.warns(UserWarning, match="nudged"):
        lq = scalar_lq()
    gains = FeedbackTrajectory(times=np.array([0.0, 1.0]), gains=np.ones((2, 1, 1, 1)))
    m0 = float(fixed_feedback_cost(lq, gains, n_steps=500).k[0, 0, 0, 0])
    err = abs(m0 - (1.0 - math.exp(-2.0)))
    ok = err <= 1e-6 and m0 > math.tanh(1.0)
    _report(3, ok, f"|M(0) - (1 - e^-2)| = {err:.2e} (tol 1e-6), M(0) > K(0)")


def test_criterion_04_lq_robustness_sweep():
    lq = reference_lq()
    sched = PerturbationSchedule(
        "combined", 10,
        d_a=np.array([[[0.2, 0.0], [0.1, 0.3]], [[0.3, 0.1], [0.0, 0.2]]]),
        d_b=np.array([[[0.1], [0.2]], [[0.2], [0.1]]]),
        d_c=np.array([[[0.05, 0.0], [0.0, 0.05]], [[0.05, 0.02], [0.0, 0.05]]]),
        d_m=np.array([[0.0, 0.5], [1.0, 0.0]]),
    )
    x0 = np.array([1.0, 0.5])
    t0 = time.perf_counter()
    rep = sweep_lq_finite_horizon(lq, sched, x0=x0, i0=1, steps=400)
    elapsed = time.perf_counter() - t0
    vg = rep.column("value_gap")
    pl = rep.column("policy_loss")
    monotone = np.all(np.diff(vg[:11]) <= 1e-9) and np.all(np.diff(pl[:11]) <= 1e-9)
    final_ok = pl[10] <= 1e-3 * float(x0 @ x0)
    control_ok = vg[-1] <= 1e-9 and abs(pl[-1]) <= 1e-9
    ok = monotone and final_ok and control_ok and elapsed < 5.0
    _report(
        4, ok,
        f"gaps {vg[0]:.3f}->{vg[10]:.2e} nonincreasing, final loss {pl[10]:.2e} "
        f"<= {1e-3 * float(x0 @ x0):.2e}, control row ({vg[-1]:.1e},{pl[-1]:.1e}), {elapsed:.2f}s",
    )


def test_criterion_05_discounted_solver_exactness():
    grid = Grid1D(-1.0, 1.0, 201)
    spec = bm_model(sigma=1.0, cost_value=1.0)  # c = 1, alpha = 1
    sol = solve_discounted(spec, grid, alpha=0.5)
    err = float(np.abs(sol.values - 2.0).max())
    sat = saturated_model()
    sol_sat = solve_discounted(sat, SAT_GRID)
    bound = sat.cost_bound() / sat.costs.alpha
    in_bounds = (
        sol.values.min() >= -1e-12
        and sol.values.max() <= 1.0 / 0.5 + 1e-12
        and sol_sat.values.min() >= -1e-12
        and sol_sat.values.max() <= bound + 1e-12
    )
    ok = err <= 1e-8 and in_bounds
    _report(5, ok, f"|V - 2| = {err:.2e} (tol 1e-8), 0 <= V <= M_c/alpha on both solves")


def test_criterion_06_regime_coupling_exactness():
    # (alpha I - M) V = c with m12 = 1, m21 = 2, c = (1, 2), alpha = 1 has
    # determinant 4 and V = (1.25, 1.5); the Monte Carlo run must agree.
    grid_spec = chain_model()
    v = chain_value(grid_spec)
    assert np.allclose(v, [1.25, 1.5], atol=1e-12)
    sol = solve_discounted(grid_spec, Grid1D(-1.0, 1.0, 101))
    grid_err = max(float(np.abs(sol.values[i] - v[i]).max()) for i in range(2))

    mc_spec = chain_model(sigma=0.0)
    t0 = time.perf_counter()
    details = []
    mc_ok = True
    for i0 in (1, 2):
        est = mc_discounted(
            mc_spec, ZERO, [0.0], i0, 1.0, 0.002, 100_000, seed=7, eps_tail=1e-4
        )
        err = abs(est.value - v[i0 - 1])
        tol = 3.0 * est.stderr + 1e-3
        mc_ok = mc_ok and err <= tol
        details.append(f"i0={i0} |mc-V|={err:.2e}<={tol:.2e}")
    elapsed = time.perf_counter() - t0
    ok = grid_err <= 1e-6 and mc_ok and elapsed < 30.0
    _report(6, ok, f"grid err {grid_err:.2e} (tol 1e-6), {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_07_exit_solver_order():
    spec = cosine_exit_model()
    errs = {}
    for n_x in (101, 201):
        g = Grid1D(-1.0, 1.0, n_x)
        sol = solve_exit(spec, g)
        phi = np.cos(np.pi * g.nodes / 2.0) / 2.0
        errs[n_x] = float(np.abs(sol.values[0] - phi).max())
        assert errs[n_x] <= 2.0 * g.dx**2
        mid = sol.values[0, (n_x - 1) // 2]
        assert abs(mid - 0.5) <= 2.0 * g.dx**2
    ratio = errs[101] / errs[201]
    ok = ratio >= 3.0
    _report(
        7, ok,
        f"errors {errs[101]:.2e}/{errs[201]:.2e} <= 2 dx^2, ratio {ratio:.2f} >= 3",
    )


def test_criterion_08_vanishing_discount_ergodic():
    spec = chain_model()
    est = estimate_ergodic(spec, Grid1D(-1.0, 1.0, 101))
    rel_err = abs(est.rho - 4.0 / 3.0) / (4.0 / 3.0)
    mc = mc_ergodic(chain_model(sigma=0.0), ZERO, [0.0], 1, 50.0, 0.05, 2000, seed=11)
    mc_err = abs(mc.value - est.rho)
    mc_tol = 3.0 * mc.stderr + 0.02
    ok = rel_err <= 0.02 and mc_err <= mc_tol
    _report(
        8, ok,
        f"average-cost Howard rho {est.rho:.6f} rel err {rel_err:.2e} <= 2%, "
        f"|mc - rho| = {mc_err:.2e} <= {mc_tol:.2e}",
    )


def test_criterion_09_grid_robustness_sweeps():
    spec = saturated_model()
    tol = 1e-8
    t0 = time.perf_counter()
    details = []
    ok = True
    for criterion in ("discounted", "exit", "finite-horizon", "ergodic"):
        rep = sweep_grid(spec, SAT_SCHEDULE, criterion, SAT_GRID, tol=tol)
        vg = rep.column("value_gap")
        pl = rep.column("policy_loss")
        decade = vg[10] <= 0.1 * min(vg[0], vg[1]) and pl[10] <= 0.1 * min(pl[0], pl[1])
        control = vg[-1] <= 10.0 * tol and abs(pl[-1]) <= 10.0 * tol
        nonneg = bool(np.all(pl >= -tol))
        ok = ok and decade and control and nonneg
        details.append(f"{criterion}: vg10/vg0 {vg[10] / vg[0]:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(9, ok, f"{'; '.join(details)}; control rows <= 10 tol, {elapsed:.1f}s")


def test_criterion_10_three_eps_optimality():
    rep = check_eps_optimality(
        saturated_model(), SAT_SCHEDULE, "discounted", 0.05, SAT_GRID
    )
    ok = rep.threshold_n is not None and rep.threshold_n <= 10
    _report(10, ok, f"{rep.verdict} (N <= 10), worst gap {max(r.gap for r in rep.rows):.3f}")


def test_criterion_11_simulation_laws():
    t0 = time.perf_counter()
    # terminal variance of a standard Brownian motion at T = 1
    bm = bm_model(sigma=1.0)
    n_paths = 10_000
    eng = BatchStepper(bm, [0.0], 1, 0.01, seed=5, n_paths=n_paths)
    for _ in range(100):
        eng.step(ZERO.actions_at(eng.t, eng.x, eng.s))
    var = float(np.var(eng.x[:, 0], ddof=1))
    var_tol = 3.0 * math.sqrt(2.0 / (n_paths - 1))
    var_ok = abs(var - 1.0) <= var_tol

    # occupation fraction of a symmetric two-regime chain
    sym = chain_model(sigma=0.0, m12=1.0, m21=1.0)
    eng = BatchStepper(sym, [0.0], 1, 0.05, seed=9, n_paths=500)
    hits = 0
    for _ in range(4000):
        eng.step(ZERO.actions_at(eng.t, eng.x, eng.s))
        hits += int(np.count_nonzero(eng.s == 0))
    occ = hits / (4000 * 500)
    occ_ok = abs(occ - 0.5) <= 0.02

    # mean exit time of BM with a = 1 from (-1, 1): E[tau](0) = 0.5
    est = mc_exit(
        bm_model(sigma=math.sqrt(2.0), cost_value=1.0), ZERO, [0.0], 1,
        2e-4, 20_000, seed=3, t_cap=6.0,
    )
    exit_err = abs(est.value - 0.5)
    exit_tol = 3.0 * est.stderr + 0.02
    exit_ok = exit_err <= exit_tol and est.capped_fraction == 0.0
    elapsed = time.perf_counter() - t0
    ok = var_ok and occ_ok and exit_ok and elapsed < 60.0
    _report(
        11, ok,
        f"var {var:.4f} (tol {var_tol:.3f}), occupation {occ:.4f} (tol 0.02), "
        f"exit err {exit_err:.2e} <= {exit_tol:.2e}, {elapsed:.1f}s",
    )


CHAIN_DOC = {
    "dim": 1,
    "regimes": {"count": 2},
    "actions": [[0.0]],
    "drift": {"kind": "constant", "b0": [[0.0], [0.0]]},
    "diffusion": {"kind": "constant", "c0": [[[0.2]], [[0.2]]]},
    "generator": {"kind": "constant", "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "costs": {
        "running": {"kind": "regime", "values": [1.0, 2.0]},
        "alpha": 1.0,
        "horizon": 1.0,
    },
}

LQ_DOC = {
    "dim": 1,
    "regimes": {"count": 1},
    "actions": [[0.0]],
    "drift": {"kind": "lq", "a": [[[0.0]]], "b": [[[1.0]]]},
    "diffusion": {"kind": "lq", "c": [[[0.0]]]},
    "generator": {"kind": "constant", "rates": [[0.0]]},
    "costs": {
        "running": {"kind": "lq", "q": [[[1.0]]], "r": [[[1.0]]]},
        "alpha": 1.0,
        "horizon": 1.0,
    },
}

GRID_DOC = {"x_min": -2.0, "x_max": 2.0, "n_x": 101}
SMALL_GRID_DOC = {"x_min": -2.0, "x_max": 2.0, "n_x": 51}
RATES_SCHED = {"mode": "rates", "n_max": 4, "d_m": [[0.0, 0.5], [1.0, 0.0]]}

CONFIG_SET = {
    "validate": {"command": "validate", "model": CHAIN_DOC},
    "riccati": {"command": "riccati", "model": LQ_DOC, "riccati": {"steps": 400}},
    "simulate": {
        "command": "simulate", "model": CHAIN_DOC,
        "simulate": {"x0": [0.0], "i0": 1, "dt": 0.01, "seed": 42, "t": 1.0},
    },
    "cost": {
        "command": "cost", "model": CHAIN_DOC,
        "cost": {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.01,
                 "n_paths": 1000, "seed": 7},
    },
    "hjb": {
        "command": "hjb", "model": CHAIN_DOC,
        "hjb": {"criterion": "discounted", "grid": GRID_DOC},
    },
    "ergodic": {
        "command": "ergodic", "model": CHAIN_DOC,
        "ergodic": {"grid": GRID_DOC},
    },
    "robustness": {
        "command": "robustness", "model": CHAIN_DOC,
        "robustness": {"criterion": "discounted", "grid": SMALL_GRID_DOC,
                       "schedule": RATES_SCHED},
    },
    "eps-check": {
        "command": "eps-check", "model": CHAIN_DOC,
        "eps-check": {"criterion": "discounted", "eps": 0.05,
                      "grid": SMALL_GRID_DOC,
                      "schedule": {"mode": "rates", "n_max": 3,
                                   "d_m": [[0.0, 0.5], [1.0, 0.0]]}},
    },
}


def test_criterion_12_byte_identical_reruns(tmp_path):
    outputs = {}
    for run in ("r1", "r2"):
        for name, doc in CONFIG_SET.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc) + "\n")
            out = tmp_path / run / name
            argv = ["--config", str(cfg), "--out", str(out)]
            if name == "riccati":
                with pytest.warns(UserWarning, match="nudged"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            assert code == 0, f"{name} exited {code}"
            outputs.setdefault(name, []).append(out)
    n_files = 0
    for name, (a, b) in outputs.items():
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for fname in files_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), (
                f"{name}/{fname} differs between reruns"
            )
            n_files += 1
    _report(12, True, f"{len(CONFIG_SET)} commands, {n_files} artifacts byte-identical")
