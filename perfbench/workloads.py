"""Inputs, timed passes and output checks of the four benchmark workloads.

The model builders restate those of tests/conftest.py and the CLI configs
restate CONFIG_SET of tests/test_acceptance.py, so that an edit to the tests
cannot move the benchmark's inputs. The seed varies only inputs whose
oracle stays exact (horizons, start points, regime labels, chain rates and
Monte Carlo seeds), never the amount of work, so runs on different seeds
are comparable.

Every call into the package goes through a module attribute
(``riccati.solve_coupled_riccati``, not a name imported from it), which is
where the traced run installs its span wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from switchsde import costs, hjbgrid, riccati, robustness, simulate
from switchsde.hjbgrid import Grid1D
from switchsde.model import (
    ActionGrid,
    BoundaryCost,
    CostSpec,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    ModelSpec,
    PerturbationSchedule,
    RegimeSet,
    RunningCost,
    TerminalCost,
)

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"
now = time.perf_counter


_CAL_A = np.ones((1, 2, 2))
_CAL_SRC = np.ones(2_000_000)
_CAL_DST = np.empty_like(_CAL_SRC)


def calibration_kernel() -> None:
    """Fixed work independent of the package: small-array numpy calls and
    bytecode, then two passes over 16 MB arrays.

    Its time tracks how fast this machine runs the kind of code the package
    runs at the moment, compute-bound and memory-bound alike; on a shared
    machine that drifts by tens of percent within seconds.
    """
    k = _CAL_A.copy()
    acc = 0
    for i in range(1500):
        k = k + 0.001 * np.einsum("nij,njk->nik", k, _CAL_A)
        acc += i * i
    np.multiply(_CAL_SRC, 1.0001, out=_CAL_DST)
    np.add(_CAL_DST, float(k[0, 0, 0]) + acc, out=_CAL_DST)


def calibrate() -> float:
    """Faster of two calibration_kernel() runs, in seconds."""
    best = float("inf")
    for _ in range(2):
        t = now()
        calibration_kernel()
        best = min(best, now() - t)
    return best


def timed(ops: dict, name: str, fn, *args, **kwargs):
    """Call fn; append (its wall time, the calibration around it) to ops[name]."""
    before = calibrate()
    t = now()
    out = fn(*args, **kwargs)
    elapsed = now() - t
    ops.setdefault(name, []).append((elapsed, 0.5 * (before + calibrate())))
    return out


class Checks:
    """Counts checked operations and keeps a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        err = abs(float(got) - float(want))
        self.expect(name, err <= tol, f"|{got:.10g} - {want:.10g}| = {err:.3g} > {tol:.3g}")


# ---------------------------------------------------------------------------
# model builders (tests/conftest.py)


def chain_model(sigma=0.2, m12=1.0, m21=2.0, values=(1.0, 2.0), alpha=1.0):
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(2),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("constant", 1, 2, 1, b0=np.zeros((2, 1))),
        diffusion=DiffusionFamily("constant", 1, 2, c0=np.full((2, 1, 1), float(sigma))),
        generator=GeneratorSpec("constant", 2, rates=np.array([[-m12, m12], [m21, -m21]])),
        costs=CostSpec(
            running=RunningCost("regime", 2, 1, 1, values=np.asarray(values, dtype=np.float64)),
            alpha=alpha,
            horizon=1.0,
            terminal=TerminalCost("zero", 2, 1),
            exit_h=BoundaryCost("zero"),
            exit_beta=ExitDiscount("zero"),
            exit_domain=(-1.0, 1.0),
        ),
    )


def chain_value(spec: ModelSpec, alpha: float) -> np.ndarray:
    """Exact discounted value (alpha I - M)^{-1} c of a chain model."""
    return np.linalg.solve(alpha * np.eye(2) - spec.generator.rates, spec.costs.running.values)


def saturated_model():
    n = 2
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(n),
        actions=ActionGrid(np.array([[-1.0], [1.0]])),
        drift=DriftFamily(
            "saturated-affine", 1, n, 1,
            a_mat=np.array([[[1.0]], [[-0.5]]]),
            b_mat=np.array([[[1.0]], [[1.0]]]),
            b0=np.array([[0.5], [-0.3]]),
            saturation=1.0,
        ),
        diffusion=DiffusionFamily("constant", 1, n, c0=np.ones((n, 1, 1))),
        generator=GeneratorSpec("constant", n, rates=np.array([[-1.0, 1.0], [2.0, -2.0]])),
        costs=CostSpec(
            running=RunningCost("quad-clamped", n, 1, 1, weight=1.0, cap=4.0, action_weight=0.1),
            alpha=0.5,
            horizon=1.0,
            terminal=TerminalCost("quad", n, 1, p_mat=np.full((n, 1, 1), 0.5)),
            exit_h=BoundaryCost("constant", value=0.5),
            exit_beta=ExitDiscount("constant", value=0.25),
            exit_domain=(-2.0, 2.0),
        ),
    )


def bm_model(sigma=1.0, cost_value=0.0):
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(1),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("constant", 1, 1, 1, b0=np.zeros((1, 1))),
        diffusion=DiffusionFamily("constant", 1, 1, c0=np.full((1, 1, 1), float(sigma))),
        generator=GeneratorSpec("constant", 1, rates=np.zeros((1, 1))),
        costs=CostSpec(
            running=RunningCost("constant", 1, 1, 1, value=float(cost_value)),
            alpha=1.0,
            horizon=1.0,
            terminal=TerminalCost("zero", 1, 1),
            exit_h=BoundaryCost("zero"),
            exit_beta=ExitDiscount("zero"),
            exit_domain=(-1.0, 1.0),
        ),
    )


def reference_lq():
    return riccati.LQSpec(
        dim=2,
        n_regimes=2,
        control_dim=1,
        a=np.array([[[0.0, 1.0], [-1.0, -0.5]], [[0.3, 0.0], [0.0, -1.0]]]),
        b=np.array([[[0.0], [1.0]], [[0.5], [1.0]]]),
        c=np.array([[[0.2, 0.0], [0.0, 0.2]], [[0.1, 0.0], [0.05, 0.15]]]),
        q=np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.3], [0.3, 1.0]]]),
        r=np.array([[[0.5]], [[1.0]]]),
        p=np.array([[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.2], [0.2, 0.8]]]),
        rates=np.array([[-1.0, 1.0], [2.0, -2.0]]),
        horizon=2.0,
    )


def scalar_lq(horizon=1.0):
    """A = C = 0, B = Q = R = 1, P = 0: K(t) = tanh(T - t)."""
    return riccati.LQSpec(
        dim=1, n_regimes=1, control_dim=1,
        a=np.zeros((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)), r=np.ones((1, 1, 1)), p=np.zeros((1, 1, 1)),
        rates=np.zeros((1, 1)), horizon=horizon,
    )


def _digest(values) -> str:
    return hashlib.sha256(repr([float(v) for v in values]).encode()).hexdigest()


# ---------------------------------------------------------------------------
# lq-riccati: coupled Riccati RK4 and the LQ robustness sweep


COMBINED_SCHEDULE = dict(
    d_a=np.array([[[0.2, 0.0], [0.1, 0.3]], [[0.3, 0.1], [0.0, 0.2]]]),
    d_b=np.array([[[0.1], [0.2]], [[0.2], [0.1]]]),
    d_c=np.array([[[0.05, 0.0], [0.0, 0.05]], [[0.05, 0.02], [0.0, 0.05]]]),
    d_m=np.array([[0.0, 0.5], [1.0, 0.0]]),
)
RATES_DIRECTION = np.array([[0.0, 0.5], [1.0, 0.0]])


def lq_inputs(seed: int, probe: bool, ctx=None):
    rng = np.random.default_rng([seed, 1])
    horizon = float(rng.uniform(0.8, 1.2))
    angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)
    sweeps = [("rates", PerturbationSchedule("rates", 2 if probe else 4, d_m=RATES_DIRECTION))]
    if not probe:
        sweeps.insert(0, ("combined", PerturbationSchedule("combined", 10, **COMBINED_SCHEDULE)))
    return SimpleNamespace(
        scalar=scalar_lq(horizon),
        scalar_solves=1 if probe else 5,
        k0_ref=math.tanh(horizon),
        # u = -x frozen: -M' = -2M + 2, M(T) = 0
        m0_ref=1.0 - math.exp(-2.0 * horizon),
        unit_gain=riccati.FeedbackTrajectory(
            times=np.array([0.0, horizon]), gains=np.ones((2, 1, 1, 1))
        ),
        ref=reference_lq(),
        sweeps=sweeps,
        x0=radius * np.array([math.cos(angle), math.sin(angle)]),
        i0=int(rng.integers(1, 3)),
    )


def lq_pass(inp, checks: Checks) -> dict:
    ops = {}
    for _ in range(inp.scalar_solves):
        traj = timed(ops, "scalar solve", riccati.solve_coupled_riccati, inp.scalar, 1000)
        checks.close("K(0) = tanh T", traj.k[0, 0, 0, 0], inp.k0_ref, 1e-6)

    trajs = {n: timed(ops, f"reference solve {n}", riccati.solve_coupled_riccati, inp.ref, n)
             for n in (400, 800, 1600)}
    k = trajs[400].k
    min_eig = float(np.linalg.eigvalsh(k[1:-1]).min())
    max_norm = float(np.linalg.norm(k, 2, axis=(-2, -1)).max())
    checks.expect("reference K positive definite", min_eig > 0.0, f"min eig {min_eig:.3g}")
    bound = riccati.a_priori_bound(inp.ref)
    checks.expect("reference K within a priori bound", max_norm <= bound, f"{max_norm:.4g} > {bound:.4g}")
    lips = [float(np.abs(np.diff(trajs[n].k, axis=0)).max() * n / inp.ref.horizon) for n in (400, 800, 1600)]
    for a, b in zip(lips, lips[1:]):
        checks.expect("Lipschitz ratio <= 1.1", max(b / a, a / b) <= 1.1, f"{b / a:.4f}")
    defect = timed(ops, "defect", riccati.riccati_defect, trajs[1600], inp.ref)
    checks.expect("Riccati defect <= 1e-4", defect <= 1e-4, f"{defect:.3g}")
    cost = timed(ops, "feedback cost", riccati.fixed_feedback_cost, inp.scalar, inp.unit_gain, 500)
    checks.close("M(0) = 1 - exp(-2T)", cost.k[0, 0, 0, 0], inp.m0_ref, 1e-6)

    outputs = [traj.k[0, 0, 0, 0], defect, cost.k[0, 0, 0, 0]]
    for name, sched in inp.sweeps:
        rep = timed(ops, f"{name} sweep", robustness.sweep_lq_finite_horizon,
                    inp.ref, sched, x0=inp.x0, i0=inp.i0, steps=400)
        vg, pl = rep.column("value_gap"), rep.column("policy_loss")
        head = slice(0, sched.n_max + 1)
        checks.expect(
            f"{name} sweep gaps nonincreasing",
            bool(np.all(np.diff(vg[head]) <= 1e-9) and np.all(np.diff(pl[head]) <= 1e-9)),
            f"value gaps {vg[head]}, losses {pl[head]}",
        )
        checks.expect(
            f"{name} sweep zero-delta row", vg[-1] <= 1e-9 and abs(pl[-1]) <= 1e-9,
            f"({vg[-1]:.3g}, {pl[-1]:.3g})",
        )
        if sched.n_max >= 10:
            checks.expect(
                f"{name} sweep final loss", pl[10] <= 1e-3 * float(inp.x0 @ inp.x0), f"{pl[10]:.3g}"
            )
        outputs.extend(vg)
        outputs.extend(pl)
    return {"ops": ops, "digest": _digest(outputs)}


def lq_parts(times: dict) -> tuple[float, float]:
    """riccati_solve: one scalar solve; lq_sweep: the sweeps of a pass."""
    return times["scalar solve"], sum(t for op, t in times.items() if op.endswith(" sweep"))


# ---------------------------------------------------------------------------
# hjb-grid: stationary grid sweeps and the vanishing-discount ladder


SAT_DIRECTIONS = dict(d_a=np.ones((2, 1, 1)), d_c=np.full((2, 1, 1), 0.3))
GRID_TOL = 1e-8


def hjb_inputs(seed: int, probe: bool, ctx=None):
    rng = np.random.default_rng([seed, 2])
    m12, m21 = rng.uniform(0.5, 2.0, size=2)
    chain = chain_model(m12=m12, m21=m21, values=tuple(rng.uniform(0.5, 2.5, size=2)))
    n_max = 2 if probe else 10
    return SimpleNamespace(
        sat=saturated_model(),
        sched=PerturbationSchedule("coefficient", n_max, **SAT_DIRECTIONS),
        stationary_grids=[Grid1D(-2.0, 2.0, n) for n in ((51,) if probe else (201, 401))],
        # one perturbed row and the control row: the full ladder (76 to 565
        # sweeps per evaluation) in an operation short enough to repeat
        ergodic_sched=PerturbationSchedule("coefficient", 0, **SAT_DIRECTIONS),
        ergodic_grid=Grid1D(-2.0, 2.0, 51 if probe else 101),
        chain=chain,
        chain_ref=chain_value(chain, 0.025),
    )


def _grid_sweep_checks(checks: Checks, rep, n_max: int) -> None:
    vg, pl = rep.column("value_gap"), rep.column("policy_loss")
    crit = rep.criterion
    if n_max >= 10:
        checks.expect(
            f"{crit} sweep decade decay",
            vg[10] <= 0.1 * min(vg[0], vg[1]) and pl[10] <= 0.1 * min(pl[0], pl[1]),
            f"value gaps {vg[0]:.3g} -> {vg[10]:.3g}, losses {pl[0]:.3g} -> {pl[10]:.3g}",
        )
    checks.expect(
        f"{crit} sweep control row", vg[-1] <= 10 * GRID_TOL and abs(pl[-1]) <= 10 * GRID_TOL,
        f"({vg[-1]:.3g}, {pl[-1]:.3g})",
    )
    checks.expect(f"{crit} sweep losses nonnegative", bool(np.all(pl >= -GRID_TOL)), f"min {pl.min():.3g}")


def hjb_pass(inp, checks: Checks) -> dict:
    ops = {}
    outputs = []
    for grid in inp.stationary_grids:
        for crit in ("discounted", "exit", "finite-horizon"):
            rep = timed(ops, f"{crit} sweep n={grid.n_x}", robustness.sweep_grid,
                        inp.sat, inp.sched, crit, grid, tol=GRID_TOL)
            _grid_sweep_checks(checks, rep, inp.sched.n_max)
            outputs.extend(rep.column("value_gap"))
    grid = inp.stationary_grids[0]
    eps = timed(ops, "3-eps check", robustness.check_eps_optimality,
                inp.sat, inp.sched, "discounted", 0.05, grid)
    checks.expect("3-eps threshold_n <= 10", eps.threshold_n is not None and eps.threshold_n <= 10,
                  eps.verdict)
    sol = timed(ops, "chain solve", hjbgrid.solve_discounted, inp.chain, Grid1D(-1.0, 1.0, 101), alpha=0.025)
    for i in range(2):
        err = float(np.abs(sol.values[i] - inp.chain_ref[i]).max())
        checks.expect(f"chain value regime {i + 1}", err <= 1e-6 * inp.chain_ref[i], f"error {err:.3g}")
    outputs.extend(sol.values[:, 0])

    rep = timed(ops, "ergodic sweep", robustness.sweep_grid,
                inp.sat, inp.ergodic_sched, "ergodic", inp.ergodic_grid, tol=GRID_TOL)
    _grid_sweep_checks(checks, rep, inp.ergodic_sched.n_max)
    outputs.extend(rep.column("value_gap"))
    return {"ops": ops, "digest": _digest(outputs)}


def hjb_parts(times: dict) -> tuple[float, float]:
    """stationary: everything but the ergodic sweep; ladder: the ergodic sweep."""
    ladder = times["ergodic sweep"]
    return sum(times.values()) - ladder, ladder


# ---------------------------------------------------------------------------
# mc-paths: batched Euler-Maruyama Monte Carlo


MC_DT = 0.002
EXIT_DT = 5e-4


def discrete_chain_value(spec: ModelSpec, i0: int, n_steps: int) -> float:
    """Exact mean of mc_discounted on a chain model with x-free costs.

    The simulated regime is the discrete chain with transition matrix
    I + M dt, and the cost is weighted dt e^(-t_k) at the left endpoints, so
    this differs from chain_value by O(dt) (about 1.5e-3 here) and leaves
    only the statistical error to the check.
    """
    step = np.eye(2) + spec.generator.rates * MC_DT
    dist = np.eye(2)[i0 - 1]
    total = 0.0
    for k in range(n_steps):
        total += MC_DT * math.exp(-k * MC_DT) * float(dist @ spec.costs.running.values)
        dist = dist @ step
    return total


def mc_steps(spec: ModelSpec) -> int:
    """Steps mc_discounted takes at alpha = 1 and its default eps_tail = 1e-4."""
    return math.ceil(costs.discounted_horizon(spec, 1.0, 1e-4) / MC_DT - 1e-12)


def mc_inputs(seed: int, probe: bool, ctx=None):
    rng = np.random.default_rng([seed, 3])
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    n_paths = 1024 if probe else 4096
    discounted = []
    for label, sigma, run_seed in (("sigma", 0.2, seeds[0]), ("sigma0", 0.0, seeds[1])):
        spec, i0 = chain_model(sigma=sigma), int(rng.integers(1, 3))
        discounted.append((label, spec, i0, run_seed, discrete_chain_value(spec, i0, mc_steps(spec))))
    # discrete monitoring overshoots the boundary by 0.5826 sigma sqrt(dt)
    # on average, so E[tau] = L^2 / (2 a) with the shifted half-width L
    half_width = 1.0 + 0.5826 * math.sqrt(2.0) * math.sqrt(EXIT_DT)
    return SimpleNamespace(
        discounted=discounted,
        bm=bm_model(math.sqrt(2.0), 1.0),
        n_paths=n_paths,
        exit_seed=seeds[2],
        exit_ref=half_width**2 / 2.0,
        zero=simulate.ConstantPolicy(np.zeros(1)),
    )


def mc_pass(inp, checks: Checks) -> dict:
    ops = {}
    outputs = []
    horizon_steps = 0
    for label, spec, i0, seed, ref in inp.discounted:
        est = timed(ops, f"discounted {label}", costs.mc_discounted,
                    spec, inp.zero, [0.0], i0, 1.0, MC_DT, inp.n_paths, seed)
        checks.close(f"discounted estimate ({label})", est.value, ref, 4.0 * est.stderr)
        outputs += [est.value, est.stderr]
        horizon_steps += inp.n_paths * mc_steps(spec)
    est = timed(ops, "exit", costs.mc_exit,
                inp.bm, inp.zero, [0.0], 1, EXIT_DT, inp.n_paths, inp.exit_seed, t_cap=10.0)
    checks.close("exit estimate", est.value, inp.exit_ref, 4.0 * est.stderr + 1e-3)
    checks.expect("no exit path capped", est.capped_fraction == 0.0, f"{est.capped_fraction:.3g}")
    outputs += [est.value, est.stderr]
    # unit running cost, no discount: the estimate is the mean exit time, so
    # it also counts the live path-steps the exit run made
    exit_steps = round(est.value * inp.n_paths / EXIT_DT)
    return {"ops": ops, "digest": _digest(outputs), "path_steps": (horizon_steps, exit_steps)}


def mc_parts(times: dict) -> tuple[float, float]:
    """horizon: the two discounted runs; exit: the exit run."""
    return times["discounted sigma"] + times["discounted sigma0"], times["exit"]


# ---------------------------------------------------------------------------
# cli-commands: one fresh interpreter per command


CHAIN_DOC = {
    "dim": 1,
    "regimes": {"count": 2},
    "actions": [[0.0]],
    "drift": {"kind": "constant", "b0": [[0.0], [0.0]]},
    "diffusion": {"kind": "constant", "c0": [[[0.2]], [[0.2]]]},
    "generator": {"kind": "constant", "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "costs": {"running": {"kind": "regime", "values": [1.0, 2.0]}, "alpha": 1.0, "horizon": 1.0},
}
LQ_DOC = {
    "dim": 1,
    "regimes": {"count": 1},
    "actions": [[0.0]],
    "drift": {"kind": "lq", "a": [[[0.0]]], "b": [[[1.0]]]},
    "diffusion": {"kind": "lq", "c": [[[0.0]]]},
    "generator": {"kind": "constant", "rates": [[0.0]]},
    "costs": {"running": {"kind": "lq", "q": [[[1.0]]], "r": [[[1.0]]]}, "alpha": 1.0, "horizon": 1.0},
}
GRID_DOC = {"x_min": -2.0, "x_max": 2.0, "n_x": 101}
SMALL_GRID_DOC = {"x_min": -2.0, "x_max": 2.0, "n_x": 51}
RATES_SCHED = {"mode": "rates", "n_max": 4, "d_m": [[0.0, 0.5], [1.0, 0.0]]}


def config_set(sim_seed: int, cost_seed: int) -> dict:
    return {
        "validate": {"command": "validate", "model": CHAIN_DOC},
        "riccati": {"command": "riccati", "model": LQ_DOC, "riccati": {"steps": 400}},
        "simulate": {
            "command": "simulate", "model": CHAIN_DOC,
            "simulate": {"x0": [0.0], "i0": 1, "dt": 0.01, "seed": sim_seed, "t": 1.0},
        },
        "cost": {
            "command": "cost", "model": CHAIN_DOC,
            "cost": {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.01,
                     "n_paths": 1000, "seed": cost_seed},
        },
        "hjb": {"command": "hjb", "model": CHAIN_DOC, "hjb": {"criterion": "discounted", "grid": GRID_DOC}},
        "ergodic": {"command": "ergodic", "model": CHAIN_DOC, "ergodic": {"grid": GRID_DOC}},
        "robustness": {
            "command": "robustness", "model": CHAIN_DOC,
            "robustness": {"criterion": "discounted", "grid": SMALL_GRID_DOC, "schedule": RATES_SCHED},
        },
        "eps-check": {
            "command": "eps-check", "model": CHAIN_DOC,
            "eps-check": {"criterion": "discounted", "eps": 0.05, "grid": SMALL_GRID_DOC,
                          "schedule": {"mode": "rates", "n_max": 3, "d_m": [[0.0, 0.5], [1.0, 0.0]]}},
        },
    }


def cli_inputs(seed: int, probe: bool, ctx):
    rng = np.random.default_rng([seed, 4])
    configs = {}
    for name, doc in config_set(*(int(s) for s in rng.integers(0, 2**31, size=2))).items():
        path = ctx.work / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n")
        configs[name] = path
    return SimpleNamespace(
        configs=configs, work=ctx.work, env=ctx.env, rounds=0, first_digests={}, span_dir=None
    )


def _artifacts(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def cli_pass(inp, checks: Checks) -> dict:
    """One round over the eight commands, each in a fresh interpreter.

    When the traced run sets ``inp.span_dir``, each command runs through
    cli_child.py, which calls the same ``switchsde.cli.main`` under span
    wrappers and leaves its spans in ``span_dir/<command>.json``.
    """
    span_dir = inp.span_dir
    inp.rounds += 1
    ops = {}
    sizes = 0
    for name, cfg in inp.configs.items():
        out = inp.work / f"round{inp.rounds}" / name
        if span_dir is None:
            argv = [sys.executable, "-m", "switchsde.cli"]
        else:
            argv = [sys.executable, str(CLI_CHILD), "--spans", str(span_dir / f"{name}.json")]
        argv += ["--config", str(cfg), "--out", str(out)]
        proc = timed(ops, name, subprocess.run, argv, env=inp.env, capture_output=True, text=True)
        checks.expect(f"{name} exits 0", proc.returncode == 0,
                      f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if proc.returncode != 0:
            continue
        digest, size = _artifacts(out)
        sizes += size
        first = inp.first_digests.setdefault(name, digest)
        checks.expect(f"{name} artifacts byte-identical across rounds", digest == first)
    for _ in range(3):
        proc = timed(ops, "import", subprocess.run, [sys.executable, "-c", "import switchsde"],
                     env=inp.env, capture_output=True)
        checks.expect("fresh import switchsde", proc.returncode == 0, proc.stderr.decode()[-300:])
    return {"ops": ops, "digest": None, "artifact_bytes": sizes}


def cli_parts(times: dict) -> tuple[float, float]:
    """cmd_p50: the median over the eight commands; import: a fresh import."""
    return statistics.median(t for op, t in times.items() if op != "import"), times["import"]


# ---------------------------------------------------------------------------


WORKLOADS = {
    "lq-riccati": (lq_inputs, lq_pass, lq_parts),
    "hjb-grid": (hjb_inputs, hjb_pass, hjb_parts),
    "mc-paths": (mc_inputs, mc_pass, mc_parts),
    "cli-commands": (cli_inputs, cli_pass, cli_parts),
}


def warm_up(name: str, inp) -> None:
    """Small calls that load every code path the timed pass uses."""
    if name == "lq-riccati":
        riccati.solve_coupled_riccati(inp.scalar, 100)
        riccati.solve_coupled_riccati(inp.ref, 100)
    elif name == "hjb-grid":
        hjbgrid.solve_discounted(inp.sat, Grid1D(-2.0, 2.0, 21))
    elif name == "mc-paths":
        for _, spec, i0, seed, _ in inp.discounted:
            costs.mc_discounted(spec, inp.zero, [0.0], i0, 1.0, MC_DT, 64, seed, eps_tail=0.5)
        costs.mc_exit(inp.bm, inp.zero, [0.0], 1, 0.01, 64, inp.exit_seed, t_cap=10.0)
    elif name == "cli-commands":
        subprocess.run([sys.executable, "-c", "import switchsde.cli"], env=inp.env, check=True)
