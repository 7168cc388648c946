"""Configuration-driven command-line front end.

One JSON document describes the model and exactly one command; the tool
writes CSV artifacts, a ``results.json`` sidecar carrying the tool version
and the SHA-256 digest of the canonical config bytes, and a plain-text
``report.txt`` listing the invariant checks that ran. Outputs contain no
timestamps, so a rerun of the same config bytes is byte-identical.

Exit codes: 0 success, 2 validation findings failure, 3 solver error,
4 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .costs import mc_discounted, mc_ergodic, mc_exit, mc_finite_horizon, write_estimates_csv
from .errors import ConfigError, SwitchSdeError
from .hjbgrid import (
    DEFAULT_LADDER,
    Grid1D,
    estimate_ergodic,
    solve_discounted,
    solve_exit,
    solve_finite_horizon,
)
from .io import atomic_write_text, g17, write_csv
from .model import (
    ModelSpec,
    PerturbationSchedule,
    _take,
    default_sample,
    model_from_dict,
    validate_model,
)
from .riccati import (
    a_priori_bound,
    lq_feedback,
    lq_from_model,
    riccati_defect,
    solve_coupled_riccati,
)
from .robustness import check_eps_optimality, sweep_grid, sweep_lq_finite_horizon
from .simulate import (
    ConstantPolicy,
    LQFeedbackPolicy,
    make_rng_stream,
    simulate_exit_path,
    simulate_path,
)

COMMANDS = ("validate", "riccati", "simulate", "cost", "hjb", "ergodic", "robustness", "eps-check")
STOCHASTIC_COMMANDS = ("simulate", "cost")
GATED_COMMANDS = ("validate", "hjb", "ergodic", "robustness", "eps-check")

RICCATI_HEADER = "t,regime,row,col,value"


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    model: ModelSpec
    block: dict
    out_dir: str | None
    digest: str


def _digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _float(doc: dict, key: str, path: str, default=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing key '{key}'", path)
        return float(default)
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{key}' must be a number", path)
    return float(v)


def _int(doc: dict, key: str, path: str, default=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing key '{key}'", path)
        return int(default)
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' must be an integer", path)
    return v


def _parse_grid(doc, path: str) -> Grid1D:
    _take(doc, path, ["x_min", "x_max", "n_x"])
    try:
        return Grid1D(
            _float(doc, "x_min", path), _float(doc, "x_max", path), _int(doc, "n_x", path)
        )
    except SwitchSdeError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), path) from exc


def _parse_schedule(doc, path: str) -> PerturbationSchedule:
    _take(
        doc, path, ["mode", "n_max"],
        ["magnitudes", "d_a", "d_b", "d_c", "d_m", "d_cost", "hat_b", "hat_sigma"],
    )
    arr = lambda k: np.asarray(doc[k], dtype=np.float64) if k in doc else None
    try:
        return PerturbationSchedule(
            mode=doc["mode"],
            n_max=_int(doc, "n_max", path),
            magnitudes=arr("magnitudes"),
            d_a=arr("d_a"), d_b=arr("d_b"), d_c=arr("d_c"), d_m=arr("d_m"),
            d_cost=doc.get("d_cost"), hat_b=arr("hat_b"), hat_sigma=arr("hat_sigma"),
        )
    except SwitchSdeError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), path) from exc


def _parse_policy(doc, path: str, spec: ModelSpec):
    if doc is None:
        return ConstantPolicy(np.zeros(spec.actions.action_dim))
    _take(doc, path, ["kind"], ["u", "steps"])
    kind = doc["kind"]
    if kind == "zero":
        return ConstantPolicy(np.zeros(spec.actions.action_dim))
    if kind == "constant":
        if "u" not in doc:
            raise ConfigError("constant policy needs 'u'", path)
        return ConstantPolicy(np.asarray(doc["u"], dtype=np.float64))
    if kind == "lq":
        lq = lq_from_model(spec)
        traj = solve_coupled_riccati(lq, n_steps=_int(doc, "steps", path, 400))
        return LQFeedbackPolicy(lq_feedback(traj, lq))
    raise ConfigError(f"unknown policy kind '{kind}'", f"{path}.kind")


_BLOCK_KEYS = {
    "validate": ([], []),
    "riccati": ([], ["steps"]),
    "simulate": (["x0", "i0", "dt", "seed"], ["t", "t_cap", "exit", "policy"]),
    "cost": (
        ["criterion", "x0", "i0", "dt", "n_paths", "seed"],
        ["policy", "t", "t_long", "t_cap", "burn_in", "eps_tail", "batch"],
    ),
    "hjb": (["criterion", "grid"], ["alpha", "horizon", "n_t", "tol", "max_iter"]),
    "ergodic": (["grid"], ["ladder", "tol", "max_iter"]),
    "robustness": (
        ["criterion", "schedule"],
        ["grid", "x0", "i0", "steps", "tol", "max_iter", "n_t", "ladder"],
    ),
    "eps-check": (["criterion", "eps", "grid", "schedule"], ["tol", "max_iter"]),
}


def parse_config(data) -> ExperimentConfig:
    """Strict parse of the experiment document (unknown keys are fatal)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", "config") from exc
    _take(doc, "config", ["command", "model"], ["out", *COMMANDS])
    command = doc["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'", "command")
    extra_blocks = [k for k in COMMANDS if k in doc and k != command]
    if extra_blocks:
        raise ConfigError(
            f"block '{extra_blocks[0]}' does not belong to command '{command}'",
            extra_blocks[0],
        )
    model = model_from_dict(doc["model"])
    required, optional = _BLOCK_KEYS[command]
    if command in doc:
        block = doc[command]
    elif required:
        raise ConfigError(f"command '{command}' needs a '{command}' block", command)
    else:
        block = {}
    _take(block, command, required, optional)
    if command in STOCHASTIC_COMMANDS:
        _int(block, "seed", f"{command}.seed")
    _validate_block(command, block, model)
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a string", "out")
    return ExperimentConfig(
        command=command, model=model, block=block, out_dir=out, digest=_digest(doc)
    )


def _validate_block(command: str, block: dict, model: ModelSpec) -> None:
    """Cross-field requirements that _take cannot express."""
    path = command
    if command == "simulate":
        np.asarray(block["x0"], dtype=np.float64).reshape(model.dim)
        if block.get("exit", False):
            _float(block, "t_cap", path)
        else:
            _float(block, "t", path, default=model.costs.horizon)
        if "policy" in block:
            _parse_policy(block["policy"], f"{path}.policy", model)
    elif command == "cost":
        crit = block["criterion"]
        if crit not in ("discounted", "finite-horizon", "ergodic", "exit"):
            raise ConfigError(f"unknown cost criterion '{crit}'", f"{path}.criterion")
        if crit == "ergodic":
            _float(block, "t_long", path)
        if crit == "exit":
            _float(block, "t_cap", path)
        if "policy" in block:
            _parse_policy(block["policy"], f"{path}.policy", model)
    elif command == "hjb":
        if block["criterion"] not in ("discounted", "finite-horizon", "exit"):
            raise ConfigError(
                f"unknown hjb criterion '{block['criterion']}'", f"{path}.criterion"
            )
        _parse_grid(block["grid"], f"{path}.grid")
    elif command == "ergodic":
        _parse_grid(block["grid"], f"{path}.grid")
    elif command == "robustness":
        crit = block["criterion"]
        if crit == "lq-finite-horizon":
            for key in ("x0", "i0"):
                if key not in block:
                    raise ConfigError(f"lq sweep needs '{key}'", f"{path}.{key}")
        elif crit in ("discounted", "finite-horizon", "exit", "ergodic"):
            if "grid" not in block:
                raise ConfigError("grid sweep needs 'grid'", f"{path}.grid")
            _parse_grid(block["grid"], f"{path}.grid")
        else:
            raise ConfigError(f"unknown sweep criterion '{crit}'", f"{path}.criterion")
        _parse_schedule(block["schedule"], f"{path}.schedule")
    elif command == "eps-check":
        if block["criterion"] not in ("discounted", "exit"):
            raise ConfigError(
                f"eps-check supports 'discounted' and 'exit', not '{block['criterion']}'",
                f"{path}.criterion",
            )
        if _float(block, "eps", path) <= 0:
            raise ConfigError("'eps' must be > 0", f"{path}.eps")
        _parse_grid(block["grid"], f"{path}.grid")
        _parse_schedule(block["schedule"], f"{path}.schedule")


# ---------------------------------------------------------------------------
# command runners


def _run_riccati(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    steps = _int(cfg.block, "steps", "riccati", 400)
    lq = lq_from_model(cfg.model)
    traj = solve_coupled_riccati(lq, n_steps=steps)
    gains = lq_feedback(traj, lq)
    write_csv(out / "K.csv", RICCATI_HEADER, traj.rows())
    grows = (
        (gains.times[t], i + 1, r, c, gains.gains[t, i, r, c])
        for t in range(gains.gains.shape[0])
        for i in range(gains.gains.shape[1])
        for r in range(gains.gains.shape[2])
        for c in range(gains.gains.shape[3])
    )
    write_csv(out / "gains.csv", RICCATI_HEADER, grows)
    defect = riccati_defect(traj, lq)
    bound = a_priori_bound(lq)
    kmax = float(np.max(np.linalg.norm(traj.k, axis=(-2, -1))))
    lines.append(f"riccati: steps={steps} defect={g17(defect)}")
    lines.append(
        f"PASS a-priori-bound: max Frobenius norm {g17(kmax)} <= {g17(bound)}"
        if kmax <= bound
        else f"FAIL a-priori-bound: {g17(kmax)} > {g17(bound)}"
    )
    lines.append(f"PASS symmetry: defect {g17(traj.symmetry_defect())}")
    results["k0"] = traj.k[0].tolist()
    results["defect"] = defect
    results["outputs"] = ["K.csv", "gains.csv"]


def _run_simulate(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    spec = cfg.model
    x0 = np.asarray(block["x0"], dtype=np.float64)
    i0 = _int(block, "i0", "simulate")
    dt = _float(block, "dt", "simulate")
    stream = make_rng_stream(_int(block, "seed", "simulate"), 0)
    policy = _parse_policy(block.get("policy"), "simulate.policy", spec)
    if block.get("exit", False):
        path = simulate_exit_path(
            spec, policy, x0, i0, spec.costs.exit_domain, dt,
            _float(block, "t_cap", "simulate"), stream,
        )
    else:
        t_end = _float(block, "t", "simulate", default=spec.costs.horizon)
        path = simulate_path(spec, policy, x0, i0, t_end, dt, stream)
    path.to_csv(out / "path.csv")
    lines.append(
        f"simulate: steps={path.times.size - 1} termination={path.termination} "
        f"jumps={len(path.jumps)} clamped={path.clamped_steps}"
    )
    results["termination"] = path.termination
    results["n_jumps"] = len(path.jumps)
    results["outputs"] = ["path.csv"]


def _run_cost(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    spec = cfg.model
    crit = block["criterion"]
    x0 = np.asarray(block["x0"], dtype=np.float64)
    i0 = _int(block, "i0", "cost")
    dt = _float(block, "dt", "cost")
    n_paths = _int(block, "n_paths", "cost")
    seed = _int(block, "seed", "cost")
    kw = {}
    if "batch" in block:
        kw["batch"] = _int(block, "batch", "cost")
    policy = _parse_policy(block.get("policy"), "cost.policy", spec)
    if crit == "discounted":
        est = mc_discounted(
            spec, policy, x0, i0, spec.costs.alpha, dt, n_paths, seed,
            eps_tail=_float(block, "eps_tail", "cost", 1e-4), **kw,
        )
    elif crit == "finite-horizon":
        t_end = _float(block, "t", "cost", default=spec.costs.horizon)
        est = mc_finite_horizon(spec, policy, x0, i0, t_end, dt, n_paths, seed, **kw)
    elif crit == "ergodic":
        burn = _float(block, "burn_in", "cost", -1.0)
        est = mc_ergodic(
            spec, policy, x0, i0, _float(block, "t_long", "cost"), dt, n_paths, seed,
            burn_in=None if burn < 0 else burn, **kw,
        )
    else:
        est = mc_exit(
            spec, policy, x0, i0, dt, n_paths, seed, _float(block, "t_cap", "cost"), **kw
        )
    write_estimates_csv(out / "estimates.csv", [est])
    lines.append(
        f"cost: criterion={crit} value={g17(est.value)} stderr={g17(est.stderr)} "
        f"paths={est.paths} capped_fraction={g17(est.capped_fraction)}"
    )
    results["value"] = est.value
    results["stderr"] = est.stderr
    results["outputs"] = ["estimates.csv"]


def _run_hjb(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    grid = _parse_grid(block["grid"], "hjb.grid")
    tol = _float(block, "tol", "hjb", 1e-8)
    max_iter = _int(block, "max_iter", "hjb", 100)
    crit = block["criterion"]
    if crit == "discounted":
        alpha = block.get("alpha")
        sol = solve_discounted(
            cfg.model, grid,
            alpha=float(alpha) if alpha is not None else None, tol=tol, max_iter=max_iter,
        )
    elif crit == "finite-horizon":
        hor = block.get("horizon")
        n_t = block.get("n_t")
        sol = solve_finite_horizon(
            cfg.model, grid,
            horizon=float(hor) if hor is not None else None,
            n_t=int(n_t) if n_t is not None else None,
        )
    else:
        sol = solve_exit(cfg.model, grid, tol=tol, max_iter=max_iter)
    sol.to_csv(out / "values.csv")
    lines.append(
        f"hjb: criterion={crit} iterations={sol.iterations} "
        f"residual={g17(sol.residual)}"
    )
    results["iterations"] = sol.iterations
    results["residual"] = sol.residual
    results["outputs"] = ["values.csv"]


def _run_ergodic(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    grid = _parse_grid(block["grid"], "ergodic.grid")
    ladder = tuple(block.get("ladder", DEFAULT_LADDER))
    est = estimate_ergodic(
        cfg.model, grid, ladder=ladder, tol=_float(block, "tol", "ergodic", 1e-8),
        max_iter=_int(block, "max_iter", "ergodic", 100),
    )
    write_csv(out / "ladder.csv", "alpha,alpha_v_ref", zip(est.ladder, est.ladder_values))
    from .hjbgrid import GridSolution

    GridSolution(
        criterion="ergodic", grid=grid, values=est.relative_values, policy=est.policy,
        iterations=len(est.ladder), residual=0.0,
    ).to_csv(out / "values.csv")
    lines.append(f"ergodic: rho={g17(est.rho)} reference_node={est.reference_node}")
    m_c = cfg.model.cost_bound()
    tag = "PASS" if abs(est.rho) <= m_c + 1e-9 else "FAIL"
    lines.append(f"{tag} rho-bound: |rho| = {g17(abs(est.rho))} vs M_c = {g17(m_c)}")
    results["rho"] = est.rho
    results["ladder"] = list(est.ladder)
    results["ladder_values"] = list(est.ladder_values)
    results["outputs"] = ["ladder.csv", "values.csv"]


def _run_robustness(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    crit = block["criterion"]
    sched = _parse_schedule(block["schedule"], "robustness.schedule")
    tol = _float(block, "tol", "robustness", 1e-8)
    if crit == "lq-finite-horizon":
        lq = lq_from_model(cfg.model)
        rep = sweep_lq_finite_horizon(
            lq, sched, np.asarray(block["x0"], dtype=np.float64),
            _int(block, "i0", "robustness"), steps=_int(block, "steps", "robustness", 400),
        )
    else:
        grid = _parse_grid(block["grid"], "robustness.grid")
        n_t = block.get("n_t")
        rep = sweep_grid(
            cfg.model, sched, crit, grid, tol=tol,
            max_iter=_int(block, "max_iter", "robustness", 100),
            n_t=int(n_t) if n_t is not None else None,
            ladder=tuple(block.get("ladder", DEFAULT_LADDER)),
        )
    rep = replace(rep, config_digest=cfg.digest)
    rep.to_csv(out / "sweep.csv")
    first, last = rep.rows[0], rep.rows[-1]
    lines.append(
        f"robustness: criterion={crit} rows={len(rep.rows)} "
        f"first value_gap={g17(first.value_gap)} last value_gap={g17(last.value_gap)}"
    )
    zero_rows = [r for r in rep.rows if r.delta == 0.0]
    if zero_rows:
        z = zero_rows[-1]
        tag = "PASS" if max(abs(z.value_gap), abs(z.policy_loss)) <= 10 * tol else "FAIL"
        lines.append(
            f"{tag} zero-delta-row: value_gap={g17(z.value_gap)} policy_loss={g17(z.policy_loss)}"
        )
    worst = min(r.policy_loss for r in rep.rows)
    tag = "PASS" if worst >= -tol else "FAIL"
    lines.append(f"{tag} policy-loss-nonnegative: min policy_loss = {g17(worst)}")
    results["rows"] = len(rep.rows)
    results["final_value_gap"] = last.value_gap
    results["final_policy_loss"] = last.policy_loss
    results["outputs"] = ["sweep.csv"]


def _run_eps_check(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    block = cfg.block
    sched = _parse_schedule(block["schedule"], "eps-check.schedule")
    grid = _parse_grid(block["grid"], "eps-check.grid")
    rep = check_eps_optimality(
        cfg.model, sched, block["criterion"], _float(block, "eps", "eps-check"), grid,
        tol=_float(block, "tol", "eps-check", 1e-8),
        max_iter=_int(block, "max_iter", "eps-check", 100),
    )
    rep = replace(rep, config_digest=cfg.digest)
    rep.to_csv(out / "epscheck.csv")
    tag = "PASS" if rep.passed else "FAIL"
    lines.append(f"{tag} three-eps: {rep.verdict}")
    results["threshold_n"] = rep.threshold_n
    results["verdict"] = rep.verdict
    results["outputs"] = ["epscheck.csv"]


_RUNNERS = {
    "riccati": _run_riccati,
    "simulate": _run_simulate,
    "cost": _run_cost,
    "hjb": _run_hjb,
    "ergodic": _run_ergodic,
    "robustness": _run_robustness,
    "eps-check": _run_eps_check,
}


def _write_report(out: Path, lines: list, results: dict) -> None:
    atomic_write_text(out / "report.txt", "\n".join(lines) + "\n")
    atomic_write_text(
        out / "results.json", json.dumps(results, sort_keys=True, indent=2) + "\n"
    )


def run_command(cfg: ExperimentConfig, out_dir=None, verbose: bool = False) -> int:
    """Dispatch one parsed config; returns the process exit code."""
    out = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"switchsde {__version__}", f"command: {cfg.command}", f"config digest: {cfg.digest}"]
    results = {"version": __version__, "command": cfg.command, "config_digest": cfg.digest}

    try:
        if cfg.command in GATED_COMMANDS:
            report = validate_model(cfg.model, default_sample(cfg.model))
            lines.append(f"validation: {'PASS' if report.passed else 'FAIL'}")
            lines.extend(str(report).splitlines())
            results["validation_passed"] = report.passed
            if not report.passed:
                results["validation_failures"] = [f.name for f in report.failures()]
                _write_report(out, lines, results)
                if verbose:
                    print("\n".join(lines))
                return 2
            if cfg.command == "validate":
                _write_report(out, lines, results)
                if verbose:
                    print("\n".join(lines))
                return 0
        _RUNNERS[cfg.command](cfg, out, lines, results)
    except ConfigError as exc:
        lines.append(f"error: {exc}")
        results["error"] = str(exc)
        _write_report(out, lines, results)
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except SwitchSdeError as exc:
        lines.append(f"error: {exc}")
        results["error"] = str(exc)
        _write_report(out, lines, results)
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    _write_report(out, lines, results)
    if verbose:
        print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchsde",
        description="Regime-switching diffusion control experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment JSON")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or ./out)")
    parser.add_argument(
        "--threads", type=int, default=0,
        help="accepted and ignored: every command runs on one thread",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        data = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 4
    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    return run_command(cfg, out_dir=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
