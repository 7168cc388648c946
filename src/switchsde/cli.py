"""Configuration-driven command-line front end.

One JSON document describes the model and exactly one command; the tool
writes CSV artifacts, a ``results.json`` sidecar carrying the tool version
and the SHA-256 digest of the canonical config bytes, and a plain-text
``report.txt`` listing the invariant checks that ran. Outputs contain no
timestamps, so a rerun of the same config bytes is byte-identical.

Each command block is described by one table in ``BLOCKS``; ``parse_config``
converts every block value once, by that table, and fills in the defaults.
Each command runner imports only the solver modules it calls.

Exit codes: 0 success, 2 validation findings failure, 3 solver error,
4 config error (a bad command line included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, SwitchSdeError
from .io import atomic_write_text, g17, write_csv
from .model import (
    DIRECTIONS,
    GRID_CRITERIA,
    ModelSpec,
    PerturbationSchedule,
    _array,
    _integer,
    _number,
    _object,
    model_from_dict,
    validate_model,
)

COMMANDS = ("validate", "riccati", "simulate", "cost", "hjb", "ergodic", "robustness", "eps-check")
GATED_COMMANDS = ("validate", "hjb", "ergodic", "robustness", "eps-check")

RICCATI_HEADER = "t,regime,row,col,value"


# ---------------------------------------------------------------------------
# block tables: (key, type, default) per key
#
# A type is one of "number", "integer", "bool", "state" (dim numbers),
# "action" (action-dim numbers), "array" (numbers nested to any depth),
# "grid", "schedule", "policy", or a tuple of allowed strings. A default is
# a value, REQUIRED, a function of the model, or Only(key, values, default):
# that default when an earlier key of the block has one of the values, else
# None, and then giving the key is a ConfigError.

REQUIRED = object()


class Only(NamedTuple):
    key: str
    values: tuple
    default: object = REQUIRED


def _horizon(model: ModelSpec) -> float:
    return model.costs.horizon


def _batch(model: ModelSpec) -> int:
    from .costs import DEFAULT_BATCH

    return DEFAULT_BATCH


_LQ_SWEEP = ("lq-finite-horizon",)
_STATIONARY = ("discounted", "exit", "ergodic")
_START = (
    ("x0", "state", REQUIRED),
    ("i0", "integer", REQUIRED),
    ("dt", "number", REQUIRED),
    ("seed", "integer", REQUIRED),
)
_SOLVER = (("tol", "number", 1e-8), ("max_iter", "integer", 100))

BLOCKS = {
    "validate": (),
    "riccati": (("steps", "integer", 400),),
    "simulate": (
        *_START,
        ("exit", "bool", False),
        ("t", "number", Only("exit", (False,), _horizon)),
        ("t_cap", "number", Only("exit", (True,))),
        ("policy", "policy", None),
    ),
    "cost": (
        ("criterion", ("discounted", "finite-horizon", "ergodic", "exit"), REQUIRED),
        *_START,
        ("n_paths", "integer", REQUIRED),
        ("policy", "policy", None),
        ("t_long", "number", Only("criterion", ("ergodic",))),
        ("t_cap", "number", Only("criterion", ("exit",))),
        ("burn_in", "number", Only("criterion", ("ergodic",), None)),
        ("eps_tail", "number", Only("criterion", ("discounted",), 1e-4)),
        ("batch", "integer", _batch),
    ),
    "hjb": (
        ("criterion", ("discounted", "finite-horizon", "exit"), REQUIRED),
        ("grid", "grid", REQUIRED),
        ("n_t", "integer", Only("criterion", ("finite-horizon",), None)),
        ("tol", "number", Only("criterion", _STATIONARY, 1e-8)),
        ("max_iter", "integer", Only("criterion", _STATIONARY, 100)),
    ),
    "ergodic": (
        ("grid", "grid", REQUIRED),
        *_SOLVER,
    ),
    "robustness": (
        ("criterion", (*_LQ_SWEEP, *GRID_CRITERIA), REQUIRED),
        ("schedule", "schedule", REQUIRED),
        ("grid", "grid", Only("criterion", GRID_CRITERIA)),
        ("x0", "state", Only("criterion", _LQ_SWEEP)),
        ("i0", "integer", Only("criterion", _LQ_SWEEP)),
        ("steps", "integer", Only("criterion", _LQ_SWEEP, 400)),
        # tol also sets the tolerance of the report's checks, for every criterion
        ("tol", "number", 1e-8),
        ("max_iter", "integer", Only("criterion", _STATIONARY, 100)),
        ("n_t", "integer", Only("criterion", ("finite-horizon",), None)),
    ),
    "eps-check": (
        ("criterion", ("discounted", "exit"), REQUIRED),
        ("eps", "number", REQUIRED),
        ("grid", "grid", REQUIRED),
        ("schedule", "schedule", REQUIRED),
        *_SOLVER,
    ),
}
GRID = (("x_min", "number", REQUIRED), ("x_max", "number", REQUIRED), ("n_x", "integer", REQUIRED))
SCHEDULE = (
    ("mode", PerturbationSchedule.MODES, REQUIRED),
    ("n_max", "integer", REQUIRED),
    ("magnitudes", "array", None),
    *((key, "array", None) for key in DIRECTIONS),
)
POLICIES = {"zero": (), "constant": (("u", "action", REQUIRED),), "lq": (("steps", "integer", 400),)}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment; ``block`` holds the command's typed values."""

    command: str
    model: ModelSpec
    block: dict
    out_dir: str | None
    digest: str


def _digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _read(doc, table, path: str, model: ModelSpec) -> dict:
    """Typed values of one config object by its table, defaults filled in."""
    _object(doc, path, [key for key, _, _ in table])
    out = {}
    for key, typ, default in table:
        where = f"{path}.{key}"
        if isinstance(default, Only):
            if out[default.key] not in default.values:
                if key in doc:
                    raise ConfigError(
                        f"'{key}' does not apply when {default.key} is {json.dumps(out[default.key])}", where
                    )
                out[key] = None
                continue
            default = default.default
        if key in doc:
            out[key] = _convert(doc[key], typ, where, model)
        elif default is REQUIRED:
            raise ConfigError(f"missing key '{key}'", where)
        else:
            out[key] = default(model) if callable(default) else default
    return out


def _convert(v, typ, path: str, model: ModelSpec):
    """One config value as its table type; a mismatch is a ConfigError."""
    if isinstance(typ, tuple):
        if not isinstance(v, str) or v not in typ:
            raise ConfigError(f"expected one of {', '.join(typ)}", path)
        return v
    if typ == "number":
        return _number(v, path)
    if typ == "integer":
        return _integer(v, path)
    if typ == "bool":
        if not isinstance(v, bool):
            raise ConfigError("expected true or false", path)
        return v
    if typ == "policy":
        kinds = tuple(POLICIES)
        kind = _convert(_object(v, path, None, ("kind",))["kind"], kinds, f"{path}.kind", model)
        return _read(v, (("kind", kinds, REQUIRED), *POLICIES[kind]), path, model)
    if typ in ("grid", "schedule"):
        values = _read(v, GRID if typ == "grid" else SCHEDULE, path, model)
        if typ == "grid":
            from .hjbgrid import Grid1D
        try:
            return Grid1D(**values) if typ == "grid" else PerturbationSchedule(**values)
        except SwitchSdeError as exc:
            # schedule errors name 'schedule.<key>'; grid errors name no field
            raise ConfigError(exc.message, f"{path}{exc.path.removeprefix('schedule')}") from exc
    arr = _array(v, path)
    if typ == "array":
        return arr
    size = {"state": model.dim, "action": model.actions.action_dim}[typ]
    if arr.ndim != 1 or arr.size != size:
        raise ConfigError(f"expected a list of numbers of length {size}", path)
    return arr


def parse_config(data) -> ExperimentConfig:
    """Strict parse of the experiment document (unknown keys are fatal).

    The model and the command's block are converted once; the block comes
    back typed, with every default filled in. Type, shape and presence
    errors raise ConfigError naming the dotted path of the field.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", "config") from exc
    _object(doc, "", ("command", "model", "out", *COMMANDS), ("command", "model"))
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
    block = _read(doc.get(command, {}), BLOCKS[command], command, model)
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a string", "out")
    return ExperimentConfig(
        command=command, model=model, block=block, out_dir=out, digest=_digest(doc)
    )


def _policy(entry: dict | None, spec: ModelSpec):
    """The simulation policy of a parsed ``policy`` entry (zero when absent)."""
    from .simulate import ConstantPolicy, LQFeedbackPolicy

    if entry is None or entry["kind"] == "zero":
        return ConstantPolicy(np.zeros(spec.actions.action_dim))
    if entry["kind"] == "constant":
        return ConstantPolicy(entry["u"])
    from .riccati import lq_feedback, lq_from_model, solve_coupled_riccati

    lq = lq_from_model(spec)
    return LQFeedbackPolicy(lq_feedback(solve_coupled_riccati(lq, n_steps=entry["steps"]), lq))


def _lq_within_horizon(cfg: ExperimentConfig, t_end: float, capped: bool) -> None:
    """``policy: lq`` is the Riccati feedback on [0, costs.horizon]: past it the
    gain stays the one at the horizon, so a run that can end later is E_CONFIG.

    ``t_end`` is rounded to the run's step count as the run rounds it, up
    for a ``capped`` (exit) run.
    """
    from .simulate import _cap_steps, _n_steps_for

    b = cfg.block
    if b["policy"] is None or b["policy"]["kind"] != "lq":
        return
    horizon = cfg.model.costs.horizon
    end = (_cap_steps if capped else _n_steps_for)(t_end, b["dt"]) * b["dt"]
    if end > horizon + 1e-9 * max(1.0, horizon):
        raise ConfigError(
            f"policy 'lq' is the feedback on [0, costs.horizon = {horizon:g}], "
            f"but the run can end at t = {end:g}",
            f"{cfg.command}.policy",
        )


# ---------------------------------------------------------------------------
# command runners


def _run_riccati(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    from .riccati import a_priori_bound, lq_feedback, lq_from_model, riccati_defect, solve_coupled_riccati

    steps = cfg.block["steps"]
    lq = lq_from_model(cfg.model)
    traj = solve_coupled_riccati(lq, n_steps=steps)
    gains = lq_feedback(traj, lq)
    write_csv(out / "K.csv", RICCATI_HEADER, traj.rows())
    write_csv(out / "gains.csv", RICCATI_HEADER, gains.rows())
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
    from .simulate import RngStream, simulate_exit_path, simulate_path

    b, spec = cfg.block, cfg.model
    stream = RngStream(b["seed"], 0)
    policy = _policy(b["policy"], spec)
    _lq_within_horizon(cfg, b["t_cap"] if b["exit"] else b["t"], capped=b["exit"])
    if b["exit"]:
        path = simulate_exit_path(
            spec, policy, b["x0"], b["i0"], spec.costs.exit_domain, b["dt"], b["t_cap"], stream
        )
    else:
        path = simulate_path(spec, policy, b["x0"], b["i0"], b["t"], b["dt"], stream)
    path.to_csv(out / "path.csv")
    lines.append(
        f"simulate: steps={path.times.size - 1} termination={path.termination} "
        f"jumps={len(path.jumps)} clamped={path.clamped_steps}"
    )
    results["termination"] = path.termination
    results["n_jumps"] = len(path.jumps)
    results["outputs"] = ["path.csv"]


def _run_cost(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    from .costs import mc_discounted, mc_ergodic, mc_exit, mc_finite_horizon, write_estimates_csv

    b, spec = cfg.block, cfg.model
    crit = b["criterion"]
    x0, i0, dt, n_paths, seed = b["x0"], b["i0"], b["dt"], b["n_paths"], b["seed"]
    policy = _policy(b["policy"], spec)
    if crit == "discounted":
        est = mc_discounted(
            spec, policy, x0, i0, spec.costs.alpha, dt, n_paths, seed,
            eps_tail=b["eps_tail"], batch=b["batch"],
        )
    elif crit == "finite-horizon":
        est = mc_finite_horizon(
            spec, policy, x0, i0, spec.costs.horizon, dt, n_paths, seed, batch=b["batch"]
        )
    elif crit == "ergodic":
        _lq_within_horizon(cfg, b["t_long"], capped=False)
        est = mc_ergodic(
            spec, policy, x0, i0, b["t_long"], dt, n_paths, seed,
            burn_in=b["burn_in"], batch=b["batch"],
        )
    else:
        _lq_within_horizon(cfg, b["t_cap"], capped=True)
        est = mc_exit(spec, policy, x0, i0, dt, n_paths, seed, b["t_cap"], batch=b["batch"])
    write_estimates_csv(out / "estimates.csv", [est])
    lines.append(
        f"cost: criterion={crit} value={g17(est.value)} stderr={g17(est.stderr)} "
        f"paths={est.paths} capped_fraction={g17(est.capped_fraction)}"
    )
    results["value"] = est.value
    results["stderr"] = est.stderr
    results["outputs"] = ["estimates.csv"]


def _run_hjb(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    from .hjbgrid import solve_discounted, solve_exit, solve_finite_horizon

    b = cfg.block
    crit = b["criterion"]
    if crit == "discounted":
        sol = solve_discounted(cfg.model, b["grid"], tol=b["tol"], max_iter=b["max_iter"])
    elif crit == "finite-horizon":
        sol = solve_finite_horizon(cfg.model, b["grid"], n_t=b["n_t"])
    else:
        sol = solve_exit(cfg.model, b["grid"], tol=b["tol"], max_iter=b["max_iter"])
    sol.to_csv(out / "values.csv")
    lines.append(
        f"hjb: criterion={crit} iterations={sol.iterations} "
        f"residual={g17(sol.residual)}"
    )
    results["iterations"] = sol.iterations
    results["residual"] = sol.residual
    results["outputs"] = ["values.csv"]


def _run_ergodic(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    from .hjbgrid import _reference_node, estimate_ergodic

    b = cfg.block
    grid = b["grid"]
    est = estimate_ergodic(cfg.model, grid, tol=b["tol"], max_iter=b["max_iter"])
    est.to_csv(out / "values.csv")
    lines.append(
        f"ergodic: rho={g17(est.rho)} iterations={est.iterations} "
        f"residual={g17(est.residual)} reference_node={_reference_node(grid)}"
    )
    # the solver raises SchemeError for a rho outside [0, M_c]
    lines.append(f"PASS rho-bound: 0 <= rho <= M_c = {g17(cfg.model.cost_bound())}")
    results["rho"] = est.rho
    results["iterations"] = est.iterations
    results["residual"] = est.residual
    results["outputs"] = ["values.csv"]


def _run_robustness(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    b = cfg.block
    crit = b["criterion"]
    tol = b["tol"]
    if crit == "lq-finite-horizon":
        from .riccati import lq_from_model
        from .robustness import sweep_lq_finite_horizon

        lq = lq_from_model(cfg.model)
        rep = sweep_lq_finite_horizon(lq, b["schedule"], b["x0"], b["i0"], steps=b["steps"])
    else:
        from .robustness import sweep_grid

        rep = sweep_grid(
            cfg.model, b["schedule"], crit, b["grid"], tol=tol, max_iter=b["max_iter"],
            n_t=b["n_t"],
        )
    rep.to_csv(out / "sweep.csv")
    # the last row is the true model's delta = 0 row; the final result is
    # the smallest delta > 0, unless the schedule is that row alone
    *schedule, z = rep.rows
    first, last = rep.rows[0], schedule[-1] if schedule else z
    lines.append(
        f"robustness: criterion={crit} rows={len(rep.rows)} "
        f"first value_gap={g17(first.value_gap)} last value_gap={g17(last.value_gap)}"
    )
    tag = "PASS" if max(abs(z.value_gap), abs(z.policy_loss)) <= 10 * tol else "FAIL"
    lines.append(f"{tag} zero-delta-row: value_gap={g17(z.value_gap)} policy_loss={g17(z.policy_loss)}")
    worst = min(r.policy_loss for r in rep.rows)
    tag = "PASS" if worst >= -tol else "FAIL"
    lines.append(f"{tag} policy-loss-nonnegative: min policy_loss = {g17(worst)}")
    results["rows"] = len(rep.rows)
    results["final_value_gap"] = last.value_gap
    results["final_policy_loss"] = last.policy_loss
    results["outputs"] = ["sweep.csv"]


def _run_eps_check(cfg: ExperimentConfig, out: Path, lines: list, results: dict) -> None:
    from .robustness import check_eps_optimality

    b = cfg.block
    rep = check_eps_optimality(
        cfg.model, b["schedule"], b["criterion"], b["eps"], b["grid"],
        tol=b["tol"], max_iter=b["max_iter"],
    )
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

    code, failure = 0, None
    try:
        if cfg.command in GATED_COMMANDS:
            report = validate_model(cfg.model)
            lines.append(f"validation: {'PASS' if report.passed else 'FAIL'}")
            lines.extend(str(report).splitlines())
            results["validation_passed"] = report.passed
            if not report.passed:
                results["validation_failures"] = [f.name for f in report.failures()]
                code = 2
        if code == 0 and cfg.command != "validate":
            _RUNNERS[cfg.command](cfg, out, lines, results)
    except SwitchSdeError as exc:
        code = 4 if isinstance(exc, ConfigError) else 3
        failure = f"{'config' if code == 4 else 'solver'} error: {exc}"
        lines.append(f"error: {exc}")
        results["error"] = str(exc)

    _write_report(out, lines, results)
    if failure:
        print(failure, file=sys.stderr)
    elif verbose:
        print("\n".join(lines))
    return code


class _Parser(argparse.ArgumentParser):
    """A bad command line is a config error: exit 4, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"config error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="switchsde",
        description="Regime-switching diffusion control experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment JSON")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or ./out)")
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
