"""Check that two source trees compute the same numbers, bit for bit.

    python3 tools/sameness.py OLD_TREE NEW_TREE

Each tree is a checkout (or an unpacked archive) holding ``src/switchsde``
and ``perfbench/``. Each is run in its own Python process, which imports the
package from the tree's ``src/`` and the benchmark's inputs and passes from
the tree's ``perfbench/workloads.py``, read only: no bytecode is written and
no file under ``perfbench/`` changes. For each of the seeds 1401 and 7717 a
tree reports:

- the pass digest of the ``lq-riccati``, ``hjb-grid`` and ``mc-paths``
  workloads on their full-size inputs, the number of the pass's failed
  output checks, and a SHA-256 of every timed call's whole result (every
  array's bytes, every float as a hex float, every field of every result
  object);
- the SHA-256 of every artifact that the eight ``config_set`` commands of
  the ``cli-commands`` workload write, each run as ``python -m
  switchsde.cli`` in a fresh interpreter.

Once per tree it also reports the grid exit problem, which the passes
reach only through their exit sweeps. On the benchmark's ``saturated_model``
at 51, 201 and 401 nodes over its exit domain: ``solve_exit`` and
``evaluate_policy_exit`` of a fixed random action table on the model and on
the first row of each of a coefficient (the benchmark's directions), rates
and cost schedule, each schedule's exit ``sweep_grid``, and its exit
``check_eps_optimality`` at eps = 0.01, 0.05 and 0.2. Two CLI configs,
``hjb`` and ``eps-check`` with ``criterion: exit`` on the model's document,
add their exit codes and artifacts.

Once per tree it also reports the finite horizon on the same model, schedules
and node counts over [-2, 2]: each schedule's finite-horizon ``sweep_grid``
at the default 20 levels and at 40, and ``evaluate_policy_finite_horizon`` of
a fixed random table of 20 levels on the model and on the first row of each
schedule.

BLAS runs on one thread, as in the benchmark. The script prints one line
per item, ``same`` or ``DIFF`` with both values, and exits with 0 when every
item is equal, 1 when an item differs or one tree lacks it, and 2 when a
tree's run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

SEEDS = (1401, 7717)
PASSES = ("lq-riccati", "hjb-grid", "mc-paths")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}
EXIT_GRIDS = (51, 201, 401)
EXIT_EPS = (0.01, 0.05, 0.2)
FH_LEVELS = 20  # levels of the random finite-horizon table, the solvers' count at horizon 1
FH_SWEEP_LEVELS = 40  # the sweeps' second level count, which carries a differing row across more levels


def _canon(obj) -> str:
    """A text that two results share exactly when they are bit-identical."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return f"{obj.dtype}{obj.shape}:{hashlib.sha256(data).hexdigest()}"
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if dataclasses.is_dataclass(obj):
        body = ",".join(f"{f.name}={_canon(getattr(obj, f.name))}" for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    return repr(obj)


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()[:16]


def _cli_items(cfg: Path, out: Path, env: dict, key: str) -> dict:
    """The exit code and the SHA-256 of each artifact of one ``python -m
    switchsde.cli`` run of the config file ``cfg``, under ``key``."""
    proc = subprocess.run([sys.executable, "-m", "switchsde.cli", "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True)
    items = {f"{key} exit": str(proc.returncode)}
    for p in sorted(out.iterdir()) if out.is_dir() else ():
        items[f"{key}/{p.name}"] = _sha(p.read_bytes())
    return items


def _schedules(workloads) -> dict:
    """The coefficient (the benchmark's directions), rates and cost schedules."""
    from switchsde.model import PerturbationSchedule

    return {
        "coefficient": PerturbationSchedule("coefficient", 10, **workloads.SAT_DIRECTIONS),
        "rates": PerturbationSchedule("rates", 10, d_m=workloads.RATES_DIRECTION),
        "cost": PerturbationSchedule("cost", 10, d_cost=0.5),
    }


def _first_rows(sat, schedules: dict) -> dict:
    """The model and the first row of each schedule, by name."""
    from switchsde.model import make_perturbation_sequence

    return {"true": sat, **{name: make_perturbation_sequence(sat, sched)[0] for name, sched in schedules.items()}}


def exit_items(workloads, env: dict) -> dict:
    """The grid exit problem's library calls and CLI commands (see the module doc)."""
    import numpy as np
    from switchsde import hjbgrid, robustness
    from switchsde.model import model_to_dict

    sat = workloads.saturated_model()
    schedules = _schedules(workloads)
    models = _first_rows(sat, schedules)
    items = {}
    for n_x in EXIT_GRIDS:
        grid = hjbgrid.Grid1D(*sat.costs.exit_domain, n_x)
        policy = np.random.default_rng(n_x).integers(0, 2, size=(2, n_x))
        for name, spec in models.items():
            prefix = f"exit n={n_x} {name}"
            items[f"{prefix} solve_exit"] = _sha(_canon(hjbgrid.solve_exit(spec, grid, tol=workloads.GRID_TOL)))
            items[f"{prefix} evaluate_policy_exit"] = _sha(_canon(hjbgrid.evaluate_policy_exit(spec, grid, policy)))
        for name, sched in schedules.items():
            prefix = f"exit n={n_x} {name}"
            rep = robustness.sweep_grid(sat, sched, "exit", grid, tol=workloads.GRID_TOL)
            items[f"{prefix} sweep_grid"] = _sha(_canon(rep))
            for eps in EXIT_EPS:
                rep = robustness.check_eps_optimality(sat, sched, "exit", eps, grid)
                items[f"{prefix} check_eps_optimality eps={eps}"] = _sha(_canon(rep))
    model = model_to_dict(sat)
    lo, hi = sat.costs.exit_domain
    configs = {
        "hjb": {"command": "hjb", "model": model,
                "hjb": {"criterion": "exit", "grid": {"x_min": lo, "x_max": hi, "n_x": 101}}},
        "eps-check": {"command": "eps-check", "model": model,
                      "eps-check": {"criterion": "exit", "eps": 0.05,
                                    "grid": {"x_min": lo, "x_max": hi, "n_x": 51},
                                    "schedule": {"mode": "coefficient", "n_max": 4,
                                                 **{k: v.tolist() for k, v in workloads.SAT_DIRECTIONS.items()}}}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for command, doc in configs.items():
            cfg = Path(tmp) / f"{command}.json"
            cfg.write_text(json.dumps(doc) + "\n")
            items.update(_cli_items(cfg, Path(tmp) / "out" / command, env, f"cli exit {command}"))
    return items


def finite_horizon_items(workloads) -> dict:
    """The finite-horizon sweeps and level-table evaluations (see the module doc)."""
    import numpy as np
    from switchsde import hjbgrid, robustness

    sat = workloads.saturated_model()
    schedules = _schedules(workloads)
    models = _first_rows(sat, schedules)
    items = {}
    for n_x in EXIT_GRIDS:
        grid = hjbgrid.Grid1D(-2.0, 2.0, n_x)
        for name, sched in schedules.items():
            rep = robustness.sweep_grid(sat, sched, "finite-horizon", grid)
            items[f"finite-horizon n={n_x} {name} sweep_grid"] = _sha(_canon(rep))
            rep = robustness.sweep_grid(sat, sched, "finite-horizon", grid, n_t=FH_SWEEP_LEVELS)
            items[f"finite-horizon n={n_x} {name} sweep_grid n_t={FH_SWEEP_LEVELS}"] = _sha(_canon(rep))
        policy = np.random.default_rng([n_x, 1]).integers(0, 2, size=(FH_LEVELS, 2, n_x))
        for name, spec in models.items():
            sol = hjbgrid.evaluate_policy_finite_horizon(spec, grid, policy)
            items[f"finite-horizon n={n_x} {name} evaluate_policy_finite_horizon"] = _sha(_canon(sol))
    return items


def child(tree: Path) -> dict:
    """Every item of one tree; runs in a process of its own."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    calls = []
    timed = workloads.timed

    def recording(ops, name, fn, *args, **kwargs):
        out = timed(ops, name, fn, *args, **kwargs)
        calls.append((name, out))
        return out

    workloads.timed = recording
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ENV)
    items = {}
    for seed in SEEDS:
        for name in PASSES:
            make, run_pass, _ = workloads.WORKLOADS[name]
            checks, prefix = workloads.Checks(), f"{name} seed {seed}"
            calls.clear()
            items[f"{prefix} digest"] = run_pass(make(seed, False, None), checks)["digest"]
            items[f"{prefix} failed checks"] = str(len(checks.failures))
            for k, (op, out) in enumerate(calls):
                items[f"{prefix} call {k:02d} {op}"] = _sha(_canon(out))
        with tempfile.TemporaryDirectory() as tmp:
            configs = workloads.cli_inputs(seed, False, SimpleNamespace(work=Path(tmp), env=env)).configs
            for command, cfg in configs.items():
                items.update(_cli_items(cfg, Path(tmp) / "out" / command, env, f"cli seed {seed} {command}"))
    items.update(exit_items(workloads, env))
    items.update(finite_horizon_items(workloads))
    return items


def run_tree(tree: Path) -> dict | None:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(tree)],
                          env=dict(os.environ, **ENV), capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"run of {tree} failed (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child.resolve())))
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, OLD_TREE NEW_TREE")
    old, new = (run_tree(t.resolve()) for t in args.trees)
    if old is None or new is None:
        return 2
    differ = 0
    for key in {**old, **new}:
        a, b = old.get(key, "missing"), new.get(key, "missing")
        differ += a != b
        print(f"same  {key}  {a}" if a == b else f"DIFF  {key}  old={a} new={b}")
    print(f"{len({**old, **new})} items, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
