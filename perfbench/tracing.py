"""Span wrappers around the package's public functions, and the per-layer
metrics computed from the spans.

Wrappers are installed in memory, at every module attribute through which a
traced function is looked up: ``switchsde.robustness.solve_discounted`` and
``switchsde.hjbgrid.solve_discounted`` are two lookup points of one
function, so a sweep span contains its solver spans and the ergodic ladder's
solves show as children of ``estimate_ergodic``. ``BatchStepper`` is wrapped
on the class. No file of the package is touched; ``uninstall`` puts every
original back.

A span is ``[id, parent_id, name, layer, start, end, info]``; spans stay in
a list in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict

now = time.perf_counter

# layer -> public functions traced at every lookup point; io is counted with cli
TRACED = {
    "riccati": ("solve_coupled_riccati", "fixed_feedback_cost", "riccati_defect", "lq_feedback"),
    "hjbgrid": (
        "solve_discounted", "solve_exit", "solve_finite_horizon", "estimate_ergodic",
        "evaluate_policy_value", "evaluate_policy_exit", "evaluate_policy_finite_horizon",
        "estimate_ergodic_policy",
    ),
    "simulate": ("simulate_path",),
    "costs": ("mc_discounted", "mc_exit"),
    "robustness": ("sweep_lq_finite_horizon", "sweep_grid", "check_eps_optimality"),
    "model": ("validate_model", "model_from_dict", "make_perturbation_sequence"),
    "cli": ("parse_config", "run_command", "main"),
    "io": ("write_csv", "atomic_write_text"),
}
LOOKUP_MODULES = ("riccati", "hjbgrid", "simulate", "costs", "robustness", "model", "cli", "io")
LAYERS = ("model", "riccati", "hjbgrid", "simulate", "costs", "robustness", "cli")
CRITERIA = ("discounted", "exit", "finite-horizon")
LADDER = (0.2, 0.1, 0.05, 0.025)
CLI_COMMANDS = ("validate", "riccati", "simulate", "cost", "hjb", "ergodic", "robustness", "eps-check")
PATHS_NORM = 16384


def _steps_info(a, result):
    lq = a["lq"]
    kind = "scalar" if lq.dim == 1 and lq.n_regimes == 1 else "reference"
    return {"steps": int(a["n_steps"]), "kind": kind}


def _grid_info(a, result):
    return {"iterations": int(result.iterations), "alpha": result.alpha}


def _rows_info(a, result):
    return {"rows": len(result.rows), "criterion": a.get("criterion")}


AFTER = {
    "solve_coupled_riccati": _steps_info,
    "fixed_feedback_cost": lambda a, r: {"steps": int(a["n_steps"])},
    "riccati_defect": lambda a, r: {"rhs_calls": len(a["traj"].times) - 2},
    "sweep_lq_finite_horizon": _rows_info,
    "sweep_grid": _rows_info,
    "check_eps_optimality": _rows_info,
}
for _name in TRACED["hjbgrid"]:
    if _name.startswith(("solve_", "evaluate_")):
        AFTER[_name] = _grid_info


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self._steppers: dict = {}

    def _wrap(self, fn, name, layer, after=None, before=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, layer, 0.0, 0.0, None]
            spans.append(rec)
            if before is not None:
                rec[6] = before(args)
            stack.append(rec[0])
            rec[4] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = now()
                stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[6] = after(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at each module attribute that holds it."""
        mods = {m: importlib.import_module(f"switchsde.{m}") for m in LOOKUP_MODULES}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(mods[layer], name, None)
                if fn is None:
                    continue
                for mod in mods.values():
                    if getattr(mod, name, None) is fn:
                        span_layer = "cli" if layer == "io" else layer
                        self._patch(mod, name, self._wrap(fn, f"{layer}.{name}", span_layer, AFTER.get(name)))
        stepper = getattr(mods["simulate"], "BatchStepper", None)
        if stepper is not None:
            chunk = getattr(mods["simulate"], "CHUNK", 1024)
            steppers = self._steppers

            def init_info(a, result):
                obj = a["self"]
                steppers[id(obj)] = [0, bool(obj.spec.diffusion.is_zero)]
                return {"paths": int(a["n_paths"])}

            def step_info(args):
                obj = args[0]
                state = steppers.setdefault(id(obj), [0, False])
                k = state[0]
                state[0] = k + 1
                return {"refill": k % chunk == 0, "rows": len(obj.x), "live": int(obj.n_alive),
                        "zero_noise": state[1]}

            self._patch(stepper, "__init__", self._wrap(stepper.__init__, "simulate.BatchStepper.__init__",
                                                        "simulate", after=init_info))
            self._patch(stepper, "step", self._wrap(stepper.step, "simulate.BatchStepper.step",
                                                    "simulate", before=step_info))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        self._steppers.clear()
        return out

    def adopt(self, child_spans: list) -> None:
        """Append spans recorded by a child process as roots of this trace."""
        base = len(self.spans)
        for sid, parent, *rest in child_spans:
            self.spans.append([sid + base, None if parent is None else parent + base, *rest])


def record_import(spans: list, start: float, end: float) -> None:
    spans.append([len(spans), None, "cli.import", "cli", start, end, None])


# ---------------------------------------------------------------------------
# metrics from one pass's spans


def _ms(s) -> float:
    return 1e3 * (s[5] - s[4])


def _mean_ms(spans):
    return sum(map(_ms, spans)) / len(spans) if spans else None


def _per(spans, key, scale):
    """Total ms over total info[key], times scale (None without spans)."""
    units = sum(s[6][key] for s in spans)
    return sum(map(_ms, spans)) * scale / units if units else None


def layer_table(spans) -> dict:
    """Self time (span minus its direct children) and span count per layer."""
    child_ms = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_ms[s[1]] += _ms(s)
    table = {layer: [0.0, 0] for layer in LAYERS}
    for s in spans:
        row = table[s[3]]
        row[0] += _ms(s) - child_ms[s[0]]
        row[1] += 1
    return table


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one pass; None where no span feeds it."""
    by = defaultdict(list)
    for s in spans:
        by[s[2]].append(s)
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    m = {}

    solves = by["riccati.solve_coupled_riccati"]
    for kind in ("scalar", "reference"):
        m[f"riccati.rk4_ms_per_1k_steps.{kind}"] = _per(
            [s for s in solves if s[6]["kind"] == kind], "steps", 1000.0)
    m["riccati.rhs_us"] = _per(by["riccati.riccati_defect"], "rhs_calls", 1000.0)
    m["riccati.feedback_cost_ms_per_1k_steps"] = _per(by["riccati.fixed_feedback_cost"], "steps", 1000.0)
    steps = sum(s[6]["steps"] for s in solves + by["riccati.fixed_feedback_cost"])
    m["riccati.steps"] = steps or None

    m["robustness.lq_row_ms"] = _per(by["robustness.sweep_lq_finite_horizon"], "rows", 1.0)
    sweeps = by["robustness.sweep_grid"]
    for crit in CRITERIA + ("ergodic",):
        m[f"robustness.grid_row_ms.{crit}"] = _per(
            [s for s in sweeps if s[6]["criterion"] == crit], "rows", 1.0)
    m["robustness.eps_row_ms"] = _per(by["robustness.check_eps_optimality"], "rows", 1.0)

    for crit in CRITERIA:
        fn = crit.replace("-", "_")
        solved = by[f"hjbgrid.solve_{fn}"]
        m[f"hjbgrid.solve_ms.{crit}"] = _mean_ms(solved)
        m[f"hjbgrid.outer_iters.{crit}"] = sum(s[6]["iterations"] for s in solved) or None
        m[f"hjbgrid.eval_ms.{crit}"] = _mean_ms(
            by["hjbgrid.evaluate_policy_value" if crit == "discounted" else f"hjbgrid.evaluate_policy_{fn}"])
    m["hjbgrid.ergodic_ms"] = _mean_ms(by["hjbgrid.estimate_ergodic"])
    evals = by["hjbgrid.evaluate_policy_value"]
    for alpha in LADDER:
        m[f"hjbgrid.eval_sweeps.alpha_{alpha}"] = sum(
            s[6]["iterations"] for s in evals if s[6]["alpha"] == alpha) or None

    inits = by["simulate.BatchStepper.__init__"]
    m["simulate.stepper_init_ms"] = _per(inits, "paths", PATHS_NORM)
    steps = by["simulate.BatchStepper.step"]
    in_exit = {s[0] for s in by["costs.mc_exit"]}
    refills = [s for s in steps if s[6]["refill"] and s[1] not in in_exit]
    for label, zero in (("sigma0", True), ("sigma", False)):
        m[f"simulate.refill_ms.{label}"] = _per(
            [s for s in refills if s[6]["zero_noise"] == zero], "rows", PATHS_NORM)
    plain = [1e3 * _ms(s) for s in steps if not s[6]["refill"]]
    m["simulate.step_us"] = statistics.median(plain) if plain else None
    m["simulate.path_steps"] = sum(s[6]["rows"] for s in steps) or None

    rates = defaultdict(lambda: [0, 0.0])
    for est in by["costs.mc_discounted"] + by["costs.mc_exit"]:
        kids = [c for c in children[est[0]] if c[2] == "simulate.BatchStepper.step"]
        if not kids:
            continue
        if est[2] == "costs.mc_exit":
            label = "exit"
        else:
            label = "discounted_sigma0" if kids[0][6]["zero_noise"] else "discounted_sigma"
        rates[label][0] += sum(c[6]["live"] for c in kids)
        rates[label][1] += est[5] - est[4]
    for label in ("discounted_sigma0", "discounted_sigma", "exit"):
        n, secs = rates[label]
        m[f"costs.msteps_per_s.{label}"] = n / secs / 1e6 if n else None
    exit_steps = [c for s in by["costs.mc_exit"] for c in children[s[0]]
                  if c[2] == "simulate.BatchStepper.step"]
    rows = sum(c[6]["rows"] for c in exit_steps)
    m["costs.live_row_ratio"] = sum(c[6]["live"] for c in exit_steps) / rows if rows else None

    m["model.validate_ms"] = _mean_ms(by["model.validate_model"])
    m["model.from_dict_ms"] = _mean_ms(by["model.model_from_dict"])
    m["model.perturb_seq_ms"] = _mean_ms(by["model.make_perturbation_sequence"])

    m["cli.import_ms"] = _mean_ms(by["cli.import"])
    mains = by["cli.main"]
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd_ms.{cmd}"] = _mean_ms([s for s in mains if (s[6] or {}).get("command") == cmd])
    m["cli.parse_ms"] = _mean_ms(by["cli.parse_config"])

    for layer, (self_ms, calls) in layer_table(spans).items():
        m[f"{layer}.self_ms"] = self_ms if calls else None
        m[f"{layer}.calls"] = calls or None
    return m
