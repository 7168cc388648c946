"""Numerical laboratory for controlled regime-switching diffusions.

Builds hybrid diffusion models (continuous state plus a finite regime
chain), solves their control problems under discounted, ergodic,
finite-horizon and exit-time criteria by coupled Riccati integration,
finite-difference HJB systems and seeded Monte Carlo, and runs the
robustness program: perturb the model, re-solve, replay the perturbed
policy in the true model, and track how value functions and realized
costs converge as the perturbation vanishes.

Importing the package loads none of its modules: each public name, and
each module, is imported from its home module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> home module; a module name is its own home
_HOME = {
    name: module
    for module, names in {
        "costs": (
            "DEFAULT_BATCH", "McEstimate", "discounted_horizon", "mc_discounted", "mc_ergodic",
            "mc_exit", "mc_finite_horizon", "pairwise_sum", "write_estimates_csv",
        ),
        "errors": (
            "BlowupError", "CapFractionWarning", "ConfigError", "DegenerateError", "EigError",
            "IoError", "MaxIterError", "NanError", "RatesError", "SchemeError", "ShapeError",
            "StepError", "SwitchSdeError", "UnboundedError",
        ),
        "hjbgrid": (
            "Grid1D", "GridSolution", "estimate_ergodic", "estimate_ergodic_policy",
            "evaluate_policy_exit", "evaluate_policy_finite_horizon", "evaluate_policy_value",
            "solve_discounted", "solve_exit", "solve_finite_horizon",
        ),
        "io": (),
        "model": (
            "ActionGrid", "BoundaryCost", "CostSpec", "DiffusionFamily", "DriftFamily",
            "ExitDiscount", "Finding", "GeneratorSpec", "ModelSpec", "PerturbationSchedule",
            "RegimeSet", "RunningCost", "TerminalCost", "ValidationReport",
            "make_perturbation_sequence", "model_from_dict", "model_to_dict", "validate_model",
        ),
        "riccati": (
            "FeedbackTrajectory", "LQSpec", "RiccatiTrajectory", "a_priori_bound",
            "fixed_feedback_cost", "lq_feedback", "lq_from_model", "lq_model", "riccati_defect",
            "solve_coupled_riccati",
        ),
        "robustness": (
            "EpsOptimalityReport", "SweepReport", "SweepRow", "check_eps_optimality",
            "sweep_grid", "sweep_lq_finite_horizon",
        ),
        "simulate": (
            "BatchStepper", "CallablePolicy", "ConstantPolicy", "GridPolicy", "LQFeedbackPolicy",
            "PathSample", "RngStream", "TimeGridPolicy", "make_rng_stream", "simulate_exit_path",
            "simulate_path",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
