"""Shared benchmark models for the test suite.

Every closed-form oracle in the tests is pinned to one of these builders, so
the construction parameters are frozen here and referenced by fixture.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

# the checkout's src/ goes after the entries of an explicit PYTHONPATH, so
# PYTHONPATH=<other tree>/src python -m pytest tests that tree
_explicit = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(
    max((i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _explicit), default=0),
    str(Path(__file__).resolve().parents[1] / "src"),
)

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from switchsde import (
    ActionGrid,
    BoundaryCost,
    CostSpec,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    LQSpec,
    ModelSpec,
    RegimeSet,
    RunningCost,
    TerminalCost,
)
from switchsde.riccati import lq_model  # noqa: F401 (the tests import it from here)

# the same examples on every run, and no example database on disk; each
# test's own max_examples and deadline still apply
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from local source files;
    # keep that cache in a temporary directory, not in the checkout
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def chain_model(sigma=0.2, m12=1.0, m21=2.0, values=(1.0, 2.0), alpha=1.0):
    """Two-regime chain with x-independent data.

    The dynamics are irrelevant to the costs, so the discounted value is the
    2x2 linear solve (alpha I - M) V = c and the ergodic constant is the
    stationary average of c. sigma=0 freezes X entirely; sigma>0 keeps the
    grid solvers elliptic without changing any value.
    """
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(2),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("constant", 1, 2, 1, b0=np.zeros((2, 1))),
        diffusion=DiffusionFamily("constant", 1, 2, c0=np.full((2, 1, 1), float(sigma))),
        generator=GeneratorSpec(
            "constant", 2, rates=np.array([[-m12, m12], [m21, -m21]])
        ),
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


def chain_value(spec: ModelSpec, alpha=None) -> np.ndarray:
    """Exact discounted value (alpha I - M)^{-1} c of a chain model."""
    a = spec.costs.alpha if alpha is None else alpha
    m = spec.generator.rates
    c = spec.costs.running.values
    return np.linalg.solve(a * np.eye(2) - m, c)


def saturated_model():
    """Bounded-coefficient two-regime benchmark with a two-point action set.

    Saturated drift keeps b globally bounded, the clamped quadratic cost is
    bounded by cap + action_weight + 0, and the regime-asymmetric offsets
    keep the optimal switching point away from the grid symmetry axis so
    coefficient perturbations genuinely move the policy.
    """
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
            running=RunningCost(
                "quad-clamped", n, 1, 1, weight=1.0, cap=4.0, action_weight=0.1
            ),
            alpha=0.5,
            horizon=1.0,
            terminal=TerminalCost("quad", n, 1, p_mat=np.full((n, 1, 1), 0.5)),
            exit_h=BoundaryCost("constant", value=0.5),
            exit_beta=ExitDiscount("constant", value=0.25),
            exit_domain=(-2.0, 2.0),
        ),
    )


def bm_model(sigma=1.0, cost_value=0.0):
    """Single-regime Brownian motion, optionally with a constant cost."""
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


def cosine_exit_model():
    """Exit benchmark with the closed-form solution phi = cos(pi x / 2) / 2.

    a = sigma^2 / 2 = 1 and c = (pi^2 / 8) cos(pi x / 2) >= 0 on [-1, 1], so
    -a phi'' = c with phi(+-1) = 0.
    """
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(1),
        actions=ActionGrid(np.zeros((1, 1))),
        drift=DriftFamily("constant", 1, 1, 1, b0=np.zeros((1, 1))),
        diffusion=DiffusionFamily("constant", 1, 1, c0=np.full((1, 1, 1), np.sqrt(2.0))),
        generator=GeneratorSpec("constant", 1, rates=np.zeros((1, 1))),
        costs=CostSpec(
            running=RunningCost(
                "cosine", 1, 1, 1, amplitude=np.pi**2 / 8.0, frequency=np.pi / 2.0
            ),
            alpha=1.0,
            horizon=1.0,
            terminal=TerminalCost("zero", 1, 1),
            exit_h=BoundaryCost("zero"),
            exit_beta=ExitDiscount("zero"),
            exit_domain=(-1.0, 1.0),
        ),
    )


def reference_lq():
    """Two-regime planar LQSpec exercising every coupling term at once."""
    return LQSpec(
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


def scalar_lq(p_val=0.0, horizon=1.0):
    """Scalar single-regime problem A=0, B=C=1 off, Q=R=1.

    With P=0 the Riccati solution is K(t) = tanh(T - t).
    """
    return LQSpec(
        dim=1,
        n_regimes=1,
        control_dim=1,
        a=np.zeros((1, 1, 1)),
        b=np.ones((1, 1, 1)),
        c=np.zeros((1, 1, 1)),
        q=np.ones((1, 1, 1)),
        r=np.ones((1, 1, 1)),
        p=np.full((1, 1, 1), float(p_val)),
        rates=np.zeros((1, 1)),
        horizon=horizon,
    )


@pytest.fixture
def make_chain():
    return chain_model


@pytest.fixture
def chain():
    return chain_model()


@pytest.fixture
def saturated():
    return saturated_model()


@pytest.fixture
def make_bm():
    return bm_model


@pytest.fixture
def cosine_exit():
    return cosine_exit_model()


@pytest.fixture
def ref_lq():
    return reference_lq()


@pytest.fixture
def make_scalar_lq():
    return scalar_lq
