"""Model families, validation, serialization and perturbation schedules."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    ActionGrid,
    BoundaryCost,
    ConfigError,
    CostSpec,
    DiffusionFamily,
    DriftFamily,
    ExitDiscount,
    GeneratorSpec,
    LQSpec,
    ModelSpec,
    PerturbationSchedule,
    RatesError,
    RegimeSet,
    RunningCost,
    ShapeError,
    TerminalCost,
    make_perturbation_sequence,
    model_from_dict,
    model_to_dict,
    cli,
    validate_model,
)
from switchsde.model import DIRECTIONS, ROW_SUM_TOL
from conftest import bm_model, chain_model, lq_model, saturated_model


# ---------------------------------------------------------------------------
# coefficient families


def test_regime_set_rejects_nonpositive_count():
    with pytest.raises(ShapeError):
        RegimeSet(0)


def test_action_grid_clamp_projects_componentwise():
    grid = ActionGrid(np.array([[-1.0, 0.0], [1.0, 2.0]]))
    u = np.array([[-3.0, 1.0], [0.5, 5.0]])
    out = grid.clamp(u)
    assert np.array_equal(out, [[-1.0, 1.0], [0.5, 2.0]])
    inside = np.array([[0.0, 1.5]])
    assert np.array_equal(grid.clamp(inside), inside)


def test_constant_drift_gathers_by_regime():
    fam = DriftFamily("constant", 1, 2, 1, b0=np.array([[1.5], [-2.0]]))
    x = np.zeros((3, 1))
    s = np.array([0, 1, 0])
    out = fam.eval_batch(x, s, np.zeros((3, 1)))
    assert np.array_equal(out, [[1.5], [-2.0], [1.5]])


def test_lq_drift_affine_formula():
    a = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
    b = np.array([[[1.0], [0.0]]])
    fam = DriftFamily("lq", 2, 1, 1, a_mat=a, b_mat=b)
    x = np.array([[2.0, 3.0]])
    u = np.array([[0.5]])
    out = fam.eval_batch(x, np.array([0]), u)
    assert np.allclose(out, [[3.0 + 0.5, -2.0]])


def test_saturated_drift_is_bounded_and_matches_tanh():
    fam = saturated_model().drift
    x = np.array([[0.7], [100.0]])
    s = np.array([0, 0])
    u = np.array([[0.0], [0.0]])
    out = fam.eval_batch(x, s, u)
    assert out[0, 0] == pytest.approx(np.tanh(0.7) + 0.5)
    # saturation: the A x part contributes at most the scale
    assert abs(out[1, 0]) <= 1.0 + 0.5


def test_tabulated_drift_interpolates_and_extrapolates_flat():
    fam = DriftFamily(
        "tabulated", 1, 1, 1,
        x_nodes=np.array([0.0, 1.0]), values=np.array([[0.0, 2.0]]),
    )
    x = np.array([[0.5], [-3.0], [9.0]])
    out = fam.eval_batch(x, np.zeros(3, dtype=np.int64), np.zeros((3, 1)))
    assert np.allclose(out[:, 0], [1.0, 0.0, 2.0])


def test_diffusion_is_zero_flag():
    assert DiffusionFamily("constant", 1, 1, c0=np.zeros((1, 1, 1))).is_zero
    assert not DiffusionFamily("constant", 1, 1, c0=np.full((1, 1, 1), 0.3)).is_zero
    assert not DiffusionFamily("lq", 1, 1, c_mat=np.zeros((1, 1, 1))).is_zero


def test_a_batch_is_half_sigma_sigma_t():
    fam = DiffusionFamily("constant", 1, 1, c0=np.full((1, 1, 1), 3.0))
    a = fam.a_batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64))
    assert a[0, 0, 0] == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# generators


def test_generator_rejects_negative_offdiagonal():
    with pytest.raises(RatesError):
        GeneratorSpec("constant", 2, rates=np.array([[1.0, -1.0], [2.0, -2.0]]))


def test_generator_rejects_nonzero_row_sum():
    with pytest.raises(RatesError):
        GeneratorSpec("constant", 2, rates=np.array([[-1.0, 1.5], [2.0, -2.0]]))


# one-decimal rates near 1e4: the diagonal -sum_j m_ij leaves a row sum of 1.8e-12
DECIMAL_OFF = np.array([[0.0, 9099.6, 430.7], [8227.1, 0.0, 8298.0], [99.5, 3650.5, 0.0]])
RATE_CLASSES = {
    "generator": lambda rates: GeneratorSpec("constant", 3, rates=rates),
    "lq": lambda rates: LQSpec(
        1, 3, 1, a=np.zeros((3, 1, 1)), b=np.ones((3, 1, 1)), c=np.zeros((3, 1, 1)),
        q=np.ones((3, 1, 1)), r=np.ones((3, 1, 1)), p=np.ones((3, 1, 1)), rates=rates, horizon=1.0,
    ),
}


@pytest.mark.parametrize("build", RATE_CLASSES.values(), ids=RATE_CLASSES)
def test_row_sum_tolerance_scales_with_the_row(build):
    rates = DECIMAL_OFF - np.diag(DECIMAL_OFF.sum(axis=1))
    assert np.max(np.abs(rates.sum(axis=1))) > ROW_SUM_TOL
    assert np.array_equal(build(rates).rates, rates)
    with pytest.raises(RatesError, match="sum to zero"):
        build(rates + np.diag([0.0, 1e-6, 0.0]))


def test_generator_bound_is_the_derived_supremum():
    rates = np.array([[-1.0, 1.0], [2.0, -2.0]])
    gen = GeneratorSpec("constant", 2, rates=rates)
    assert gen.bound == 2.0
    with pytest.raises(TypeError):
        GeneratorSpec("constant", 2, rates=rates, bound=5.0)
    # replace rebuilds the family, so the bound follows the new rates
    assert dataclasses.replace(gen, rates=3.0 * rates).bound == 6.0
    sad = GeneratorSpec("state-action-dependent", 2, base=np.array([[0.0, 1.0], [2.0, 0.0]]), gx=0.3, gu=-0.2)
    assert sad.bound == pytest.approx(2.0 * 1.5, abs=1e-15)
    assert GeneratorSpec("constant", 1, rates=np.zeros((1, 1))).bound == 1e-12
    doc = model_to_dict(chain_model())
    assert "bound" not in doc["generator"]
    doc["generator"]["bound"] = 5.0
    with pytest.raises(ConfigError) as err:
        model_from_dict(doc)
    assert err.value.path == "model.generator.bound"


def test_state_action_generator_rows_sum_to_zero():
    gen = GeneratorSpec(
        "state-action-dependent", 2,
        base=np.array([[0.0, 1.0], [2.0, 0.0]]), gx=0.3, gu=0.2,
    )
    x = np.linspace(-2, 2, 7).reshape(-1, 1)
    u = np.linspace(-1, 1, 7).reshape(-1, 1)
    rates = gen.rates_batch(x, u)
    assert np.max(np.abs(rates.sum(axis=2))) < 1e-14
    off = rates.copy()
    off[:, [0, 1], [0, 1]] = 0.0
    assert off.min() >= 0.0
    assert np.max(np.abs(rates)) <= gen.bound + 1e-12


def test_state_action_generator_rejects_oversized_modulation():
    with pytest.raises(RatesError):
        GeneratorSpec(
            "state-action-dependent", 2,
            base=np.array([[0.0, 1.0], [1.0, 0.0]]), gx=0.8, gu=0.4,
        )


# ---------------------------------------------------------------------------
# costs


def test_quad_clamped_cost_caps():
    rc = RunningCost("quad-clamped", 1, 1, 1, weight=1.0, cap=4.0, action_weight=0.1)
    x = np.array([[1.0], [10.0]])
    u = np.array([[2.0], [0.0]])
    out = rc.eval_batch(x, np.zeros(2, dtype=np.int64), u)
    assert out[0] == pytest.approx(1.0 + 0.4)
    assert out[1] == pytest.approx(4.0)


def test_cosine_cost_nonnegative_part():
    rc = RunningCost("cosine", 1, 1, 1, amplitude=2.0, frequency=1.0)
    x = np.array([[0.0], [np.pi]])
    out = rc.eval_batch(x, np.zeros(2, dtype=np.int64), np.zeros((2, 1)))
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(0.0)


def test_cost_bound_is_the_running_cost_bound(make_chain):
    spec = make_chain()
    assert spec.cost_bound() == spec.costs.running.bound(spec.actions) == 2.0
    with pytest.raises(TypeError):
        dataclasses.replace(spec.costs, m_c=5.0)
    doc = model_to_dict(spec)
    assert "m_c" not in doc["costs"]
    doc["costs"]["m_c"] = 5.0
    with pytest.raises(ConfigError) as err:
        model_from_dict(doc)
    assert err.value.path == "model.costs.m_c"


def test_bump_terminal_cost_is_a_smooth_bump():
    bump = TerminalCost("bump", 2, 1, height=3.0, width=2.0)
    x = np.array([[0.0], [1.0], [-1.0], [2.0], [5.0]])
    out = bump.eval_batch(x, np.array([0, 1, 0, 1, 0]))
    # height * exp(1 - 1 / (1 - |x|^2 / width^2)) inside the width, 0 outside
    assert out[0] == 3.0
    assert out[1] == out[2] == pytest.approx(3.0 * np.exp(-1.0 / 3.0), rel=1e-15)
    assert out[3] == out[4] == 0.0


def test_lq_cost_bound_is_infinite():
    rc = RunningCost("lq", 1, 1, 1, q_mat=np.ones((1, 1, 1)), r_mat=np.ones((1, 1, 1)))
    assert rc.bound(ActionGrid(np.zeros((1, 1)))) == np.inf


LQ_COST_DEFECTS = {
    "asymmetric-q": ("q", [[1.0, 0.5], [0.0, 1.0]], np.eye(2)),
    "indefinite-q": ("q", [[1.0, 0.0], [0.0, -1e-6]], np.eye(2)),
    "asymmetric-r": ("r", np.eye(2), [[1.0, 0.5], [0.0, 1.0]]),
    "singular-r": ("r", np.eye(2), [[1.0, 0.0], [0.0, 0.0]]),
    "indefinite-r": ("r", np.eye(2), [[-1.0, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("key,q,r", LQ_COST_DEFECTS.values(), ids=LQ_COST_DEFECTS)
def test_lq_running_cost_needs_semidefinite_q_and_definite_r(key, q, r):
    # E_SHAPE at construction; a document reads it as E_CONFIG at its path
    q, r = np.array([q]), np.array([r])
    with pytest.raises(ShapeError) as err:
        RunningCost("lq", 1, 2, 2, q_mat=q, r_mat=r)
    assert err.value.path == f"costs.running.{key}"
    eye = np.eye(2)[None]
    doc = model_to_dict(lq_model(LQSpec(2, 1, 2, 0 * eye, eye, 0 * eye, eye, eye, eye, np.zeros((1, 1)), 1.0)))
    doc["costs"]["running"].update(q=q.tolist(), r=r.tolist())
    with pytest.raises(ConfigError) as err:
        model_from_dict(doc)
    assert err.value.path == f"model.costs.running.{key}"


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "builder", [chain_model, saturated_model, bm_model], ids=["chain", "saturated", "bm"]
)
def test_model_roundtrip_is_exact(builder):
    spec = builder()
    back = model_from_dict(model_to_dict(spec))
    assert model_to_dict(back) == model_to_dict(spec)
    assert np.array_equal(back.drift.eval_batch(
        np.array([[0.37]]), np.zeros(1, dtype=np.int64), np.array([[0.2]])
    ), spec.drift.eval_batch(
        np.array([[0.37]]), np.zeros(1, dtype=np.int64), np.array([[0.2]])
    ))


def test_from_json_rejects_unknown_family():
    doc = model_to_dict(chain_model())
    doc["drift"] = {"kind": "cubic", "b0": [[0.0], [0.0]]}
    with pytest.raises(ConfigError) as err:
        model_from_dict(doc)
    assert "drift.kind" in str(err.value)


def test_from_json_rejects_unknown_key():
    doc = model_to_dict(chain_model())
    doc["extra"] = 1
    with pytest.raises(ConfigError):
        model_from_dict(doc)


# a field the family's kind does not list must keep its default, as the
# document reader rejects a key the kind does not have
STRAY_FIELDS = {
    DriftFamily: (lambda **kw: DriftFamily("constant", 1, 2, 1, b0=np.zeros((2, 1)), **kw),
                  {"a_mat": np.ones((2, 1, 1))}, "drift.a"),
    DiffusionFamily: (lambda **kw: DiffusionFamily("constant", 1, 2, c0=np.ones((2, 1, 1)), **kw),
                      {"c_mat": np.ones((2, 1, 1))}, "diffusion.c"),
    GeneratorSpec: (lambda **kw: GeneratorSpec("constant", 2, rates=[[-1.0, 1.0], [1.0, -1.0]], **kw),
                    {"gx": 0.5}, "generator.gx"),
    RunningCost: (lambda **kw: RunningCost("regime", 2, 1, 1, values=[1.0, 2.0], **kw),
                  {"cap": 3.0}, "costs.running.cap"),
    TerminalCost: (lambda **kw: TerminalCost("zero", 2, 1, **kw), {"width": 2.0}, "costs.terminal.width"),
    BoundaryCost: (lambda **kw: BoundaryCost("zero", **kw), {"value": 2.0}, "costs.exit_h.value"),
    ExitDiscount: (lambda **kw: ExitDiscount("zero", **kw), {"value": 5.0}, "costs.exit_beta.value"),
}


@pytest.mark.parametrize("cls", STRAY_FIELDS, ids=lambda cls: cls.__name__)
def test_family_rejects_a_field_its_kind_does_not_list(cls):
    build, stray, path = STRAY_FIELDS[cls]
    (name,) = stray
    build()
    build(**{name: cls.__dataclass_fields__[name].default})
    with pytest.raises(ConfigError) as err:
        build(**stray)
    assert err.value.path == path


def _document(base, **edits):
    """A thunk reading ``base()``'s document with the given fields replaced;
    a key's dots are written as double underscores (costs__running)."""
    doc = model_to_dict(base())
    for key, value in edits.items():
        *parents, leaf = key.split("__")
        obj = doc
        for part in parents:
            obj = obj[part]
        obj[leaf] = value
    return lambda: model_from_dict(doc)


def _planar_lq():
    eye = np.eye(2)[None]
    return lq_model(LQSpec(2, 1, 1, 0 * eye, np.ones((1, 2, 1)), 0 * eye, eye, np.ones((1, 1, 1)), eye,
                           np.zeros((1, 1)), 1.0))


def _chain_with(**changes):
    """The chain model with families replaced (its costs' families by name)."""
    spec = chain_model()
    costs = {k: changes.pop(k) for k in ("running", "exit_domain") if k in changes}
    return lambda: dataclasses.replace(spec, costs=dataclasses.replace(spec.costs, **costs), **changes)


TABULATED = dict(kind="tabulated", x_nodes=[0.0, 1.0], values=[[0.0, 0.0]])
# one case per rule: (library construction or None, its error, its path,
# document or None, message); a document raises E_CONFIG at ``model.<path>``.
# No document reaches the ModelSpec dimension rules, whose family sizes the
# reader takes from the model, and no library call the reader's own rules.
MODEL_RULES = {
    "field-shape": (lambda: DriftFamily("constant", 1, 2, 1, b0=np.zeros((3, 1))), ShapeError, "drift.b0",
                    _document(chain_model, drift__b0=[[0.0]] * 3), "'b0' has shape"),
    "field-sign-nonnegative": (lambda: RunningCost("constant", 2, 1, 1, value=-1.0), ShapeError,
                               "costs.running.value",
                               _document(chain_model, costs__running={"kind": "constant", "value": -1.0}),
                               "'value' must be >= 0"),
    "field-sign-positive": (lambda: RunningCost("quad-clamped", 2, 1, 1, weight=1.0, cap=0.0), ShapeError,
                            "costs.running.cap",
                            _document(chain_model, costs__running={"kind": "quad-clamped", "weight": 1.0, "cap": 0.0}),
                            "'cap' must be > 0"),
    "tabulated-dim": (lambda: DriftFamily("tabulated", 2, 1, 1, x_nodes=[0.0, 1.0], values=[[0.0, 0.0]]),
                      ShapeError, "drift.kind", _document(_planar_lq, drift=TABULATED), "dim 1 only"),
    "tabulated-nodes": (lambda: DriftFamily("tabulated", 1, 1, 1, x_nodes=[0.0, 0.0], values=[[0.0, 0.0]]),
                        ShapeError, "drift.x_nodes", _document(bm_model, drift=dict(TABULATED, x_nodes=[1.0, 0.0])),
                        "at least two increasing nodes"),
    "empty-actions": (lambda: ActionGrid(np.zeros((0, 1))), ShapeError, "actions",
                      _document(chain_model, actions=[]), "nonempty"),
    "base-diagonal": (lambda: GeneratorSpec("state-action-dependent", 1, base=[[1.0]]), RatesError,
                      "generator.base",
                      _document(bm_model, generator={"kind": "state-action-dependent", "base": [[1.0]]}),
                      "zero diagonal"),
    "cosine-dim": (lambda: RunningCost("cosine", 1, 2, 1, amplitude=1.0), ShapeError, "costs.running.kind",
                   _document(_planar_lq, costs__running={"kind": "cosine", "amplitude": 1.0}), "dim 1 only"),
    "empty-exit-domain": (_chain_with(exit_domain=(1.0, 1.0)), ShapeError, "costs.exit_domain",
                          _document(chain_model, costs__exit_domain=[1.0, -1.0]), "open interval"),
    "drift-dims": (_chain_with(drift=DriftFamily("constant", 1, 3, 1, b0=np.zeros((3, 1)))), ShapeError, "",
                   None, "drift family dims"),
    "diffusion-dims": (_chain_with(diffusion=DiffusionFamily("constant", 2, 2, c0=np.ones((2, 2, 2)))),
                       ShapeError, "", None, "diffusion family dims"),
    "drift-action-dim": (_chain_with(drift=DriftFamily("constant", 1, 2, 2, b0=np.zeros((2, 1)))), ShapeError,
                         "", None, "drift action dim"),
    "generator-count": (_chain_with(generator=GeneratorSpec("constant", 3, rates=np.zeros((3, 3)))), ShapeError,
                        "", None, "generator regime count"),
    "running-dims": (_chain_with(running=RunningCost("regime", 3, 1, 1, values=np.ones(3))), ShapeError, "",
                     None, "running cost dims"),
    "not-an-object": (None, None, "regimes", _document(chain_model, regimes=3), "expected an object"),
    "ragged-array": (None, None, "actions", _document(chain_model, actions=[[0.0], [0.0, 1.0]]),
                     "rows differ in length"),
}


@pytest.mark.parametrize("rule", MODEL_RULES)
def test_each_model_rule_raises_its_error_at_its_path(rule):
    library, error, path, document, match = MODEL_RULES[rule]
    if library is not None:
        with pytest.raises(error, match=match) as err:
            library()
        assert err.value.path == path
    if document is not None:
        with pytest.raises(ConfigError, match=match) as err:
            document()
        assert err.value.path == f"model.{path}"


def test_magnitudes_of_the_wrong_length_are_a_config_error_at_their_path():
    with pytest.raises(ConfigError, match="length n_max \\+ 1") as err:
        PerturbationSchedule("rates", 2, magnitudes=[1.0, 0.5])
    assert err.value.path == "schedule.magnitudes"
    doc = {"command": "robustness", "model": model_to_dict(chain_model()),
           "robustness": {"criterion": "discounted", "grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 11},
                          "schedule": {"mode": "rates", "n_max": 2, "magnitudes": [1.0, 0.5]}}}
    with pytest.raises(ConfigError, match="length n_max \\+ 1") as err:
        cli.parse_config(json.dumps(doc))
    assert err.value.path == "robustness.schedule.magnitudes"


# generated models: one hand-written constructor per family kind, so the
# properties below do not read the schema tables they check

DRIFT_KINDS = ("lq", "saturated-affine", "constant", "tabulated")
DIFFUSION_KINDS = ("lq", "constant", "tabulated")
GENERATOR_KINDS = ("constant", "state-action-dependent")
RUNNING_KINDS = ("constant", "regime", "quad-clamped", "cosine", "lq")
TERMINAL_KINDS = ("zero", "constant", "quad", "bump")
EXIT_KINDS = ("zero", "constant")
ONE_D_KINDS = {("drift", "tabulated"), ("diffusion", "tabulated"), ("running", "cosine")}


def _nodes(rng, n):
    return np.cumsum(rng.uniform(0.1, 1.0, n)) - 2.0


def _drift(kind, N, d, l, rng):
    if kind == "lq":
        return DriftFamily(kind, d, N, l, a_mat=rng.normal(size=(N, d, d)), b_mat=rng.normal(size=(N, d, l)))
    if kind == "saturated-affine":
        return DriftFamily(
            kind, d, N, l, a_mat=rng.normal(size=(N, d, d)), b_mat=rng.normal(size=(N, d, l)),
            b0=rng.normal(size=(N, d)), saturation=float(rng.uniform(0.5, 2.0)),
        )
    if kind == "constant":
        return DriftFamily(kind, d, N, l, b0=rng.normal(size=(N, d)))
    n = int(rng.integers(2, 6))
    return DriftFamily(kind, d, N, l, x_nodes=_nodes(rng, n), values=rng.normal(size=(N, n)))


def _diffusion(kind, N, d, rng):
    if kind == "lq":
        return DiffusionFamily(kind, d, N, c_mat=rng.normal(size=(N, d, d)))
    if kind == "constant":
        return DiffusionFamily(kind, d, N, c0=rng.normal(size=(N, d, int(rng.integers(1, 3)))))
    n = int(rng.integers(2, 6))
    return DiffusionFamily(kind, d, N, x_nodes=_nodes(rng, n), values=rng.uniform(0.1, 1.0, (N, n)))


def _generator(kind, N, rng):
    off = rng.uniform(0.0, 2.0, (N, N)) * (1.0 - np.eye(N))
    if kind == "constant":
        return GeneratorSpec(kind, N, rates=off - np.diag(off.sum(axis=1)))
    gx = float(rng.uniform(-0.5, 0.5))
    return GeneratorSpec(kind, N, base=off, gx=gx, gu=float(rng.uniform(-0.5, 0.5)))


def _running(kind, N, d, l, rng):
    if kind == "constant":
        return RunningCost(kind, N, d, l, value=float(rng.uniform(0.0, 2.0)))
    if kind == "regime":
        return RunningCost(kind, N, d, l, values=rng.uniform(0.0, 2.0, N))
    if kind == "quad-clamped":
        w, cap, aw, off = rng.uniform(0.1, 2.0, 4)
        return RunningCost(kind, N, d, l, weight=w, cap=cap, action_weight=aw, offset=off)
    if kind == "cosine":
        return RunningCost(kind, N, d, l, amplitude=float(rng.uniform(0.0, 2.0)), frequency=float(rng.normal()))
    # Q = G G^T is positive semidefinite and R = H H^T + I positive definite, as the kind requires
    g, h = rng.normal(size=(N, d, d)), rng.normal(size=(N, l, l))
    q, r = g @ np.swapaxes(g, 1, 2), h @ np.swapaxes(h, 1, 2) + np.eye(l)
    return RunningCost(kind, N, d, l, q_mat=q, r_mat=r)


def _terminal(kind, N, d, rng):
    if kind == "constant":
        return TerminalCost(kind, N, d, value=float(rng.normal()))
    if kind == "quad":
        return TerminalCost(kind, N, d, p_mat=rng.normal(size=(N, d, d)))
    if kind == "bump":
        return TerminalCost(kind, N, d, height=float(rng.uniform(0.0, 2.0)), width=float(rng.uniform(0.1, 2.0)))
    return TerminalCost(kind, N, d)


@st.composite
def models(draw, pinned=()):
    """A valid model with random kinds, except the (family, kind) pairs pinned."""
    kinds = {
        "drift": draw(st.sampled_from(DRIFT_KINDS)),
        "diffusion": draw(st.sampled_from(DIFFUSION_KINDS)),
        "generator": draw(st.sampled_from(GENERATOR_KINDS)),
        "running": draw(st.sampled_from(RUNNING_KINDS)),
        "terminal": draw(st.sampled_from(TERMINAL_KINDS)),
        "exit_h": draw(st.sampled_from(EXIT_KINDS)),
        "exit_beta": draw(st.sampled_from(EXIT_KINDS)),
        **dict(pinned),
    }
    one_d = any(pair in ONE_D_KINDS for pair in kinds.items())
    d = 1 if one_d else draw(st.integers(1, 2))
    N, l = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actions = ActionGrid(rng.normal(size=(int(rng.integers(1, 4)), l)))
    running = _running(kinds["running"], N, d, l, rng)
    value = lambda kind: float(rng.uniform(0.0, 1.0)) if kind == "constant" else 0.0
    lo = float(rng.normal())
    costs = CostSpec(
        running=running,
        alpha=float(rng.uniform(0.1, 2.0)),
        horizon=float(rng.uniform(0.1, 2.0)),
        terminal=_terminal(kinds["terminal"], N, d, rng),
        exit_h=BoundaryCost(kinds["exit_h"], value=value(kinds["exit_h"])),
        exit_beta=ExitDiscount(kinds["exit_beta"], value=value(kinds["exit_beta"])),
        exit_domain=(lo, lo + float(rng.uniform(0.5, 3.0))),
    )
    return ModelSpec(
        d, RegimeSet(N), actions, _drift(kinds["drift"], N, d, l, rng),
        _diffusion(kinds["diffusion"], N, d, rng), _generator(kinds["generator"], N, rng), costs,
    )


def _same(a, b) -> bool:
    """Field-by-field equality of model value objects, arrays exactly."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


ALL_KINDS = [
    (family, kind)
    for family, kinds in (
        ("drift", DRIFT_KINDS), ("diffusion", DIFFUSION_KINDS), ("generator", GENERATOR_KINDS),
        ("running", RUNNING_KINDS), ("terminal", TERMINAL_KINDS), ("exit_h", EXIT_KINDS),
        ("exit_beta", EXIT_KINDS),
    )
    for kind in kinds
]


@pytest.mark.parametrize("family,kind", ALL_KINDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_model_document_round_trips(family, kind, data):
    spec = data.draw(models(pinned=[(family, kind)]))
    doc = model_to_dict(spec)
    back = model_from_dict(json.loads(json.dumps(doc)))
    assert _same(back, spec)
    assert model_to_dict(back) == doc


# the keys a document may leave out, per family path
OPTIONAL_KEYS = {
    "drift": {"offset", "saturation"},
    "generator": {"gx", "gu"},
    "costs": {"exit_domain"},
    "costs.running": {"action_weight", "offset", "frequency"},
    "costs.exit_h": {"value"},
    "costs.exit_beta": {"value"},
}
FAMILY_PATHS = (
    "drift", "diffusion", "generator", "costs", "costs.running", "costs.terminal",
    "costs.exit_h", "costs.exit_beta",
)


def _first_leaf_to_bool(v):
    return [_first_leaf_to_bool(v[0]), *v[1:]] if isinstance(v, list) else True


@settings(max_examples=150, deadline=None)
@given(
    spec=models(),
    family=st.sampled_from(FAMILY_PATHS),
    mutation=st.sampled_from(("type", "bool", "shape", "missing", "unknown")),
    pick=st.integers(0, 100),
)
def test_malformed_field_is_a_config_error_at_its_path(spec, family, mutation, pick):
    doc = model_to_dict(spec)
    obj = doc
    for part in family.split("."):
        obj = obj[part]
    keys = [k for k, v in obj.items() if k != "kind" and not isinstance(v, dict)]
    if mutation == "unknown" or not keys:
        key = "bogus"
        obj[key] = 1.0
    else:
        key = keys[pick % len(keys)]
        if mutation == "type":
            obj[key] = "x"
        elif mutation == "bool":
            obj[key] = _first_leaf_to_bool(obj[key])
        elif mutation == "shape":
            obj[key] = [obj[key]]
        else:
            del obj[key]
            if key in OPTIONAL_KEYS.get(family, ()):
                model_from_dict(doc)
                return
    with pytest.raises(ConfigError) as err:
        model_from_dict(doc)
    assert err.value.path == f"model.{family}.{key}"


def _first_leaf_to(v, value):
    return [_first_leaf_to(v[0], value), *v[1:]] if isinstance(v, list) else value


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400],
                         ids=["inf", "-inf", "nan", "int-beyond-float"])
@pytest.mark.parametrize("family,key", [("drift", "b0"), ("generator", "rates"), ("costs", "alpha"),
                                        ("costs", "exit_domain"), ("costs.running", "values")])
def test_non_finite_number_is_a_config_error_at_its_path(make_chain, family, key, value):
    # JSON's Infinity and NaN literals parse to floats, and a long integer
    # literal to an int no float holds; none of them is a number here
    doc = json.loads(json.dumps(model_to_dict(make_chain())))
    obj = doc
    for part in family.split("."):
        obj = obj[part]
    obj[key] = _first_leaf_to(obj.get(key, [-1.0, 1.0]), value)
    with pytest.raises(ConfigError, match="numbers must be finite") as err:
        model_from_dict(json.loads(json.dumps(doc)))
    assert err.value.path == f"model.{family}.{key}"


def test_discount_alpha_must_be_finite(make_chain):
    with pytest.raises(ShapeError, match="alpha must be finite") as info:
        dataclasses.replace(make_chain().costs, alpha=float("inf"))
    assert info.value.path == "costs.alpha"


def test_horizon_must_be_finite(make_chain):
    with pytest.raises(ShapeError, match="horizon must be finite"):
        dataclasses.replace(make_chain().costs, horizon=float("inf"))


# ---------------------------------------------------------------------------
# validation


def test_validate_passes_on_elliptic_chain(chain):
    report = validate_model(chain)
    assert report.passed
    assert {f.name for f in report.findings} == {"nondegeneracy", "lipschitz-ratio"}


def test_validate_flags_degenerate_diffusion(make_chain):
    report = validate_model(make_chain(sigma=0.0))
    assert not report.passed
    assert [f.name for f in report.failures()] == ["nondegeneracy"]


def _all_pairs_lipschitz(spec) -> float:
    """Largest drift chord slope over every pair of sample points with one
    regime and action, on nine states on [-2, 2], every regime and action."""
    pts = [
        (np.full(spec.dim, xv), i, a)
        for xv in np.linspace(-2.0, 2.0, 9) for i in range(spec.regimes.count) for a in spec.actions.actions
    ]
    x, u = np.array([p[0] for p in pts]), np.array([p[2] for p in pts])
    s = np.array([p[1] for p in pts], dtype=np.int64)
    b = spec.drift.eval_batch(x, s, u)
    ratio = 0.0
    for p in range(len(pts) - 1):
        same = (s[p + 1:] == s[p]) & np.all(u[p + 1:] == u[p], axis=1)
        dx = np.linalg.norm(x[p + 1:][same] - x[p], axis=1)
        db = np.linalg.norm(b[p + 1:][same] - b[p], axis=1)
        keep = dx > 1e-12
        if np.any(keep):
            ratio = max(ratio, float(np.max(db[keep] / dx[keep])))
    return ratio


@settings(max_examples=100, deadline=None)
@given(spec=models())
def test_lipschitz_ratio_is_the_all_pairs_chord_slope(spec):
    detail = {f.name: f.detail for f in validate_model(spec).findings}["lipschitz-ratio"]
    # the report prints six significant digits, so the oracle is rounded the same way
    oracle = float(f"{_all_pairs_lipschitz(spec):.6g}")
    assert float(detail.rsplit("= ", 1)[1]) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# perturbation schedules


def test_schedule_default_magnitudes_are_halving():
    sched = PerturbationSchedule(mode="rates", n_max=3, d_m=np.zeros((2, 2)))
    assert np.array_equal(sched.magnitudes, [1.0, 0.5, 0.25, 0.125])


def test_default_magnitudes_keep_their_own_rule_up_to_n_max_1075():
    # 2^-1075 rounds to 0, the one final 0 allowed; at 1076 a second 0 would
    # follow, which the same list given as magnitudes is refused for
    sched = PerturbationSchedule(mode="coefficient", n_max=1075, d_b=np.ones((2, 1, 1)))
    assert sched.magnitudes[-1] == 0.0 < sched.magnitudes[-2] == 2.0**-1074
    with pytest.raises(ConfigError) as err:
        PerturbationSchedule(mode="coefficient", n_max=1076, d_b=np.ones((2, 1, 1)))
    assert err.value.path == "schedule.n_max"
    with pytest.raises(ConfigError) as err:
        PerturbationSchedule(mode="coefficient", n_max=1076, magnitudes=0.5 ** np.arange(1077.0))
    assert err.value.path == "schedule.magnitudes"


@pytest.mark.parametrize("magnitudes", [None, [1.0, 0.5, 0.25]], ids=["default", "given"])
def test_schedule_n_max_must_be_whole(magnitudes):
    # 2.5 once built four default magnitudes, or blamed given ones for their length
    with pytest.raises(ConfigError, match="whole number") as err:
        PerturbationSchedule("rates", 2.5, magnitudes=magnitudes, d_m=np.zeros((2, 2)))
    assert err.value.code == "E_CONFIG" and err.value.path == "schedule.n_max"
    sched = PerturbationSchedule("rates", 2.0, magnitudes=magnitudes, d_m=np.zeros((2, 2)))
    assert type(sched.n_max) is int and sched.n_max == 2 and sched.magnitudes.size == 3


@pytest.mark.parametrize("magnitudes", [[1.0, math.nan], [math.inf, 0.0], [math.nan], [math.inf]],
                         ids=["nan", "inf", "lone-nan", "lone-inf"])
def test_schedule_rejects_magnitudes_that_are_not_finite(magnitudes):
    # NaN passed the order test and inf the sign test; a sweep then failed
    # with E_RATES "generator rows must sum to zero" and a RuntimeWarning
    with pytest.raises(ConfigError, match="finite") as err:
        PerturbationSchedule("rates", len(magnitudes) - 1, magnitudes=magnitudes, d_m=np.zeros((2, 2)))
    assert err.value.code == "E_CONFIG" and err.value.path == "schedule.magnitudes"


def test_schedule_rejects_nondecreasing_magnitudes():
    with pytest.raises(ConfigError):
        PerturbationSchedule(
            mode="rates", n_max=1, magnitudes=np.array([0.5, 0.5]), d_m=np.zeros((2, 2))
        )


def test_schedule_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        PerturbationSchedule(mode="wobble", n_max=1)


def test_coefficient_sequence_converges_to_target(saturated):
    sched = PerturbationSchedule(
        mode="coefficient", n_max=4,
        d_a=np.ones((2, 1, 1)), d_c=0.3 * np.ones((2, 1, 1)),
    )
    seq = make_perturbation_sequence(saturated, sched)
    assert len(seq) == 5
    gaps = [float(np.max(np.abs(m.drift.a_mat - saturated.drift.a_mat))) for m in seq]
    assert np.allclose(gaps, sched.magnitudes)
    sig = [float(m.diffusion.c0[0, 0, 0]) for m in seq]
    assert np.allclose(sig, 1.0 + 0.3 * sched.magnitudes)


def test_rates_sequence_rebuilds_diagonal(chain):
    sched = PerturbationSchedule(
        mode="rates", n_max=2, d_m=np.array([[0.0, 0.5], [1.0, 0.0]])
    )
    for model in make_perturbation_sequence(chain, sched):
        rates = model.generator.rates
        assert np.max(np.abs(rates.sum(axis=1))) < 1e-14
        assert rates[0, 1] >= 1.0

    bad = PerturbationSchedule(mode="rates", n_max=0, d_m=np.array([[0.0, -3.0], [0.0, 0.0]]))
    with pytest.raises(RatesError):
        make_perturbation_sequence(chain, bad)


def test_cost_sequence_shifts_running_cost(chain):
    sched = PerturbationSchedule(mode="cost", n_max=1, d_cost=0.25)
    seq = make_perturbation_sequence(chain, sched)
    assert np.allclose(seq[0].costs.running.values, [1.25, 2.25])
    assert np.allclose(seq[1].costs.running.values, [1.125, 2.125])


@pytest.mark.parametrize(
    "spec,d_cost",
    [(bm_model(cost_value=1.0), [1.0, 2.0]), (chain_model(), [0.1, 0.2, 0.3])],
    ids=["vector-on-constant", "length-3-on-2-regimes"],
)
def test_cost_shift_of_the_wrong_shape_is_a_shape_error(spec, d_cost):
    sched = PerturbationSchedule(mode="cost", n_max=1, d_cost=np.array(d_cost))
    with pytest.raises(ShapeError) as info:
        make_perturbation_sequence(spec, sched)
    assert info.value.path == "schedule.d_cost"


def test_drift_shift_that_does_not_apply_names_the_given_key():
    sched = PerturbationSchedule(mode="coefficient", n_max=0, d_b=np.ones((1, 1, 1)))
    with pytest.raises(ConfigError) as info:
        make_perturbation_sequence(bm_model(), sched)
    assert info.value.path == "schedule.d_b"


# one wrong shape per direction: (model, mode, key, direction)
WRONG_SHAPES = {
    "d_a": (saturated_model, "coefficient", np.ones((2, 2, 2))),
    "d_b": (saturated_model, "coefficient", np.ones((2, 1, 2))),
    "d_c": (saturated_model, "coefficient", np.ones((2, 1))),
    "d_m": (chain_model, "rates", np.zeros((3, 3))),
    "d_cost": (saturated_model, "cost", np.ones(2)),
    "hat_b": (bm_model, "noise-approx", np.ones(2)),
    "hat_sigma": (bm_model, "noise-approx", np.ones(1)),
}


@pytest.mark.parametrize("key", list(WRONG_SHAPES))
def test_direction_of_the_wrong_shape_is_a_shape_error(key):
    make, mode, direction = WRONG_SHAPES[key]
    sched = PerturbationSchedule(mode=mode, n_max=1, **{key: direction})
    with pytest.raises(ShapeError) as info:
        make_perturbation_sequence(make(), sched)
    assert info.value.path == f"schedule.{key}"


def test_ragged_direction_is_a_shape_error():
    # a library caller can pass nested lists the CLI parser would reject
    sched = PerturbationSchedule("rates", 1, d_m=[[0.0, 1.0], [2.0]])
    with pytest.raises(ShapeError) as info:
        make_perturbation_sequence(chain_model(), sched)
    assert info.value.path == "schedule.d_m"


@pytest.mark.parametrize("key", list(DIRECTIONS))
def test_direction_its_mode_does_not_apply_is_a_config_error(key):
    # e.g. a rates schedule with d_cost, which used to be dropped silently
    mode = next(m for m in ("rates", "cost", "noise-approx") if m not in DIRECTIONS[key].modes)
    with pytest.raises(ConfigError) as info:
        PerturbationSchedule(mode=mode, n_max=1, **{key: 5.0})
    assert info.value.path == f"schedule.{key}"


def test_directions_name_fields_of_their_family():
    for key, direction in DIRECTIONS.items():
        fields = direction.family.FIELDS
        for kind, field_key in direction.keys.items():
            assert field_key in [f.key for f in fields[kind]], (key, kind)


def test_noise_approx_scales_constant_diffusion(make_bm):
    spec = make_bm(sigma=0.5)
    sched = PerturbationSchedule(
        mode="noise-approx", n_max=1,
        hat_b=np.array([0.2]), hat_sigma=np.array([[0.1]]),
    )
    seq = make_perturbation_sequence(spec, sched)
    assert seq[0].drift.b0[0, 0] == pytest.approx(0.5 * 0.2)
    assert seq[0].diffusion.c0[0, 0, 0] == pytest.approx(0.5 * 1.1)
    assert seq[1].diffusion.c0[0, 0, 0] == pytest.approx(0.5 * 1.05)


def test_zero_magnitude_reproduces_true_model(chain):
    sched = PerturbationSchedule(
        mode="rates", n_max=1, magnitudes=np.array([0.5, 0.0]),
        d_m=np.array([[0.0, 1.0], [0.0, 0.0]]),
    )
    seq = make_perturbation_sequence(chain, sched)
    assert seq[1] is chain


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(min_value=1e-6, max_value=1.0))
def test_perturbed_generator_rows_always_sum_to_zero(delta):
    chain = chain_model()
    sched = PerturbationSchedule(
        mode="rates", n_max=1, magnitudes=np.array([delta, 0.0]),
        d_m=np.array([[0.0, 0.7], [0.4, 0.0]]),
    )
    rates = make_perturbation_sequence(chain, sched)[0].generator.rates
    assert np.max(np.abs(rates.sum(axis=1))) < 1e-12
    assert rates[0, 1] == pytest.approx(1.0 + 0.7 * delta)
    assert rates[1, 0] == pytest.approx(2.0 + 0.4 * delta)
