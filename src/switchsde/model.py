"""Hybrid model data types and structural validation.

A model couples a controlled diffusion in R^d with a finite regime chain.
Coefficients are restricted to declared parametric families so that every
experiment is a serializable document: drift and diffusion families produce
b(x, i, u) and sigma(x, i), the generator family produces the switching-rate
matrix m_ij(x, u) (nonnegative off-diagonals, zero row sums), and the cost
family produces the running cost c(x, i, u) plus terminal and exit data.

Each family class carries one field table per kind (``FIELDS``). The table
drives the per-field shape and sign checks on construction, the document
reader ``model_from_dict`` and the writer ``model_to_dict``; checks that
span fields stay explicit code in the family. Likewise ``DIRECTIONS`` names,
for each perturbation-schedule direction, the field it shifts.

All value objects are frozen; arrays are made read-only on construction.
Batch evaluation methods take stacked inputs (one row per sample or per
simulated path) and are the single evaluation path shared by the simulator
and the grid solver.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, RatesError, ShapeError

FloatArray = NDArray[np.float64]

ROW_SUM_TOL = 1e-12
EIG_FLOOR = 1e-12


def _check_definite(mats: np.ndarray, name: str, floor: float, what: str, path="", error=ShapeError) -> FloatArray:
    """The eigenvalues of a stack of matrices, the one definiteness test: E_SHAPE at ``path`` unless
    each is symmetric within 1e-10, ``error`` there (positive ``what``) if one is below ``floor``."""
    sym = float(np.max(np.abs(mats - np.swapaxes(mats, -1, -2))))
    if sym > 1e-10:
        raise ShapeError(f"{name} must be symmetric (defect {sym:.3e})", path)
    eigs = np.linalg.eigvalsh(mats)
    least = float(eigs.min())
    if least < floor:
        raise error(f"{name} must be positive {what} (min eig {least:.3e})", path)
    return eigs


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _whole(v) -> bool:
    """v is a real number with no fractional part; callers take a whole
    float such as 3.0 as its int."""
    return isinstance(v, numbers.Real) and v % 1 == 0


def _check_start(x0, i0, dim: int, n_regimes: int, rows: tuple = ()) -> tuple[FloatArray, np.ndarray]:
    """A start point as (x, s): x0 as a (dim,) float array, E_SHAPE unless
    it is dim finite numbers, and i0 as int64 regimes of shape ``rows``,
    E_SHAPE unless it is one whole regime number in 1..n_regimes (2.0 is 2)
    or an array of them that broadcasts to ``rows``."""
    try:
        x = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    except (TypeError, ValueError):
        raise ShapeError(f"x0 must be {dim} finite numbers, got {x0!r}") from None
    if x.shape != (dim,) or not np.isfinite(x).all():
        raise ShapeError(f"x0 has shape {x.shape} and entries {x.tolist()}; it must be {dim} finite numbers")
    s = np.asarray(i0)
    if s.dtype.kind in "iuf" and np.all((1 <= s) & (s <= n_regimes) & (s == np.floor(s))):
        try:
            return x, np.broadcast_to(s, rows).astype(np.int64)
        except ValueError:
            pass
    raise ShapeError(f"regime {i0!r} out of range: i0 must be a whole number in 1..{n_regimes}, or one per path")


# ---------------------------------------------------------------------------
# field tables


class Field(NamedTuple):
    """One field of a family kind: JSON key, attribute, shape, presence, sign.

    ``shape`` is "" for a number, else one symbol per axis: ``N`` regimes,
    ``d`` state dimension, ``l`` action dimension; any other letter takes
    the length it first meets, and every later use in the same family must
    match it. ``sign`` ("", ">= 0" or "> 0") holds for every entry. An
    optional array left out is zero; an optional number left out keeps the
    attribute's default.
    """

    key: str
    attr: str
    shape: str = ""
    required: bool = True
    sign: str = ""


_SIGNS = {">= 0": np.greater_equal, "> 0": np.greater}


def _fields(cls, kind) -> tuple[Field, ...]:
    """The field table of one kind of a family class."""
    if not isinstance(kind, str) or kind not in cls.FIELDS:
        raise cls.ERROR(f"unknown {cls.PATH} kind '{kind}'", f"{cls.PATH}.kind")
    return cls.FIELDS[kind]


def _check_fields(fam, **sizes: int) -> None:
    """Shape and sign of every field of ``fam``'s kind; arrays are frozen.

    A field the kind does not list must keep its default (E_CONFIG, as the
    document reader rejects an unknown key). Shape errors are E_SHAPE, sign
    errors the family's ``ERROR``; all carry the field's document path.
    """
    fields = _fields(type(fam), fam.kind)
    listed = {f.attr for f in fields}
    for name, dc in type(fam).__dataclass_fields__.items():
        v, default = getattr(fam, name), dc.default
        if name in listed or default is MISSING or v is default or (
            default is not None and np.array_equal(v, default)
        ):
            continue
        key = next((f.key for kind in fam.FIELDS.values() for f in kind if f.attr == name), name)
        raise ConfigError(f"'{key}' does not apply to {fam.PATH} kind '{fam.kind}'", f"{fam.PATH}.{key}")
    for f in fields:
        path = f"{fam.PATH}.{f.key}"
        v = getattr(fam, f.attr)
        if f.shape:
            if v is None and not f.required:
                v = np.zeros(tuple(sizes[c] for c in f.shape))
            v = np.asarray(v, dtype=np.float64)
            bad = v.ndim != len(f.shape)
            for c, n in zip(f.shape, v.shape):
                bad = bad or sizes.setdefault(c, n) != n
            if bad:
                want = tuple(sizes.get(c, c) for c in f.shape)
                raise ShapeError(f"'{f.key}' has shape {v.shape}, expected {want}", path)
            object.__setattr__(fam, f.attr, _freeze(v))
        elif v is None:
            continue
        if f.sign and not np.all(_SIGNS[f.sign](v, 0.0)):
            raise fam.ERROR(f"'{f.key}' must be {f.sign}", path)


def _interp_rows(xs: FloatArray, s: NDArray[np.int64], nodes: FloatArray, values: FloatArray) -> FloatArray:
    """Tabulated values at stacked 1-D states, interpolated per regime."""
    out = np.empty(xs.shape[0])
    for i in range(values.shape[0]):
        mask = s == i
        if np.any(mask):
            out[mask] = np.interp(xs[mask], nodes, values[i])
    return out


def _check_nodes(fam) -> None:
    """Tabulated families are 1-D over strictly increasing x nodes."""
    if fam.dim != 1:
        raise ShapeError(f"tabulated {fam.PATH} supports dim 1 only", f"{fam.PATH}.kind")
    if fam.x_nodes.size < 2 or np.any(np.diff(fam.x_nodes) <= 0):
        raise ShapeError("'x_nodes' must be at least two increasing nodes", f"{fam.PATH}.x_nodes")


_AFFINE = (Field("a", "a_mat", "Ndd"), Field("b", "b_mat", "Ndl"), Field("offset", "b0", "Nd", False))
_TABULATED = (Field("x_nodes", "x_nodes", "n"), Field("values", "values", "Nn"))
_ZERO_OR_CONSTANT = {
    "zero": (),
    "constant": (Field("value", "value", required=False, sign=">= 0"),),
}


@dataclass(frozen=True, eq=False)
class RegimeSet:
    """Finite regime labels 1..count; arrays index regimes from 0."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ShapeError("regime count must be >= 1", "regimes.count")


@dataclass(frozen=True, eq=False)
class ActionGrid:
    """Ordered finite action list in R^l with a box envelope.

    The list order is part of the contract: argmin ties are broken by the
    lowest index, so reordering actions changes extracted policies. Bounds
    are the componentwise min/max envelope of the listed actions.
    """

    actions: FloatArray  # (n_actions, l)

    def __post_init__(self):
        arr = np.asarray(self.actions, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ShapeError("actions must be a nonempty (n_actions, l) array", "actions")
        object.__setattr__(self, "actions", _freeze(arr))
        object.__setattr__(self, "lower", _freeze(arr.min(axis=0)))
        object.__setattr__(self, "upper", _freeze(arr.max(axis=0)))

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    def clamp(self, u: np.ndarray) -> np.ndarray:
        """Componentwise projection onto the box envelope."""
        return np.clip(u, self.lower, self.upper)


def _check_dim_1(spec: ModelSpec) -> None:
    """The one dim rule of the grid solvers, evaluators and policies: E_SHAPE unless ``spec`` has dim 1."""
    if spec.dim != 1:
        raise ShapeError("grid solvers support dim 1 only")


def _check_policy_table(table, spec: ModelSpec, n_x: int, ndim: int) -> np.ndarray:
    """The one rule for a policy table of the grid evaluators and grid policies, as a checked
    int64 copy: E_SHAPE unless ``spec`` has dim 1 (``_check_dim_1``) and the table has
    ``ndim`` nonempty axes ending in (N, n_x), each entry a whole number in 0..A-1 indexing
    spec.actions (a whole float such as 1.0 is taken as 1; 0.7, NaN and +-inf are not)."""
    _check_dim_1(spec)
    pol, trailing = np.asarray(table, dtype=np.float64), (spec.regimes.count, n_x)
    if pol.ndim != ndim or pol.shape[ndim - 2:] != trailing or not pol.size:
        raise ShapeError(f"policy table has shape {pol.shape}, expected {ndim} nonempty axes ending in {trailing}")
    n_actions = spec.actions.actions.shape[0]
    if not np.all((pol >= 0) & (pol < n_actions) & (pol == np.floor(pol))):
        raise ShapeError(f"policy table holds an entry that is not a whole action index in 0..{n_actions - 1}")
    return pol.astype(np.int64)


# ---------------------------------------------------------------------------
# drift families


@dataclass(frozen=True, eq=False)
class DriftFamily:
    """Drift b(x, i, u) from one of the declared families.

    kind 'lq'               b = A(i) x + B(i) u
    kind 'saturated-affine' b = s * tanh(A(i) x / s) + B(i) u + b0(i)
                            (elementwise tanh; |b| globally bounded)
    kind 'constant'         b = b0(i)
    kind 'tabulated'        b = per-regime table over x nodes, linear
                            interpolation, constant extrapolation (d = 1)

    The offset slot b0 on the affine families defaults to zero and exists so
    that drift corrections proportional to a constant diffusion matrix stay
    inside the family.
    """

    PATH = "drift"
    ERROR = ShapeError
    FIELDS = {
        "lq": _AFFINE,
        "saturated-affine": (*_AFFINE, Field("saturation", "saturation", required=False, sign="> 0")),
        "constant": (Field("b0", "b0", "Nd"),),
        "tabulated": _TABULATED,
    }

    kind: str
    dim: int
    n_regimes: int
    action_dim: int
    a_mat: FloatArray | None = None  # (N, d, d)
    b_mat: FloatArray | None = None  # (N, d, l)
    b0: FloatArray | None = None  # (N, d)
    saturation: float = 1.0
    x_nodes: FloatArray | None = None
    values: FloatArray | None = None  # (N, n_nodes)

    def __post_init__(self):
        _check_fields(self, N=self.n_regimes, d=self.dim, l=self.action_dim)
        if self.kind == "tabulated":
            _check_nodes(self)

    def eval_batch(self, x: FloatArray, s: NDArray[np.int64], u: FloatArray) -> FloatArray:
        """Drift rows for stacked samples: x (m,d), s (m,), u (m,l) -> (m,d)."""
        if self.kind == "constant":
            return self.b0[s]
        if self.kind == "tabulated":
            return _interp_rows(x[:, 0], s, self.x_nodes, self.values)[:, None]
        ax = np.einsum("mij,mj->mi", self.a_mat[s], x)
        if self.kind == "saturated-affine":
            ax = self.saturation * np.tanh(ax / self.saturation)
        bu = np.einsum("mij,mj->mi", self.b_mat[s], u)
        return ax + bu + self.b0[s]


# ---------------------------------------------------------------------------
# diffusion families


@dataclass(frozen=True, eq=False)
class DiffusionFamily:
    """Diffusion sigma(x, i) in R^{d x wiener_dim}.

    kind 'lq'        sigma = C(i) x as a single column (one Wiener driver)
    kind 'constant'  sigma = C0(i), constant in x
    kind 'tabulated' scalar sigma interpolated over x nodes (d = 1)
    """

    PATH = "diffusion"
    ERROR = ShapeError
    FIELDS = {
        "lq": (Field("c", "c_mat", "Ndd"),),
        "constant": (Field("c0", "c0", "Ndw"),),
        "tabulated": _TABULATED,
    }

    kind: str
    dim: int
    n_regimes: int
    c_mat: FloatArray | None = None  # (N, d, d) for lq
    c0: FloatArray | None = None  # (N, d, wiener_dim) for constant
    x_nodes: FloatArray | None = None
    values: FloatArray | None = None  # (N, n_nodes)

    def __post_init__(self):
        _check_fields(self, N=self.n_regimes, d=self.dim)
        if self.kind == "tabulated":
            _check_nodes(self)

    @property
    def wiener_dim(self) -> int:
        return self.c0.shape[2] if self.kind == "constant" else 1

    @property
    def is_zero(self) -> bool:
        """True when sigma vanishes identically (constant family, all zero)."""
        return self.kind == "constant" and not self.c0.any()

    def eval_batch(self, x: FloatArray, s: NDArray[np.int64]) -> FloatArray:
        """Diffusion matrices for stacked samples: -> (m, d, wiener_dim)."""
        if self.kind == "constant":
            return self.c0[s]
        if self.kind == "lq":
            col = np.einsum("mij,mj->mi", self.c_mat[s], x)
            return col[:, :, None]
        return _interp_rows(x[:, 0], s, self.x_nodes, self.values)[:, None, None]

    def a_batch(self, x: FloatArray, s: NDArray[np.int64]) -> FloatArray:
        """Squared-diffusion matrices a = sigma sigma^T / 2: -> (m, d, d)."""
        sig = self.eval_batch(x, s)
        return 0.5 * np.einsum("mik,mjk->mij", sig, sig)


# ---------------------------------------------------------------------------
# generator families


def _check_rates(rates: FloatArray, path: str) -> None:
    """The generator rule for a rate matrix: nonnegative off-diagonals and
    rows summing to zero within ``ROW_SUM_TOL`` times max(1, sum_j |m_ij|),
    so the rule holds at every rate scale. Violations are E_RATES at ``path``."""
    if np.any(rates - np.diag(np.diag(rates)) < 0):
        raise RatesError("off-diagonal switching rates must be >= 0", path)
    if not np.all(np.abs(rates.sum(axis=1)) <= ROW_SUM_TOL * np.maximum(1.0, np.abs(rates).sum(axis=1))):
        raise RatesError("generator rows must sum to zero", path)


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Switching-rate matrix family with a derived uniform bound.

    kind 'constant'               m_ij independent of (x, u)
    kind 'state-action-dependent' off-diagonals base_ij * g(x, u) with
                                  g(x, u) = 1 + gx*tanh(mean x) + gu*tanh(mean u),
                                  |gx| + |gu| <= 1 so rates stay nonnegative;
                                  diagonals rebuilt as minus the row sum

    ``bound`` is not an argument: it is computed on construction as the
    family supremum of |m_ij| over all states and actions (at least 1e-12),
    and feeds the simulator's step-size precondition and the validator.
    """

    PATH = "generator"
    ERROR = RatesError
    FIELDS = {
        "constant": (Field("rates", "rates", "NN"),),
        "state-action-dependent": (
            Field("base", "base", "NN", sign=">= 0"),
            Field("gx", "gx", required=False),
            Field("gu", "gu", required=False),
        ),
    }

    kind: str
    n_regimes: int
    rates: FloatArray | None = None  # (N, N), constant kind
    base: FloatArray | None = None  # (N, N) off-diagonals, dependent kind
    gx: float = 0.0
    gu: float = 0.0

    def __post_init__(self):
        _check_fields(self, N=self.n_regimes)
        N = self.n_regimes
        if self.kind == "constant":
            _check_rates(self.rates, "generator.rates")
            sup = float(np.max(np.abs(self.rates))) if N > 1 else 0.0
        else:
            base = self.base
            if np.any(np.diag(base) != 0.0):
                raise RatesError("'base' must have zero diagonal", "generator.base")
            if abs(self.gx) + abs(self.gu) > 1.0:
                raise RatesError("|gx| + |gu| must be <= 1 to keep rates nonnegative", "generator.gx")
            gmax = 1.0 + abs(self.gx) + abs(self.gu)
            sup = float(max(np.max(base), np.max(base.sum(axis=1))) * gmax) if N > 1 else 0.0
        object.__setattr__(self, "bound", max(sup, 1e-12))

    def rates_batch(self, x: FloatArray, u: FloatArray) -> FloatArray:
        """Rate matrices for stacked samples: x (m,d), u (m,l) -> (m, N, N)."""
        m = x.shape[0]
        if self.kind == "constant":
            return np.broadcast_to(self.rates, (m, *self.rates.shape))
        g = 1.0 + self.gx * np.tanh(x.mean(axis=1)) + self.gu * np.tanh(u.mean(axis=1))
        out = self.base[None, :, :] * g[:, None, None]
        out = out - np.eye(self.n_regimes)[None] * out.sum(axis=2, keepdims=True)
        return out


# ---------------------------------------------------------------------------
# cost families


@dataclass(frozen=True, eq=False)
class RunningCost:
    """Running cost c(x, i, u) >= 0.

    kind 'constant'     c = value
    kind 'regime'       c = values[i]
    kind 'quad-clamped' c = min(weight*|x|^2, cap) + action_weight*|u|^2 + offset
    kind 'cosine'       c = amplitude * max(cos(frequency * x_1), 0)   (d = 1)
    kind 'lq'           c = x^T Q(i) x + u^T R(i) u with Q(i) symmetric positive
                        semidefinite and R(i) symmetric positive definite;
                        unbounded, accepted only by the Riccati path

    ``bound(actions)`` is the least M_c valid for the family given the finite
    action set (infinity for 'lq').
    """

    PATH = "costs.running"
    ERROR = ShapeError
    FIELDS = {
        "constant": (Field("value", "value", sign=">= 0"),),
        "regime": (Field("values", "values", "N", sign=">= 0"),),
        "quad-clamped": (
            Field("weight", "weight", sign=">= 0"),
            Field("cap", "cap", sign="> 0"),
            Field("action_weight", "action_weight", required=False, sign=">= 0"),
            Field("offset", "offset", required=False, sign=">= 0"),
        ),
        "cosine": (Field("amplitude", "amplitude", sign=">= 0"), Field("frequency", "frequency", required=False)),
        "lq": (Field("q", "q_mat", "Ndd"), Field("r", "r_mat", "Nll")),
    }

    kind: str
    n_regimes: int
    dim: int
    action_dim: int
    value: float = 0.0
    values: FloatArray | None = None
    weight: float = 0.0
    cap: float = 0.0
    action_weight: float = 0.0
    offset: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0
    q_mat: FloatArray | None = None  # (N, d, d)
    r_mat: FloatArray | None = None  # (N, l, l)

    def __post_init__(self):
        _check_fields(self, N=self.n_regimes, d=self.dim, l=self.action_dim)
        if self.kind == "cosine" and self.dim != 1:
            raise ShapeError("cosine cost supports dim 1 only", "costs.running.kind")
        if self.kind == "lq":
            _check_definite(self.q_mat, "'q'", -EIG_FLOOR, "semidefinite", f"{self.PATH}.q")
            _check_definite(self.r_mat, "'r'", EIG_FLOOR, "definite", f"{self.PATH}.r")

    def bound(self, actions: ActionGrid) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "regime":
            return float(np.max(self.values))
        if self.kind == "quad-clamped":
            umax = float(np.max(np.sum(actions.actions**2, axis=1)))
            return self.cap + self.action_weight * umax + self.offset
        if self.kind == "cosine":
            return self.amplitude
        return float("inf")

    def regime_values(self) -> FloatArray | None:
        """The cost per regime when it depends on the regime alone, else None."""
        return {"constant": np.full(self.n_regimes, self.value), "regime": self.values}.get(self.kind)

    def eval_batch(self, x: FloatArray, s: NDArray[np.int64], u: FloatArray) -> FloatArray:
        if self.kind == "constant":
            return np.full(x.shape[0], self.value)
        if self.kind == "regime":
            return self.values[s]
        if self.kind == "quad-clamped":
            xx = np.minimum(self.weight * np.sum(x**2, axis=1), self.cap)
            return xx + self.action_weight * np.sum(u**2, axis=1) + self.offset
        if self.kind == "cosine":
            return self.amplitude * np.maximum(np.cos(self.frequency * x[:, 0]), 0.0)
        xq = np.einsum("mi,mij,mj->m", x, self.q_mat[s], x)
        ur = np.einsum("mi,mij,mj->m", u, self.r_mat[s], u)
        return xq + ur


@dataclass(frozen=True, eq=False)
class TerminalCost:
    """Horizon payoff c_T(x, i): 'zero', 'constant', 'quad' (x^T P(i) x), or
    'bump' (compactly supported smooth bump of given height and width)."""

    PATH = "costs.terminal"
    ERROR = ShapeError
    FIELDS = {
        "zero": (),
        "constant": (Field("value", "value"),),
        "quad": (Field("p", "p_mat", "Ndd"),),
        "bump": (Field("height", "height", sign=">= 0"), Field("width", "width", sign="> 0")),
    }

    kind: str
    n_regimes: int
    dim: int
    value: float = 0.0
    p_mat: FloatArray | None = None
    height: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        _check_fields(self, N=self.n_regimes, d=self.dim)

    def eval_batch(self, x: FloatArray, s: NDArray[np.int64]) -> FloatArray:
        if self.kind == "zero":
            return np.zeros(x.shape[0])
        if self.kind == "constant":
            return np.full(x.shape[0], self.value)
        if self.kind == "quad":
            return np.einsum("mi,mij,mj->m", x, self.p_mat[s], x)
        r2 = np.sum(x**2, axis=1) / self.width**2
        out = np.zeros(x.shape[0])
        inside = r2 < 1.0
        out[inside] = self.height * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out


@dataclass(frozen=True, eq=False)
class _ConstantFamily:
    """One constant >= 0, the same at every state, regime and action:
    'zero' or 'constant'."""

    ERROR = ShapeError
    FIELDS = _ZERO_OR_CONSTANT

    kind: str
    value: float = 0.0

    def __post_init__(self):
        _check_fields(self)

    @property
    def constant(self) -> float:
        """The family's value as a float; 0.0 for 'zero', which takes none."""
        return self.value if self.kind == "constant" else 0.0


@dataclass(frozen=True, eq=False)
class BoundaryCost(_ConstantFamily):
    """Exit payoff h >= 0 on the boundary, one constant."""

    PATH = "costs.exit_h"


@dataclass(frozen=True, eq=False)
class ExitDiscount(_ConstantFamily):
    """Exit discount rate beta >= 0, one constant rate rather than a
    function beta(x, i, u)."""

    PATH = "costs.exit_beta"


# the four criteria of a CostSpec, each of which the grid layer solves
GRID_CRITERIA = ("discounted", "finite-horizon", "exit", "ergodic")


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Cost data for all four criteria plus the discount, horizon and domain."""

    running: RunningCost
    alpha: float
    horizon: float
    terminal: TerminalCost
    exit_h: BoundaryCost
    exit_beta: ExitDiscount
    exit_domain: tuple[float, float]

    def __post_init__(self):
        for key, name in (("alpha", "discount alpha"), ("horizon", "horizon")):
            if not getattr(self, key) > 0:
                raise ShapeError(f"{name} must be > 0", f"costs.{key}")
            if getattr(self, key) == np.inf:
                raise ShapeError(f"{name} must be finite", f"costs.{key}")
        lo, hi = self.exit_domain
        if not lo < hi:
            raise ShapeError("exit_domain must be an open interval (lo, hi)", "costs.exit_domain")
        object.__setattr__(self, "exit_domain", (float(lo), float(hi)))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete hybrid model: dynamics, switching, actions and costs."""

    dim: int
    regimes: RegimeSet
    actions: ActionGrid
    drift: DriftFamily
    diffusion: DiffusionFamily
    generator: GeneratorSpec
    costs: CostSpec

    def __post_init__(self):
        d, N, l = self.dim, self.regimes.count, self.actions.action_dim
        for fam, nm in ((self.drift, "drift"), (self.diffusion, "diffusion")):
            if fam.dim != d or fam.n_regimes != N:
                raise ShapeError(f"{nm} family dims do not match the model")
        if self.drift.action_dim != l:
            raise ShapeError("drift action dim does not match the action grid")
        if self.generator.n_regimes != N:
            raise ShapeError("generator regime count does not match the model")
        rc = self.costs.running
        if rc.n_regimes != N or rc.dim != d or rc.action_dim != l:
            raise ShapeError("running cost dims do not match the model")

    def cost_bound(self) -> float:
        """Least valid M_c for this model: the running cost's bound over the actions."""
        return self.costs.running.bound(self.actions)


# ---------------------------------------------------------------------------
# serialization (strict: unknown keys are an error)

_MODEL_KEYS = ("dim", "regimes", "actions", "drift", "diffusion", "generator", "costs")
_COST_KEYS = ("running", "alpha", "horizon", "terminal", "exit_h", "exit_beta", "exit_domain")
_ZERO = {"kind": "zero"}


def _object(doc, path: str, keys, required=()) -> dict:
    """``doc`` as a JSON object holding every key in ``required`` and no key
    outside ``keys`` (any key when ``keys`` is None)."""
    where = lambda k: f"{path}.{k}" if path else k
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", path)
    for k in required:
        if k not in doc:
            raise ConfigError(f"missing key '{k}'", where(k))
    unknown = [k for k in doc if keys is not None and k not in keys]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'", where(unknown[0]))
    return doc


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("expected a number", path)
    return float(_array(v, path))


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("expected an integer", path)
    return v


def _numeric(v) -> bool:
    if isinstance(v, list):
        return all(_numeric(e) for e in v)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array(v, path: str) -> np.ndarray:
    """A number or JSON arrays of numbers nested to any depth, as finite floats."""
    if not _numeric(v):
        raise ConfigError("expected a number or an array of numbers", path)
    try:
        arr = np.array(v, dtype=np.float64)
    except ValueError:
        raise ConfigError("array rows differ in length", path) from None
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ConfigError("numbers must be finite", path)
    return arr


def _read_family(cls, doc, **sizes: int):
    """One family from its document. Presence and JSON types are checked
    here; shapes and signs by the family's own ``__post_init__``."""
    path = f"model.{cls.PATH}"
    fields = _fields(cls, _object(doc, path, None, ("kind",))["kind"])
    _object(doc, path, ("kind", *(f.key for f in fields)), [f.key for f in fields if f.required])
    kw = {
        f.attr: (_array if f.shape else _number)(doc[f.key], f"{path}.{f.key}")
        for f in fields
        if f.key in doc
    }
    sizes = {k: v for k, v in sizes.items() if k in cls.__dataclass_fields__}
    return cls(doc["kind"], **sizes, **kw)


def _write_family(fam) -> dict:
    out = {"kind": fam.kind}
    for f in fam.FIELDS[fam.kind]:
        v = getattr(fam, f.attr)
        out[f.key] = v.tolist() if f.shape else v
    return out


def model_to_dict(spec: ModelSpec) -> dict:
    """The JSON document of a model; ``model_from_dict`` reads it back exactly."""
    c = spec.costs
    costs = {
        "running": _write_family(c.running),
        "alpha": c.alpha,
        "horizon": c.horizon,
        "terminal": _write_family(c.terminal),
        "exit_h": _write_family(c.exit_h),
        "exit_beta": _write_family(c.exit_beta),
        "exit_domain": list(c.exit_domain),
    }
    return {
        "dim": spec.dim,
        "regimes": {"count": spec.regimes.count},
        "actions": spec.actions.actions.tolist(),
        "drift": _write_family(spec.drift),
        "diffusion": _write_family(spec.diffusion),
        "generator": _write_family(spec.generator),
        "costs": costs,
    }


def model_from_dict(doc: dict) -> ModelSpec:
    """The model of a JSON document (strict: unknown keys are an error).

    Every rejection is a ConfigError whose path is the dotted path of the
    offending field, e.g. ``model.costs.running.values``.
    """
    _object(doc, "model", _MODEL_KEYS, _MODEL_KEYS)
    try:
        dim = _integer(doc["dim"], "model.dim")
        count = _object(doc["regimes"], "model.regimes", ("count",), ("count",))["count"]
        regimes = RegimeSet(_integer(count, "model.regimes.count"))
        actions = ActionGrid(_array(doc["actions"], "model.actions"))
        sizes = dict(dim=dim, n_regimes=regimes.count, action_dim=actions.action_dim)
        drift = _read_family(DriftFamily, doc["drift"], **sizes)
        diffusion = _read_family(DiffusionFamily, doc["diffusion"], **sizes)
        generator = _read_family(GeneratorSpec, doc["generator"], **sizes)
        co = _object(doc["costs"], "model.costs", _COST_KEYS, ("running", "alpha", "horizon"))
        domain = _array(co.get("exit_domain", [-1.0, 1.0]), "model.costs.exit_domain")
        if domain.shape != (2,):
            raise ConfigError("expected [lo, hi]", "model.costs.exit_domain")
        costs = CostSpec(
            running=_read_family(RunningCost, co["running"], **sizes),
            alpha=_number(co["alpha"], "model.costs.alpha"),
            horizon=_number(co["horizon"], "model.costs.horizon"),
            terminal=_read_family(TerminalCost, co.get("terminal", _ZERO), **sizes),
            exit_h=_read_family(BoundaryCost, co.get("exit_h", _ZERO)),
            exit_beta=_read_family(ExitDiscount, co.get("exit_beta", _ZERO)),
            exit_domain=(domain[0], domain[1]),
        )
        return ModelSpec(dim, regimes, actions, drift, diffusion, generator, costs)
    except (ShapeError, RatesError) as exc:
        raise ConfigError(exc.message, f"model.{exc.path}" if exc.path else "model") from exc


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Finding:
    """One pass/fail line of a validation report."""

    name: str
    passed: bool
    detail: str
    advisory: bool = False


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.findings if not f.advisory)

    def failures(self) -> list[Finding]:
        return [f for f in self.findings if not f.passed and not f.advisory]

    def __str__(self) -> str:
        lines = []
        for f in self.findings:
            tag = "PASS" if f.passed else "FAIL"
            adv = " (advisory)" if f.advisory else ""
            lines.append(f"{tag}{adv} {f.name}: {f.detail}")
        return "\n".join(lines)


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Check what construction cannot, at nine states on [-2, 2] (all
    components equal), every regime and every action.

    The generator's signs and row sums are enforced, and the rate and cost
    bounds derived, when a model is built. ``nondegeneracy`` needs
    a = sigma sigma^T / 2 > 0; it is advisory for the lq diffusion
    sigma = C x, which vanishes at x = 0 (grid solvers reject a <= 0 at a
    node). The advisory ``lipschitz-ratio`` is the largest drift chord slope
    between neighbouring states at one regime and action: the states lie on
    one line, so no chord between two of them is steeper.
    """
    N, A = spec.regimes.count, spec.actions.actions.shape[0]
    states = np.linspace(-2.0, 2.0, 9)[:, None] * np.ones(spec.dim)
    x = np.repeat(states, N * A, axis=0)
    s = np.tile(np.repeat(np.arange(N), A), len(states))
    u = np.tile(spec.actions.actions, (len(states) * N, 1))

    min_eig = float(np.min(np.linalg.eigvalsh(spec.diffusion.a_batch(x, s))))
    lq = spec.diffusion.kind == "lq"
    detail = f"{'riccati-only family, ' if lq else ''}min eigenvalue of a = {min_eig:.3e}"

    b = spec.drift.eval_batch(x, s, u).reshape(len(states), N * A, spec.dim)
    db = np.linalg.norm(np.diff(b, axis=0), axis=2)
    ratio = float(np.max(db / np.linalg.norm(np.diff(states, axis=0), axis=1)[:, None]))
    return ValidationReport((
        Finding("nondegeneracy", min_eig > 0.0, detail, advisory=lq),
        Finding("lipschitz-ratio", bool(np.isfinite(ratio)),
                f"max sampled |b(x)-b(y)|/|x-y| = {ratio:.6g}", advisory=True),
    ))


# ---------------------------------------------------------------------------
# perturbation schedules


class Direction(NamedTuple):
    """What one schedule direction shifts.

    ``modes`` are the schedule modes that apply it. ``family`` is the model
    family it shifts and ``keys`` the field it shifts for each kind of that
    family (a key of the family's ``FIELDS``); other kinds do not take it. A
    shifted family recomputes what it derives, such as the generator's ``bound``.
    """

    modes: tuple[str, ...]
    family: type
    keys: dict[str, str]


_COEFFICIENT, _NOISE = ("coefficient", "combined"), ("noise-approx",)
_AFFINE_KINDS = ("lq", "saturated-affine")

DIRECTIONS = {
    "d_a": Direction(_COEFFICIENT, DriftFamily, dict.fromkeys(_AFFINE_KINDS, "a")),
    "d_b": Direction(_COEFFICIENT, DriftFamily, dict.fromkeys(_AFFINE_KINDS, "b")),
    "d_c": Direction(_COEFFICIENT, DiffusionFamily, {"lq": "c", "constant": "c0"}),
    "d_m": Direction(("rates", "combined"), GeneratorSpec, {"constant": "rates", "state-action-dependent": "base"}),
    "d_cost": Direction(
        ("cost", "combined"), RunningCost,
        {"constant": "value", "regime": "values", "quad-clamped": "offset", "cosine": "amplitude"},
    ),
    # the noise-approx pair acts through the constant diffusion matrix
    "hat_b": Direction(_NOISE, DriftFamily, {"constant": "b0", **dict.fromkeys(_AFFINE_KINDS, "offset")}),
    "hat_sigma": Direction(_NOISE, DiffusionFamily, {"constant": "c0"}),
}


@dataclass(frozen=True, eq=False)
class PerturbationSchedule:
    """Directions and magnitudes for an approximating-model sequence.

    ``magnitudes`` defaults to 2^-n for n = 0..n_max. Each direction shifts
    one field, named for each family kind by ``DIRECTIONS``, to
    target + delta * direction; a direction has the shape of that field (a
    number may also shift a per-regime cost vector) and omitted directions
    stay zero. ``mode`` selects which directions apply, and a direction the
    mode does not apply is a ConfigError:

    'coefficient'  d_a, d_b to the drift family, d_c to the diffusion family
    'rates'        d_m to the generator off-diagonals (diagonal rebuilt)
    'cost'         d_cost to the running cost
    'noise-approx' hat_b, hat_sigma as a drift/diffusion correction pair
                   (requires constant-in-x diffusion)
    'combined'     coefficient + rates + cost
    """

    MODES = ("coefficient", "rates", "cost", "noise-approx", "combined")

    mode: str
    n_max: int
    magnitudes: FloatArray | None = None
    d_a: FloatArray | None = None
    d_b: FloatArray | None = None
    d_c: FloatArray | None = None
    d_m: FloatArray | None = None
    d_cost: float | FloatArray | None = None
    hat_b: FloatArray | None = None
    hat_sigma: FloatArray | None = None

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ConfigError(f"unknown perturbation mode '{self.mode}'", "schedule.mode")
        for key, direction in DIRECTIONS.items():
            if getattr(self, key) is not None and self.mode not in direction.modes:
                raise ConfigError(f"mode '{self.mode}' does not apply '{key}'", f"schedule.{key}")
        if not (_whole(self.n_max) and self.n_max >= 0):
            raise ConfigError(f"n_max must be a whole number >= 0, got {self.n_max!r}", "schedule.n_max")
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.magnitudes is None:
            # 2^-1075 rounds to 0, so n_max = 1075 has the one final 0 allowed
            if self.n_max > 1075:
                raise ConfigError("with the default magnitudes 2^-n, n_max must be <= 1075", "schedule.n_max")
            mags = 0.5 ** np.arange(self.n_max + 1, dtype=np.float64)
        else:
            mags = np.asarray(self.magnitudes, dtype=np.float64)
            if mags.shape != (self.n_max + 1,):
                raise ConfigError("magnitudes must have length n_max + 1", "schedule.magnitudes")
            if not np.isfinite(mags).all():
                raise ConfigError(f"magnitudes must be finite, got {mags.tolist()}", "schedule.magnitudes")
            if np.any(np.diff(mags) >= 0) or np.any(mags[:-1] <= 0) or mags[-1] < 0:
                raise ConfigError(
                    "magnitudes must be strictly decreasing and positive (a final 0 is allowed)",
                    "schedule.magnitudes",
                )
        object.__setattr__(self, "magnitudes", _freeze(mags))


def _checked(key: str, direction, shape: tuple, per_regime: bool = False) -> np.ndarray:
    """Direction ``key`` as finite floats of ``shape``; with ``per_regime`` a number also fits.
    A wrong shape is E_SHAPE, a NaN or +-inf entry E_CONFIG, both at ``schedule.<key>``."""
    try:
        d = np.asarray(direction, dtype=np.float64)
    except ValueError:
        raise ShapeError(f"'{key}' is not an array of numbers with rows of one length",
                         f"schedule.{key}") from None
    if d.shape != shape and not (per_regime and d.shape == ()):
        raise ShapeError(f"'{key}' has shape {d.shape}, expected {shape}", f"schedule.{key}")
    if not np.isfinite(d).all():
        raise ConfigError(f"'{key}' must be finite, got {d.tolist()}", f"schedule.{key}")
    return d


def _shift(key: str, name: str, value, direction: np.ndarray, delta: float):
    """``value + delta * direction``, the one rule of every schedule direction.

    ``d_m`` moves only the off-diagonals; the diagonal is rebuilt as minus
    the row sum, or kept zero for a 'base' matrix of off-diagonals. A
    negative off-diagonal is E_RATES.
    """
    if key != "d_m":
        new = value + delta * direction
        return float(new) if np.ndim(new) == 0 else new
    off = value - np.diag(np.diag(value)) + delta * (direction - np.diag(np.diag(direction)))
    if np.any(off < 0):
        raise RatesError(f"perturbed rates negative at delta = {delta:g}", "schedule.d_m")
    return off if name == "base" else off - np.diag(off.sum(axis=1))


def _noise_shift(key: str, spec: ModelSpec, direction: np.ndarray, delta: float) -> np.ndarray:
    """Drift b0 + sigma (delta hat_b) or noise sigma (I + delta hat_sigma), sigma = c0."""
    c0 = spec.diffusion.c0
    if key == "hat_b":
        return spec.drift.b0 + np.einsum("nij,j->ni", c0, delta * direction)
    return np.einsum("nij,jk->nik", c0, np.eye(c0.shape[2]) + delta * direction)


def make_perturbation_sequence(true_spec: ModelSpec, sched: PerturbationSchedule) -> list[ModelSpec]:
    """Approximating models true + delta_n * direction, one per magnitude.

    Each direction shifts the field ``DIRECTIONS`` names for the model's
    family kind; the noise-approx pair (zero when left out) applies its
    drift/diffusion correction instead. Every direction is checked against
    the model before any model is built: a kind that does not take it, or a
    NaN or +-inf entry, is E_CONFIG and a wrong shape E_SHAPE, all at
    ``schedule.<key>``. Every element is checked against the structural
    generator rules (E_RATES). A magnitude of exactly zero reproduces the
    true model bit for bit. Every element keeps the true model's objects for
    what it does not shift (its families, and its CostSpec unless the
    running cost is shifted), so the grid tables evaluate each of those once
    per stack.
    """
    noise = sched.mode == "noise-approx"
    shifts = []
    for key, direction in DIRECTIONS.items():
        d = getattr(sched, key)
        if sched.mode not in direction.modes or (d is None and not noise):
            continue
        fam = attrgetter(direction.family.PATH)(true_spec)
        if fam.kind not in direction.keys:
            raise ConfigError(f"'{key}' does not apply to {fam.PATH} kind '{fam.kind}'", f"schedule.{key}")
        f = next(f for f in fam.FIELDS[fam.kind] if f.key == direction.keys[fam.kind])
        if noise:
            shape = (true_spec.diffusion.wiener_dim,) * (1 if key == "hat_b" else 2)
            d = _checked(key, np.zeros(shape) if d is None else d, shape)
        else:
            d = _checked(key, d, np.shape(getattr(fam, f.attr)), f.shape == "N")
        shifts.append((key, fam, f, d))

    out: list[ModelSpec] = []
    for delta in sched.magnitudes:
        delta = float(delta)
        if delta == 0.0:
            out.append(true_spec)
            continue
        changes: dict[str, dict] = {}
        for key, fam, f, d in shifts:
            new = _noise_shift(key, true_spec, d, delta) if noise else \
                _shift(key, f.key, getattr(fam, f.attr), d, delta)
            changes.setdefault(fam.PATH, {})[f.attr] = new
        fams = {path: replace(attrgetter(path)(true_spec), **kw) for path, kw in changes.items()}
        running = fams.pop(RunningCost.PATH, None)
        costs = true_spec.costs if running is None else replace(true_spec.costs, running=running)
        out.append(replace(true_spec, costs=costs, **fams))
    return out
