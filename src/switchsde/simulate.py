"""Hybrid path simulation: Euler-Maruyama plus event-driven regime jumps.

The continuous state advances explicitly,

    X_{k+1} = X_k + b(X_k, S_k, U_k) dt + sigma(X_k, S_k) sqrt(dt) xi_k,

and the regime jumps at most once per step, with probability
p_k = (sum_{j != i} m_ij(X_k, U_k)) dt, to a destination drawn
proportionally to m_ij. The step bound dt <= 1/(4 N M) keeps p_k at or
below one quarter.

Jumps are driven by clocks rather than a per-step uniform. Each path holds
a uniform clock W = 1 - v in (0, 1]; a clock of per-step probability p
waits floor(log W / log(1 - p)) steps, the count of n >= 1 with
(1 - p)^n >= W, and rings at the next, so it rings at each step with
probability exactly p, up to the rounding of one log. A path keeps only
the step its next ring is due, and a block's rings are found when its
draws are made, once per ring rather than once per step. A ring takes two
uniforms: a pick, which decides the jump, and the next clock.

Under a constant generator regime i has its own clock, p_i = out_i dt,
every ring is a jump, and the pick chooses the destination from the
cumulative outflow table cum_off; a regime with zero outflow has no clock.
A state-action-dependent generator, rates off_ij g(x, u) with g <= g_max =
1 + |gx| + |gu| > 1, is thinned: one bound clock of rate rbar =
max_i out_i g_max runs in every regime, and at each of its rings, a
candidate with pick v, the path jumps to the first j with cum_off[s, j] >
v rbar / g(X_k, U_k), at the pre-step state, and stays where there is
none: it jumps to j with probability off_sj g dt. The bound clock does not
depend on the regime, so neither does a candidate's successor, and a
block's candidates are all found at the refill too. step() evaluates g on
candidate rows alone and writes the regimes of the rows that jump. The
block's schedule is held as event arrays sorted by step: the rows, and a
constant generator's destinations, in np.intp, so every step indexes with
them as they are; the steps in int16, for the sort.

Randomness is counter based: path p draws from a Philox stream keyed by
(seed, p), independent of every other path and of how paths are batched;
the generator is built from that key alone. A stepper builds its paths'
generators from one uint64 key table of (seed, first + p), each through a
seed object that reads its row when Philox asks for the key, the same key
RngStream(seed, first + p) hands it. Each path consumes its stream
in this order: one uniform for the first clock, then, per block of CHUNK
steps, the block's Gaussian increments (none when the diffusion is
identically zero) followed by a fixed number of jump uniforms, sized from
the fastest clock's rate (none when no regime has outflow). Both counts
depend only on the spec and dt. Rings take their uniforms from the block's
supply two at a time, all at the refill; a path that uses it up draws
further pairs straight from its stream, in ring order, and leftovers are
dropped. The order depends only on the path's own trajectory, so a path
simulated alone is bit-identical to the same path inside any batch. A
block's normals are stored step-major, so a step reads one contiguous row;
each path draws its block into a small tile that is copied in transposed.

A refill draws the normals on at most one thread per available core
(WORKERS), never more than one per tile: each thread takes a contiguous run
of whole tiles, into its own tile, and the calling thread takes the first
run. The jump uniforms are drawn on the calling thread once every worker
has been joined, so each path still reads its normals before its uniforms,
and no path and no estimate depends on the worker count. A block with no
normals, or of one tile or less, is drawn on the calling thread alone.

Actions are looked up and clamped once per step (a ConstantPolicy's once
per row count) by actions(policy); the caller hands that array to
running_cost(u) and then step(), which uses it as given, so cost, drift and
rates all see the same clamped action.

Between jumps a path's regime-indexed coefficients are constant, so the
stepper holds b0 dt, sigma sqrt(dt) and a regime-only running cost as
per-row columns table[s], rewritten with s at jumps only. mark_dead retires
rows and zeroes their motion columns, so they stay put (a step that
evaluates its drift or diffusion masks them). They are compacted away at
the next chunk refill, or at the start of the first step with at most half
of the rows alive; a mid-block compaction carries the survivors' columns,
normals and scheduled jumps along, so it never changes a path. step() returns
the kept-row mask when it compacts, else None, so a caller holding state
row by row compacts it the same way.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NanError, ShapeError, StepError
from .io import g17, write_csv
from .model import FloatArray, ModelSpec, _check_policy_table, _check_start, _freeze, _whole

if TYPE_CHECKING:
    from .hjbgrid import Grid1D
    from .riccati import FeedbackTrajectory

CHUNK = 1024
TILE = 64  # paths per transposed refill copy, steps per compaction copy
MAX_STEPS = 10**8


# most threads a refill draws normals on: one per core this process may use
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without CPU affinity
    WORKERS = os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class RngStream:
    """Counter-based random stream identity for one path.

    ``generator()`` always rebuilds the underlying Philox bit generator from
    its key (seed, path_index) at counter zero, so the same RngStream yields
    the same draw sequence every time it is handed to the simulator. It is
    its own seed sequence, handing Philox the key of ``Philox(key=...)``
    without the ``SeedSequence`` that call draws from OS entropy and drops.
    Construction checks the key with ``_check_key`` and keeps it as ints.
    """

    seed: int
    path_index: int

    def __post_init__(self):
        seed, path_index, _ = _check_key(self.seed, self.path_index, 1)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path_index", path_index)

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return np.array([self.seed, self.path_index], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        _register_stream()
        return np.random.Generator(np.random.Philox(self))


class _KeyRow:
    """Seed sequence of one path of a batch: row ``row`` of its (seed, path
    index) uint64 key table, which hands Philox the same key as the path's
    RngStream. The row is indexed on use, so no per-path view stays alive."""

    __slots__ = ("keys", "row")

    def __init__(self, keys: np.ndarray, row: int):
        self.keys, self.row = keys, row

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.keys[self.row]


@functools.cache
def _register_stream() -> None:
    # on first use, so that importing the package leaves numpy.random out
    np.random.bit_generator.ISeedSequence.register(RngStream)
    np.random.bit_generator.ISeedSequence.register(_KeyRow)


def _check_key(seed, first, n) -> tuple[int, int, int]:
    """(seed, first, n) as ints, E_SHAPE unless each is a whole number
    (3.0 is 3), n >= 1, and the seed and path indices first..first+n-1 are
    uint64 key words."""
    if not (_whole(seed) and _whole(first) and _whole(n) and n >= 1):
        raise ShapeError(f"seed = {seed!r}, first path index = {first!r} and path count = {n!r} "
                         "must be whole numbers, the count at least 1")
    seed, first, n = int(seed), int(first), int(n)
    if not (0 <= seed < 2**64 and 0 <= first and first + n <= 2**64):
        raise ShapeError(f"seed = {seed} and path indices {first}..{first + n - 1} must lie in [0, 2**64)")
    return seed, first, n


NEVER = 2**62  # the wait of a clock that never rings; a block step plus it stays in int64


def _wait(w: FloatArray, stay: FloatArray) -> np.ndarray:
    """Whole steps each clock W waits before it rings: the count of n >= 1
    with stay^n >= W, stay = 1 - p, which is floor(log W / log stay); a
    clock with stay = 1 never rings and waits NEVER."""
    wait = np.full(w.shape, NEVER, dtype=np.int64)
    ring = stay < 1.0
    wait[ring] = np.floor(np.log(w[ring]) / np.log(stay[ring]))
    return wait


# ---------------------------------------------------------------------------
# policies


@dataclass(frozen=True, eq=False)
class ConstantPolicy:
    """Always the same action ``u``, a frozen copy of what it is given; a call returns
    a new broadcast view and keeps nothing (BatchStepper.actions keeps the clamped batch)."""

    u: FloatArray

    def __post_init__(self):
        object.__setattr__(self, "u", _freeze(np.array(self.u, dtype=np.float64, ndmin=1)))

    def actions_at(self, t: float, x: FloatArray, s: np.ndarray) -> FloatArray:
        return np.broadcast_to(self.u, (x.shape[0], self.u.size))


class LQFeedbackPolicy:
    """Linear feedback u = -F(t, i) x from a gain trajectory."""

    def __init__(self, feedback: FeedbackTrajectory):
        self.feedback = feedback

    def actions_at(self, t: float, x: FloatArray, s: np.ndarray) -> FloatArray:
        f = self.feedback.gain_at(t)  # (N, l, d)
        return -np.einsum("mld,md->ml", f[s], x)


class GridPolicy:
    """A grid solve's (N, n_x) action table, checked by the grid evaluators' rule
    (model._check_policy_table) and looked up at the solver's nearest node x_min + k dx,
    rint((x - grid.x_min) / grid.dx) clipped to 0..n_x - 1. ``grid`` is a Grid1D, or
    anything with its x_min, dx and n_x."""

    NDIM = 2  # table axes (N, n_x)

    def __init__(self, spec: ModelSpec, grid: Grid1D, table: np.ndarray):
        self.table = _check_policy_table(table, spec, grid.n_x, self.NDIM)
        self.grid = grid
        self.actions = spec.actions.actions

    def _node(self, x: FloatArray) -> np.ndarray:
        idx = np.rint((x[:, 0] - self.grid.x_min) / self.grid.dx).astype(np.int64)
        return np.clip(idx, 0, self.grid.n_x - 1)

    def actions_at(self, t: float, x: FloatArray, s: np.ndarray) -> FloatArray:
        return self.actions[self.table[s, self._node(x)]]


class TimeGridPolicy(GridPolicy):
    """A finite-horizon solve's (n_t, N, n_x) action table over ``horizon``: level j acts on
    [j dt, (j + 1) dt), dt = horizon / n_t being the solver's step, so lookup floors t / dt
    (1e-9 of a level early counts as on it) into 0..n_t - 1; nodes as in GridPolicy.
    E_SHAPE unless 0 < horizon < inf."""

    NDIM = 3

    def __init__(self, spec: ModelSpec, grid: Grid1D, table: np.ndarray, horizon: float):
        super().__init__(spec, grid, table)
        if not 0 < horizon < np.inf:
            raise ShapeError(f"a time-indexed policy table needs a finite horizon > 0, got {horizon}")
        self.dt = horizon / self.table.shape[0]

    def actions_at(self, t: float, x: FloatArray, s: np.ndarray) -> FloatArray:
        lev = int(np.clip(np.floor(t / self.dt + 1e-9), 0, self.table.shape[0] - 1))
        return self.actions[self.table[lev, s, self._node(x)]]


class CallablePolicy:
    """Wraps fn(t, x, regimes) -> actions; x is (m, d), regimes are 1-based."""

    def __init__(self, fn):
        self.fn = fn

    def actions_at(self, t: float, x: FloatArray, s: np.ndarray) -> FloatArray:
        u = np.asarray(self.fn(t, x, s + 1), dtype=np.float64)
        if u.ndim == 1:
            u = u[:, None]
        return u


# ---------------------------------------------------------------------------
# batched stepping engine


class BatchStepper:
    """Drives a batch of paths with per-path streams and chunked draws.

    A step is ``u = eng.actions(policy)``, ``eng.running_cost(u)`` to accrue
    cost, then ``eng.step(u)``; the clamp happens in ``actions`` only.
    Retired rows (mark_dead) have their drift and noise columns zeroed, so
    they stay put, and are compacted away at the next chunk refill, or
    mid-block as soon as at most half the rows are alive, so the per-step
    work shrinks with the surviving population. ``step`` returns the
    kept-row mask of a compaction (else None). ``original_index`` maps
    current rows back to path indices.

    The per-path generators are built once, from one (m, 2) uint64 key
    table of (seed, first_path_index + p) that they share; no per-path view
    of it is kept.

    Each refill also schedules the block's jumps, or their thinning
    candidates (see the module docstring), so a step does no jump work
    beyond testing its candidates and writing the regimes of the rows that
    jump at it. The schedule's event rows, and a constant generator's
    destinations, are np.intp arrays, also once a mid-block compaction has
    renumbered the rows, so applying them converts no index. Between
    refills a row's jump state is one integer, the block step its next ring
    is due, whatever the length of its wait.

    A refill draws the normals on up to ``WORKERS`` threads, started for
    that refill and joined before it returns (see the module docstring);
    each extra thread holds one tile, 512 KB for a scalar noise.

    Non-finite states are detected at chunk boundaries, before every
    compaction and on an explicit check_finite() call, not per step;
    callers that consume the final state should call check_finite() once
    after their loop.
    """

    def __init__(
        self,
        spec: ModelSpec,
        x0,
        i0,
        dt: float,
        seed: int,
        first_path_index: int = 0,
        n_paths: int = 1,
    ):
        n_big = spec.regimes.count * spec.generator.bound
        bound = 1.0 / (4.0 * n_big) if n_big else math.inf
        # written so that a NaN or infinite dt fails it too
        if not (0.0 < dt < math.inf and dt * 4.0 * n_big <= 1.0 + 1e-12):
            raise StepError(f"dt = {dt} violates 0 < dt <= 1/(4 N M) = {bound:.6g}")
        self.spec = spec
        self.dt = float(dt)
        self.t = 0.0
        self.d = spec.dim
        self.wd = spec.diffusion.wiener_dim
        seed, first, m = _check_key(seed, first_path_index, n_paths)
        x0, i0 = _check_start(x0, i0, self.d, spec.regimes.count, (m,))
        self.x = np.tile(x0, (m, 1))
        self.s = i0 - 1
        self.alive = np.ones(m, dtype=bool)
        self._n_alive = m
        self.original_index = np.arange(m, dtype=np.int64)
        # one generator per path, alive for the whole run; its first draw
        # sets the path's first jump clock
        keys = np.empty((m, 2), dtype=np.uint64)
        keys[:, 0] = seed
        keys[:, 1] = np.arange(m, dtype=np.uint64) + np.uint64(first)  # at most 2**64 - 1
        _register_stream()
        gen, philox = np.random.Generator, np.random.Philox
        self._gens = [gen(philox(_KeyRow(keys, p))) for p in range(m)]
        self.clamped_steps = 0
        self._pos = CHUNK  # forces a refill on the first step
        self._all_alive = True
        self._sqrt_dt = np.sqrt(self.dt)

        # per-row columns table[s] of the regime-indexed tables (see the module docstring)
        b0 = spec.drift.b0 if spec.drift.kind == "constant" else None
        self._drift_zero = b0 is not None and not b0.any()
        self._zero_diffusion = spec.diffusion.is_zero
        self._scalar = self.d == 1 and self.wd == 1
        drift = self._scalar and b0 is not None and not self._drift_zero
        noise = self._scalar and spec.diffusion.kind == "constant" and not self._zero_diffusion
        # a scalar increment from columns alone is zero on retired rows
        self._col_motion = self._scalar and (drift or self._drift_zero) and (noise or self._zero_diffusion)
        tabs = {"drift": b0[:, 0] * self.dt if drift else None, "cost": spec.costs.running.regime_values(),
                "noise": spec.diffusion.c0[:, 0, 0] * self._sqrt_dt if noise else None}
        self._col_tabs = {name: tab for name, tab in tabs.items() if tab is not None}
        self._cols = {name: tab[self.s] for name, tab in self._col_tabs.items()}
        # one clock per regime, or under thinning one bound clock for all
        gen = spec.generator
        off = (gen.rates if gen.kind == "constant" else gen.base).copy()
        np.fill_diagonal(off, 0.0)
        self._cum_off = np.cumsum(off, axis=1)  # (N, N)
        g_max = 1.0 + abs(gen.gx) + abs(gen.gu)
        self._thin = g_max > 1.0
        rate = off.sum(axis=1) * g_max
        if self._thin:
            self._rbar = rate.max()
            rate = np.full_like(rate, self._rbar)
        self._stay = 1.0 - rate * self.dt  # 1 - p per step of each regime's clock
        # the block step of each row's next ring, set from the first clock
        self._due = _wait(1.0 - np.array([g.random() for g in self._gens]), self._stay[self.s])
        p_max = 1.0 - self._stay.min()
        # jump uniforms per block: two per ring for the block's expected ring
        # count on the fastest clock plus four standard deviations
        lam = p_max * CHUNK
        self._n_jump_u = 2 * math.ceil(lam + 4.0 * math.sqrt(lam)) if lam > 0 else 0
        # block buffers; rows (columns of the step-major normals) only
        # shrink, so later blocks use the leading ones
        self._jump_u = np.empty((m, self._n_jump_u))
        self._normals = self._tile = None
        if not self._zero_diffusion:
            cols = () if self._scalar else (self.wd,)
            self._normals = np.empty((CHUNK, m) + cols)
            self._tile = np.empty((min(TILE, m), CHUNK) + cols)
        # (policy, row count, clamped batch, clamped rows) of the last ConstantPolicy
        self._kept = (None, -1, None, None)

    @property
    def n_alive(self) -> int:
        return self._n_alive

    def mark_dead(self, dead_rows: np.ndarray) -> None:
        """Retire the rows set in ``dead_rows``, a boolean mask of the current rows."""
        if getattr(dead_rows, "dtype", None) != bool or dead_rows.shape != self.alive.shape:
            raise ShapeError(f"mark_dead takes a boolean mask of shape {self.alive.shape}")
        self.alive &= ~dead_rows
        for name in self._cols.keys() & {"drift", "noise"}:
            self._cols[name][dead_rows] = 0.0
        self._all_alive = False
        self._n_alive = int(np.count_nonzero(self.alive))

    def check_finite(self) -> None:
        if np.isfinite(self.x).all():
            return
        bad = ~np.isfinite(self.x).all(axis=1)
        path = int(self.original_index[np.argmax(bad)])
        raise NanError(
            f"state became non-finite at or before t = {self.t:.6g} on path {path}"
        )

    def actions(self, policy) -> FloatArray:
        """The policy's actions for the current rows, clamped to the box; clamped rows of
        living paths count into ``clamped_steps``. A ConstantPolicy never changes, so its
        clamped batch is kept, keyed on the policy and the row count; any other is clamped anew."""
        n = self.x.shape[0]
        kept = self._kept
        if kept[0] is policy and kept[1] == n:
            u, rows = kept[2], kept[3]
        else:
            u_raw = policy.actions_at(self.t, self.x, self.s)
            shape = (n, self.spec.actions.action_dim)
            if np.shape(u_raw) != shape:
                raise ShapeError(f"policy actions have shape {np.shape(u_raw)}, expected {shape}")
            u = self.spec.actions.clamp(u_raw)
            rows = np.any(u != u_raw, axis=1)
            if not rows.any():
                rows = None
            if isinstance(policy, ConstantPolicy):
                self._kept = (policy, n, u, rows)
        if rows is not None:
            if self._all_alive:
                self.clamped_steps += int(np.count_nonzero(rows))
            else:
                self.clamped_steps += int(np.count_nonzero(rows & self.alive))
        return u

    def running_cost(self, u: FloatArray) -> FloatArray:
        """The current rows' running cost under ``u``: the read-only cost column if it is regime-only."""
        col = self._cols.get("cost")
        return self.spec.costs.running.eval_batch(self.x, self.s, u) if col is None else col

    def _set_regimes(self, rows: np.ndarray, dest: np.ndarray) -> None:
        """Move the rows to the regimes ``dest``, and every column's rows with them."""
        self.s[rows] = dest
        for name, col in self._cols.items():
            col[rows] = self._col_tabs[name][dest]

    def _compact(self) -> np.ndarray:
        """Move the living rows to the front and drop the rest.

        Mid-block, the survivors' unused normals move with them, in place
        in the block buffer, and so do their scheduled jumps. Returns the
        mask of kept rows.
        """
        keep = self.alive
        rows = np.flatnonzero(keep)
        n, pos = rows.size, self._pos
        self.x = self.x[rows]
        self.s = self.s[rows]
        self.original_index = self.original_index[rows]
        self._cols = {name: col[rows] for name, col in self._cols.items()}
        self._due = self._due[rows]
        self._gens = [self._gens[r] for r in rows]
        if pos < CHUNK:
            if self._normals is not None:
                for r in range(pos, CHUNK, TILE):
                    self._normals[r : r + TILE, :n] = self._normals[r : r + TILE, rows]
            a = self._ev_at[pos]
            live = keep[self._ev_rows[a:]]
            self._ev_rows = (np.cumsum(keep) - 1)[self._ev_rows[a:][live]]
            self._ev_dest = self._ev_dest[a:][live]
            self._set_events(self._ev_step[a:][live])
        if self._normals is not None:
            self._normals = self._normals[:, :n]
        self._jump_u = self._jump_u[:n]
        self.alive = np.ones(n, dtype=bool)
        self._all_alive = True
        self._n_alive = n
        return keep

    def _refill(self) -> None:
        """Draw the next block's randomness into the leading buffer rows."""
        m = self.x.shape[0]
        # per path, the normals come first in its stream, then the uniforms
        if self._normals is not None:
            self._draw_normals(m)
        if self._n_jump_u:
            for p, g in enumerate(self._gens):
                g.random(out=self._jump_u[p])
        self._pos = 0
        self._schedule()

    def _draw_normals(self, m: int) -> None:
        """Draw the block's normals of rows 0..m-1, split into contiguous runs
        of whole tiles, one run per worker thread; the calling thread takes
        the first run. Every path reads only its own stream, so the draws do
        not depend on the split. A worker's exception is raised here once
        every worker has been joined."""
        n_tiles = -(-m // TILE)
        k = max(1, min(WORKERS, n_tiles))
        cuts = [min(m, TILE * (n_tiles * w // k)) for w in range(k + 1)]
        errors = []

        def work(lo, hi):
            try:
                self._draw_run(lo, hi, np.empty_like(self._tile))
            except BaseException as exc:  # raised on the calling thread after the join
                errors.append(exc)

        threads = [threading.Thread(target=work, args=run) for run in zip(cuts[1:-1], cuts[2:])]
        for t in threads:
            t.start()
        try:
            self._draw_run(0, cuts[1], self._tile)
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]

    def _draw_run(self, lo: int, hi: int, tile: FloatArray) -> None:
        """Each path of rows lo..hi-1 fills one row of ``tile`` with its
        block of normals, and each tile goes into the step-major buffer
        transposed; lo and hi are multiples of TILE, except hi = m at the end."""
        for p0 in range(lo, hi, TILE):
            gens = self._gens[p0 : p0 + TILE]
            for t, g in enumerate(gens):
                g.standard_normal(out=tile[t])
            self._normals[:, p0 : p0 + len(gens)] = tile[: len(gens)].swapaxes(0, 1)

    def _schedule(self) -> None:
        """Find every jump, or thinning candidate, of the coming block.

        Each round takes every row whose next ring is due inside the block.
        A constant generator's ring moves the row to its destination; a
        candidate keeps its pick for the test at its step. The ring's clock
        sets the row's next ring 1 + _wait steps later, on the clock of its
        regime after the ring. Rows due past the block carry ``due`` into
        the next one. The rings are kept sorted by step, with one offset per
        step into them.
        """
        s, due = self.s.copy(), self._due
        self._jump_next = np.zeros(s.size, dtype=np.int64)  # each row's next supply uniform
        val_type = np.float64 if self._thin else np.intp  # a candidate's pick, or a destination
        found = [(np.empty(0, dtype=np.int16), np.empty(0, dtype=np.intp), np.empty(0, dtype=val_type))]
        rows = np.flatnonzero(due < CHUNK)
        while rows.size:
            at = due[rows]
            val, clock = self._draw_jumps(rows)
            if not self._thin:
                cum = self._cum_off[s[rows]]
                # the pick times the total outflow is uniform on [0, outflow)
                val = np.argmax((val * cum[:, -1])[:, None] < cum, axis=1)
                s[rows] = val
            found.append((at.astype(np.int16), rows, val))
            due[rows] = at + 1 + _wait(clock, self._stay[s[rows]])
            rows = rows[due[rows] < CHUNK]
        due -= CHUNK
        at, rows, dest = (np.concatenate(a) for a in zip(*found))
        order = np.argsort(at, kind="stable")
        self._ev_rows, self._ev_dest = rows[order], dest[order]
        self._set_events(at[order])

    def _set_events(self, steps: np.ndarray) -> None:
        """Store the scheduled jumps' steps, sorted, and each step's offset."""
        self._ev_step = steps
        self._ev_at = np.searchsorted(steps, np.arange(CHUNK + 1)).tolist()

    def step(self, u: FloatArray) -> np.ndarray | None:
        """Advance every living row one Euler step using the given actions.

        ``u`` has one row per current row and is used as given (see
        ``actions``). When this step starts a new chunk, or at most half the
        rows are alive, retired rows are first compacted away and their
        actions with them; the kept-row mask is then returned, else None.
        """
        keep = None
        refill = self._pos >= CHUNK
        if refill or (not self._all_alive and 2 * self._n_alive <= self.x.shape[0]):
            self.check_finite()
            if not self._all_alive:
                keep = self._compact()
                u = u[keep]
            if refill:
                self._refill()
        pos = self._pos
        x, s, alive = self.x, self.s, self.alive
        all_alive = self._all_alive

        # this step's scheduled jumps, written after the Euler increment;
        # thinning candidates are tested on the pre-step state
        a, z = self._ev_at[pos], self._ev_at[pos + 1]
        rows = None
        if a < z:
            rows, dest = self._ev_rows[a:z], self._ev_dest[a:z]
            if not all_alive:
                live = alive[rows]
                rows, dest = rows[live], dest[live]
            if self._thin:
                rows, dest = self._accept(rows, dest, u)

        # Euler increment, in place on the scalar fast path
        if self._scalar:
            inc = None
            if not self._drift_zero:
                inc = self._cols.get("drift")
                if inc is None:
                    inc = self.spec.drift.eval_batch(x, s, u)[:, 0] * self.dt
            if not self._zero_diffusion:
                noise = self._cols.get("noise")
                if noise is not None:
                    noise = noise * self._normals[pos]
                else:
                    sig = self.spec.diffusion.eval_batch(x, s)[:, 0, 0]
                    noise = sig * self._normals[pos] * self._sqrt_dt
                inc = noise if inc is None else inc + noise
            if inc is not None:
                xf = x[:, 0]
                if all_alive or self._col_motion:
                    xf += inc
                else:
                    np.add(xf, inc, out=xf, where=alive)
        else:
            b = self.spec.drift.eval_batch(x, s, u)
            sig = self.spec.diffusion.eval_batch(x, s)
            xi = self._normals[pos]
            dx = b * self.dt + np.einsum("mdw,mw->md", sig, xi) * self._sqrt_dt
            if all_alive:
                x += dx
            else:
                np.add(x, dx, out=x, where=alive[:, None])

        if rows is not None:
            self._set_regimes(rows, dest)
        self._pos = pos + 1
        self.t += self.dt
        return keep

    def _accept(self, rows: np.ndarray, pick: FloatArray, u: FloatArray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate rows that jump, and where to: each goes to the first
        j with cum_off[s, j] > pick rbar / g, g at the pre-step state and
        action, and the rows with no such j stay."""
        gen = self.spec.generator
        # each mean as np.mean takes it: the row's sum over its length
        x, u = self.x.take(rows, axis=0), u.take(rows, axis=0)
        g = 1.0 + gen.gx * np.tanh(x.sum(axis=1) / x.shape[1]) + gen.gu * np.tanh(u.sum(axis=1) / u.shape[1])
        cum = self._cum_off.take(self.s.take(rows), axis=0)
        w = pick * self._rbar / g
        go = w < cum[:, -1]
        return rows[go], (w[:, None] < cum).argmax(axis=1)[go]

    def _draw_jumps(self, rows: np.ndarray) -> tuple[FloatArray, FloatArray]:
        """Picks and next clocks of one ring of each given row's clock.

        Each row takes two uniforms, from the block's supply or, once that
        is used up, from its own stream: the first is the pick, the second
        sets the next clock.
        """
        nxt = self._jump_next[rows]
        supplied = nxt + 2 <= self._n_jump_u
        # a row's pair sits at row * width + next in the flat buffer
        at = rows * self._jump_u.shape[1] + np.minimum(nxt, self._n_jump_u - 2)
        flat = self._jump_u.reshape(-1)
        pick, clock = flat[at], flat[at + 1]
        self._jump_next[rows[supplied]] += 2
        for i in np.flatnonzero(~supplied):
            pick[i], clock[i] = self._gens[rows[i]].random(2)
        return pick, 1.0 - clock


# ---------------------------------------------------------------------------
# path containers


@dataclass(frozen=True, eq=False)
class PathSample:
    """One simulated trajectory on the uniform step grid.

    ``regimes`` are 1-based labels; ``actions`` has one row per step (the
    action applied on [t_k, t_{k+1})). ``termination`` is 'horizon', 'exit'
    or 'cap'; for exits, the final node is the first grid time outside the
    domain.
    """

    times: FloatArray
    states: FloatArray
    regimes: np.ndarray
    actions: FloatArray
    jumps: tuple
    termination: str
    clamped_steps: int

    @property
    def exit_time(self) -> float | None:
        return float(self.times[-1]) if self.termination == "exit" else None

    def to_csv(self, path) -> None:
        d = self.states.shape[1]
        l = self.actions.shape[1] if self.actions.ndim == 2 else 1
        header = "t,regime," + ",".join(f"x_{j + 1}" for j in range(d)) + "," + ",".join(
            f"u_{j + 1}" for j in range(l)
        )
        comments = [
            f"#jump,{g17(t)},{i},{j}" for (t, i, j) in self.jumps
        ]
        rows = []
        n = self.actions.shape[0]
        for k in range(self.times.size):
            row = [self.times[k], int(self.regimes[k])]
            row.extend(self.states[k])
            if k < n:
                row.extend(self.actions[k])
            else:
                row.extend([None] * l)
            rows.append(row)
        write_csv(path, header, rows, comments=comments)


def _check_step_budget(T: float, dt: float) -> None:
    """Reject a non-positive dt, and a T/dt that is NaN or beyond MAX_STEPS."""
    if not dt > 0:
        raise StepError(f"dt = {dt} must be positive")
    if not T / dt <= MAX_STEPS:
        raise StepError(f"T/dt = {T / dt:.6g} is outside the step budget {MAX_STEPS}")


def _n_steps_for(T: float, dt: float) -> int:
    _check_step_budget(T, dt)
    n = int(round(T / dt))
    if n < 0 or abs(n * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise StepError(f"horizon T = {T} is not an integer multiple of dt = {dt}")
    return n


def simulate_path(spec: ModelSpec, policy, x0, i0, T: float, dt: float, stream: RngStream) -> PathSample:
    """Simulate one trajectory to the horizon under the given policy."""
    return _record(spec, policy, x0, i0, dt, _n_steps_for(T, dt), None, stream)


def _cap_steps(t_cap: float, dt: float) -> int:
    """Step cap of an exit run: t_cap/dt rounded up.

    t_cap must be finite and positive and the run within the step budget;
    a t_cap that is not a whole number of steps is covered by the next step.
    """
    if not np.isfinite(t_cap) or t_cap <= 0:
        raise StepError("t_cap must be finite and positive")
    _check_step_budget(t_cap, dt)
    return int(math.ceil(t_cap / dt - 1e-9))


def outside_interval(x: FloatArray, domain: tuple[float, float]) -> np.ndarray:
    """Rows whose state has left the open box (lo, hi) in any coordinate."""
    lo, hi = domain
    if x.shape[1] == 1:
        x = x[:, 0]
        return (x <= lo) | (x >= hi)
    return ((x <= lo) | (x >= hi)).any(axis=1)


def simulate_exit_path(
    spec: ModelSpec, policy, x0, i0, domain: tuple[float, float], dt: float,
    t_cap: float, stream: RngStream,
) -> PathSample:
    """Simulate until the state leaves the open domain, or until t_cap
    rounded up to a whole number of steps, as in ``mc_exit``.

    The exit node is the first grid time at which the state is outside the
    domain; no interpolation toward the boundary is applied. A start outside
    the domain terminates immediately with a zero-length path.
    """
    return _record(spec, policy, x0, i0, dt, _cap_steps(t_cap, dt), domain, stream)


def _record(spec, policy, x0, i0, dt, n_steps, domain, stream) -> PathSample:
    """Step one path up to n_steps times, stopping at the first node outside
    ``domain`` (never, for None). A step makes at most one jump and a jump
    always changes the regime, so the jumps are read off the regimes."""
    eng = BatchStepper(spec, x0, i0, dt, seed=stream.seed, first_path_index=stream.path_index)
    states, regimes, actions = [eng.x[0].copy()], [int(eng.s[0]) + 1], []
    outside = lambda: domain is not None and outside_interval(eng.x, domain)[0]
    while len(actions) < n_steps and not outside():
        u = eng.actions(policy)
        actions.append(u[0].copy())
        eng.step(u)
        states.append(eng.x[0].copy())
        regimes.append(int(eng.s[0]) + 1)
    eng.check_finite()
    n = len(actions)
    times = np.arange(n + 1) * dt
    return PathSample(
        times=times,
        states=np.array(states).reshape(n + 1, spec.dim),
        regimes=np.array(regimes, dtype=np.int64),
        actions=np.array(actions, dtype=np.float64).reshape(n, spec.actions.action_dim),
        jumps=tuple((float(times[k + 1]), regimes[k], regimes[k + 1])
                    for k in range(n) if regimes[k + 1] != regimes[k]),
        termination="exit" if outside() else "horizon" if domain is None else "cap",
        clamped_steps=eng.clamped_steps,
    )
