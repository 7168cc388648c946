"""Path simulation: stream reproducibility, laws, clamps and exits."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsde import (
    ActionGrid,
    BatchStepper,
    BoundaryCost,
    CallablePolicy,
    ConstantPolicy,
    CostSpec,
    ExitDiscount,
    GeneratorSpec,
    Grid1D,
    GridPolicy,
    RegimeSet,
    RunningCost,
    TerminalCost,
    TimeGridPolicy,
    NanError,
    ShapeError,
    StepError,
    evaluate_policy_finite_horizon,
    evaluate_policy_value,
    make_rng_stream,
    mc_discounted,
    simulate,
    simulate_exit_path,
    simulate_path,
)
from switchsde.simulate import CHUNK, MAX_STEPS, NEVER, _wait, outside_interval
from switchsde import DiffusionFamily, DriftFamily, ModelSpec
from conftest import bm_model, chain_model, lq_model, reference_lq, saturated_model

ZERO = ConstantPolicy(np.zeros(1))


def _switching_model(generator, sigma=0.0):
    """Driftless 1-D model with the given regime generator and unit costs."""
    n = generator.n_regimes
    return ModelSpec(
        dim=1,
        regimes=RegimeSet(n),
        actions=ActionGrid(np.array([[-1.0], [1.0]])),
        drift=DriftFamily("constant", 1, n, 1, b0=np.zeros((n, 1))),
        diffusion=DiffusionFamily("constant", 1, n, c0=np.full((n, 1, 1), float(sigma))),
        generator=generator,
        costs=CostSpec(
            running=RunningCost("constant", n, 1, 1, value=1.0),
            alpha=1.0, horizon=1.0,
            terminal=TerminalCost("zero", n, 1),
            exit_h=BoundaryCost("zero"), exit_beta=ExitDiscount("zero"),
            exit_domain=(-1.0, 1.0),
        ),
    )


def _with_drift(spec, b0):
    drift = DriftFamily("constant", spec.dim, spec.regimes.count, 1, b0=b0)
    return ModelSpec(
        spec.dim, spec.regimes, spec.actions, drift, spec.diffusion,
        spec.generator, spec.costs,
    )


# ---------------------------------------------------------------------------
# stream determinism


def test_rng_stream_is_reproducible():
    a = make_rng_stream(7, 3).generator().standard_normal(8)
    b = make_rng_stream(7, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
@pytest.mark.parametrize("path", [0, 1, 2**32 - 1])
def test_rng_stream_is_the_philox_stream_of_its_key(seed, path):
    ours = make_rng_stream(seed, path).generator()
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))
    assert np.array_equal(ours.standard_normal(1000), ref.standard_normal(1000))
    assert np.array_equal(ours.random(77), ref.random(77))


def test_rng_stream_separates_paths_and_seeds():
    base = make_rng_stream(7, 3).generator().standard_normal(8)
    other_path = make_rng_stream(7, 4).generator().standard_normal(8)
    other_seed = make_rng_stream(8, 3).generator().standard_normal(8)
    assert not np.array_equal(base, other_path)
    assert not np.array_equal(base, other_seed)


@pytest.mark.parametrize(
    "seed,first,n",
    [(-1, 0, 1), (2**64, 0, 1), (-5, 0, 4), (0, -1, 2), (7, 2**64 - 1, 2), (7, 2**64, 1),
     (2**64 - 1, 2**64 - 7, 8)],
)
def test_keys_outside_uint64_raise_a_shape_error(make_chain, seed, first, n):
    with pytest.raises(ShapeError, match=rf"seed = {seed} and path indices"):
        BatchStepper(make_chain(), [0.0], 1, 0.01, seed=seed, first_path_index=first, n_paths=n)
    if n == 1:
        with pytest.raises(ShapeError, match=rf"seed = {seed} and path indices"):
            make_rng_stream(seed, first)


@pytest.mark.parametrize("seed,path", [(1.5, 0), (0, 0.5), (-1, 0), (2**64, 0), (0, 2**64), ("7", 0)])
def test_rng_stream_checks_its_key_on_construction(seed, path):
    # RngStream once took any key: its generator() drew seed 1's stream for
    # seed 1.5 and failed as a bare OverflowError for seed -1
    with pytest.raises(ShapeError) as err:
        simulate.RngStream(seed, path)
    assert err.value.code == "E_SHAPE"
    stream = simulate.RngStream(5.0, 3.0)
    assert stream == simulate.RngStream(5, 3) and type(stream.seed) is type(stream.path_index) is int


def test_keys_at_the_ends_of_uint64_are_accepted(make_chain):
    top = 2**64 - 1
    eng = BatchStepper(make_chain(), [0.0], 1, 0.01, seed=top, first_path_index=top - 1, n_paths=2)
    eng.step(np.zeros((2, 1)))
    ref = np.random.Generator(np.random.Philox(key=np.array([top, top], dtype=np.uint64)))
    assert make_rng_stream(top, top).generator().random() == ref.random()


@pytest.mark.parametrize("seed, first", [(0, 0), (2**64 - 1, 2**64 - 6)], ids=["bottom", "top"])
def test_stepper_streams_are_the_rng_streams_of_their_keys(make_chain, seed, first):
    # the streams come from one (seed, path index) uint64 key table, exact at
    # the top of the key range; the first draw of each sets its first ring
    m = 6
    eng = BatchStepper(make_chain(), [0.0], 1, 0.01, seed=seed, first_path_index=first, n_paths=m)
    halves = [BatchStepper(make_chain(), [0.0], 1, 0.01, seed=seed, first_path_index=first + h, n_paths=m // 2)
              for h in (0, m // 2)]
    for p in range(m):
        ref = simulate.RngStream(seed, first + p).generator()
        assert eng._due[p] == _wait(np.array([1.0 - ref.random()]), eng._stay[:1])[0]
        draws = ref.random(9)
        assert np.array_equal(eng._gens[p].random(9), draws)
        assert np.array_equal(halves[p // (m // 2)]._gens[p % (m // 2)].random(9), draws)
    assert len({id(g.bit_generator.seed_seq.keys) for g in eng._gens}) == 1


def test_same_seed_reproduces_path_bitwise(make_chain):
    spec = make_chain()
    a = simulate_path(spec, ZERO, [0.1], 1, 1.0, 0.01, make_rng_stream(5, 0))
    b = simulate_path(spec, ZERO, [0.1], 1, 1.0, 0.01, make_rng_stream(5, 0))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.regimes, b.regimes)
    assert a.jumps == b.jumps
    c = simulate_path(spec, ZERO, [0.1], 1, 1.0, 0.01, make_rng_stream(6, 0))
    assert not (np.array_equal(a.states, c.states) and np.array_equal(a.regimes, c.regimes))


@pytest.mark.parametrize("sigma", [0.2, 0.0], ids=["diffusive", "pure-jump"])
def test_batch_row_equals_single_path(make_chain, sigma):
    # the per-path streams make batching irrelevant, bit for bit
    spec = make_chain(sigma=sigma)
    n, dt, seed, row = 200, 0.01, 11, 3
    single = simulate_path(spec, ZERO, [0.0], 2, n * dt, dt, make_rng_stream(seed, row))

    eng = BatchStepper(spec, [0.0], 2, dt, seed=seed, first_path_index=0, n_paths=8)
    xs = [eng.x[row, 0]]
    ss = [eng.s[row] + 1]
    for _ in range(n):
        eng.step(ZERO.actions_at(eng.t, eng.x, eng.s))
        xs.append(eng.x[row, 0])
        ss.append(eng.s[row] + 1)
    assert np.array_equal(single.states[:, 0], xs)
    assert np.array_equal(single.regimes, ss)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), row=st.integers(0, 5))
def test_first_path_index_aligns_streams(seed, row):
    spec = chain_model(sigma=0.0)
    dt, n = 0.05, 64
    lone = BatchStepper(spec, [0.0], 1, dt, seed=seed, first_path_index=row, n_paths=1)
    batch = BatchStepper(spec, [0.0], 1, dt, seed=seed, first_path_index=0, n_paths=row + 2)
    u1 = np.zeros((1, 1))
    ub = np.zeros((row + 2, 1))
    for _ in range(n):
        lone.step(u1)
        batch.step(ub)
    assert lone.s[0] == batch.s[row]


def test_batch_row_equals_single_path_with_state_dependent_rates_and_compaction():
    # x- and u-dependent rates, jumps on the compared paths, and two
    # retirements: 5 of 8 rows at step 300 leave at most half alive, so the
    # batch compacts mid-block; 1 of the 3 left at step 700 does not, so that
    # row is compacted away at the refill at step CHUNK
    base = np.array([[0.0, 1.0, 0.5], [0.7, 0.0, 0.3], [0.4, 0.6, 0.0]])
    spec = _switching_model(
        GeneratorSpec("state-action-dependent", 3, base=base, gx=0.5, gu=-0.3), sigma=0.3,
    )
    policy = CallablePolicy(lambda t, x, regimes: np.sin(3.0 * x))
    n, dt, seed, m = 1500, 0.01, 17, 8
    retire = {300: {0, 2, 3, 5, 7}, 700: {4}}
    keep = {1, 6}
    eng = BatchStepper(spec, [0.0], 2, dt, seed=seed, first_path_index=0, n_paths=m)
    xs = {p: [0.0] for p in keep}
    ss = {p: [2] for p in keep}
    masks = {}
    for k in range(n):
        if k in retire:
            eng.mark_dead(np.isin(eng.original_index, sorted(retire[k])))
        alive = eng.alive.copy()
        kept = eng.step(eng.actions(policy))
        if kept is not None:
            assert np.array_equal(kept, alive)
            masks[k] = kept.sum(), kept.size
        for p in keep:
            row = int(np.flatnonzero(eng.original_index == p)[0])
            xs[p].append(eng.x[row, 0])
            ss[p].append(eng.s[row] + 1)
    assert masks == {300: (3, 8), CHUNK: (2, 3)}
    assert eng.x.shape[0] == len(keep)
    for p in keep:
        single = simulate_path(spec, policy, [0.0], 2, n * dt, dt, make_rng_stream(seed, p))
        assert len(single.jumps) > 0
        assert np.array_equal(single.states[:, 0], xs[p])
        assert np.array_equal(single.regimes, ss[p])


@pytest.mark.parametrize("kind", ["constant", "state-action-dependent"])
def test_zero_outflow_regime_never_jumps(kind):
    # regime 2 has no outflow; regime 1 drains into it
    if kind == "constant":
        gen = GeneratorSpec("constant", 2, rates=np.array([[-3.0, 3.0], [0.0, 0.0]]))
    else:
        gen = GeneratorSpec("state-action-dependent", 2,
                            base=np.array([[0.0, 3.0], [0.0, 0.0]]), gx=0.5)
    spec = _switching_model(gen, sigma=0.5)
    n_paths, n, dt = 500, 400, 0.02
    eng = BatchStepper(spec, [0.0], np.array([1, 2] * (n_paths // 2)), dt, seed=4,
                       n_paths=n_paths)
    # even the highest clock, W = 1, stays unfired without outflow
    eng._due[1::2] = _wait(np.ones(n_paths // 2), eng._stay[eng.s[1::2]])
    u = np.zeros((n_paths, 1))
    arrived = eng.s == 1
    for _ in range(n):
        eng.step(u)
        assert np.all(eng.s[arrived] == 1)
        arrived |= eng.s == 1
    assert arrived[0::2].sum() > 0.9 * (n_paths // 2)


def test_exhausted_jump_supply_keeps_batch_invariance_and_law():
    # one ring's uniforms per block, so nearly every jump of this fast chain
    # (p = 1/8 at its dt bound) draws its pair straight from the path stream;
    # thinned, the candidates come at the bound rate 5 * 1.8, p = 1/8 again
    constant = chain_model(sigma=0.3, m12=5.0, m21=5.0)
    thinned = dataclasses.replace(constant, generator=GeneratorSpec(
        "state-action-dependent", 2, base=np.array([[0.0, 5.0], [5.0, 0.0]]), gx=0.5, gu=-0.3))
    n, seed, m = 1100, 21, 64
    u = np.full((m, 1), 0.5)
    for spec, dt in ((constant, 0.025), (thinned, 1.0 / 72.0)):

        def stepper(first, count):
            eng = BatchStepper(spec, [0.0], 1, dt, seed=seed, first_path_index=first, n_paths=count)
            eng._n_jump_u = 2
            return eng

        # every row of the whole batch against the two halves, bit for bit; the
        # supply is read at the buffer's own row width, wider than _n_jump_u here
        eng = stepper(0, m)
        halves = (stepper(0, m // 2), stepper(m // 2, m // 2))
        jumps, p_sum, var, gen = 0, 0.0, 0.0, spec.generator
        for _ in range(n):
            g = 1.0 + gen.gx * np.tanh(eng.x[:, 0]) + gen.gu * np.tanh(u[:, 0])
            p_jump = 5.0 * g * dt
            p_sum, var = p_sum + p_jump.sum(), var + (p_jump * (1.0 - p_jump)).sum()
            before = eng.s.copy()
            eng.step(u)
            jumps += int(np.count_nonzero(eng.s != before))
            for half in halves:
                half.step(u[: m // 2])
            assert np.array_equal(eng.x, np.concatenate([h.x for h in halves]))
            assert np.array_equal(eng.s, np.concatenate([h.s for h in halves]))
        assert abs(jumps - p_sum) <= 4.0 * np.sqrt(var)


@pytest.mark.parametrize("dt, n_jump_u", [(0.01, None), (0.025, 2)])
def test_state_dependent_rates_with_gx_gu_zero_run_the_constant_schedule(dt, n_jump_u):
    # gx = gu = 0 gives the state-dependent family the constant one's rates,
    # clocks and supply, and no thinning: g_max = 1, so it runs the constant
    # schedule; 40 of 64 rows retire at step 500, so both compact mid-block
    off = np.array([[0.0, 1.2, 0.8], [1.5, 0.0, 0.5], [0.6, 0.9, 0.0]])
    gens = (GeneratorSpec("constant", 3, rates=off - np.diag(off.sum(axis=1))),
            GeneratorSpec("state-action-dependent", 3, base=off, gx=0.0, gu=0.0))
    policy = CallablePolicy(lambda t, x, regimes: np.sin(3.0 * x))
    m, n = 64, 3 * CHUNK + 17
    engs = [BatchStepper(_switching_model(g, sigma=0.3), [0.0], np.arange(m) % 3 + 1, dt,
                         seed=31, n_paths=m) for g in gens]
    assert engs[0]._n_jump_u == engs[1]._n_jump_u
    if n_jump_u is not None:
        for eng in engs:
            eng._n_jump_u = n_jump_u
    retire = {500: np.arange(m) % 8 < 5, 2100: np.arange(m) % 8 == 5}
    jumps = 0
    for k in range(n):
        before = engs[0].s.copy()
        for eng in engs:
            if k in retire:
                eng.mark_dead(retire[k][eng.original_index])
            eng.step(eng.actions(policy))
        assert np.array_equal(engs[0].x, engs[1].x)
        assert np.array_equal(engs[0].s, engs[1].s)
        assert np.array_equal(engs[0].original_index, engs[1].original_index)
        if engs[0].s.size == before.size:
            jumps += int(np.count_nonzero(engs[0].s != before))
    assert engs[0].x.shape[0] == 16
    assert jumps > 1000


@pytest.mark.parametrize("kind", ["constant", "thinned"])
def test_scheduled_events_index_as_intp(kind):
    # the rows, and a constant generator's destinations, index the stepper's
    # arrays with no conversion, after a refill and after a mid-block compaction
    base = np.array([[0.0, 6.0], [4.0, 0.0]])
    if kind == "constant":
        gen = GeneratorSpec("constant", 2, rates=base - np.diag(base.sum(axis=1)))
    else:
        gen = GeneratorSpec("state-action-dependent", 2, base=base, gx=0.5, gu=0.3)
    m = 64
    eng = BatchStepper(_switching_model(gen), [0.0], 1, 0.01, seed=3, n_paths=m)
    u = np.full((m, 1), 0.5)
    eng.step(u)
    events = [(eng._ev_rows, eng._ev_dest)]
    eng.mark_dead(np.arange(m) % 3 > 0)
    assert eng.step(u) is not None and eng._pos == 2  # compacted mid-block
    events.append((eng._ev_rows, eng._ev_dest))
    assert eng._ev_rows.size > 0
    for rows, dest in events:
        assert rows.dtype == np.intp
        assert dest.dtype == (np.intp if kind == "constant" else np.float64)


@pytest.mark.parametrize("p", [1 / 4, 1 / 20, 1 / 250, 3e-5])
def test_waits_equal_the_survival_product(p):
    # the oracle: a clock W waits the count of n >= 1 whose survival product
    # (1 - p)^n, multiplied out step by step, is still at least W; the
    # product ends below 2**-53, the smallest clock, so every W rings on it
    w = np.concatenate([1.0 - np.random.default_rng(17).random(20_000), [1.0, 2.0**-53]])
    survival = np.cumprod(np.full(math.ceil(40.0 / p), 1.0 - p))
    assert survival[-1] < 2.0**-53
    wait = _wait(w, np.full(w.size, 1.0 - p))
    assert np.array_equal(wait, np.searchsorted(-survival, -w, side="right"))
    # W = 1 rings at once; W = 2**-53 at the first product below it
    assert wait[-2] == 0 and survival[wait[-1]] < 2.0**-53 <= survival[wait[-1] - 1]
    # a clock with no outflow never rings, however high W is
    assert np.all(_wait(w, np.ones(w.size)) == NEVER)


def test_stepper_first_rings_are_the_survival_waits_of_its_first_clocks():
    # regime 1 has p = 5 dt = 1/20, regime 2 no outflow; each row's first
    # ring is due at the wait of the first uniform of its stream
    off = np.array([[0.0, 5.0], [0.0, 0.0]])
    spec = _switching_model(GeneratorSpec("constant", 2, rates=off - np.diag(off.sum(axis=1))))
    m, seed = 400, 12
    eng = BatchStepper(spec, [0.0], np.arange(m) % 2 + 1, 0.01, seed=seed, n_paths=m)
    w = np.array([1.0 - make_rng_stream(seed, p).generator().random() for p in range(m)])
    survival = np.cumprod(np.full(2000, 1.0 - 5.0 * 0.01))
    assert np.array_equal(eng._due[0::2], np.searchsorted(-survival, -w[0::2], side="right"))
    assert np.all(eng._due[1::2] == NEVER)


def test_slow_clock_memory_does_not_grow_with_the_step_count():
    # a clock of p = 1e-7 per step, so every path waits through the whole
    # run: its jump state is one integer, and the traced peak of a run 16
    # times longer may exceed the shorter run's by 64 KiB at most
    spec = chain_model(0.0, m12=1e-4, m21=2e-4)
    u = np.zeros((16, 1))
    peaks = []
    for n in (4 * CHUNK, 64 * CHUNK):
        eng = BatchStepper(spec, [0.0], 1, 0.001, seed=5, n_paths=16)
        tracemalloc.start()
        try:
            for _ in range(n):
                eng.step(u)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


COLUMN_B0 = np.array([[0.4], [-0.7], [0.1]])
COLUMN_SIGMA = np.array([0.3, 0.8, 0.5])
COLUMN_COST = np.array([1.0, 2.5, 0.25])


def _column_model(kind):
    """Three regimes with a nonzero constant drift, a regime-dependent
    constant sigma and a regime cost, under a constant or a state-action
    dependent generator of the same base rates."""
    off = np.array([[0.0, 1.2, 0.8], [1.5, 0.0, 0.5], [0.6, 0.9, 0.0]])
    if kind == "constant":
        gen = GeneratorSpec("constant", 3, rates=off - np.diag(off.sum(axis=1)))
    else:
        gen = GeneratorSpec("state-action-dependent", 3, base=off, gx=0.5, gu=-0.3)
    spec = _with_drift(_switching_model(gen), COLUMN_B0)
    return dataclasses.replace(
        spec,
        diffusion=DiffusionFamily("constant", 1, 3, c0=COLUMN_SIGMA[:, None, None]),
        costs=dataclasses.replace(spec.costs, running=RunningCost("regime", 3, 1, 1, values=COLUMN_COST)),
    )


def _scheduled_jumps(eng, u):
    """The rows that jump at the stepper's next step and their regimes,
    restated from its schedule: the living rows scheduled at the step, and
    under a state-dependent generator each such candidate with pick v
    jumps, one row at a time, to the first j whose cumulative base outflow
    exceeds v rbar / g, g from the pre-step state and action of every row,
    rbar = max_i out_i (1 + |gx| + |gu|)."""
    pos, s, alive = eng._pos, eng.s, eng.alive
    rows, dest = (a[eng._ev_at[pos] : eng._ev_at[pos + 1]] for a in (eng._ev_rows, eng._ev_dest))
    rows, dest = rows[alive[rows]], dest[alive[rows]]
    gen = eng.spec.generator
    if gen.gx == gen.gu == 0.0:  # constant rates: the schedule holds destinations
        return rows, dest
    g = 1.0 + gen.gx * np.tanh(eng.x.mean(axis=1)) + gen.gu * np.tanh(u.mean(axis=1))
    rbar = gen.base.sum(axis=1).max() * (1.0 + abs(gen.gx) + abs(gen.gu))
    moves = []
    for r, v in zip(rows, dest):
        above = np.flatnonzero(np.cumsum(gen.base[s[r]]) > v * rbar / g[r])
        if above.size:
            moves.append((r, above[0]))
    return tuple(np.array([mv[k] for mv in moves], dtype=np.int64) for k in (0, 1))


def _gather_step(eng, u):
    """BatchStepper.step restated by the per-step gather rule, for a scalar
    model with a constant drift and diffusion: b0 dt and sigma sqrt(dt) are
    gathered by s at every step, retired rows are held by a masked add, and
    a jump, restated by _scheduled_jumps, writes s alone."""
    keep = None
    refill = eng._pos >= CHUNK
    if refill or (not eng._all_alive and 2 * eng._n_alive <= eng.x.shape[0]):
        if not eng._all_alive:
            keep = eng._compact()
            u = u[keep]
        if refill:
            eng._refill()
    pos, s, alive = eng._pos, eng.s, eng.alive
    rows, dest = _scheduled_jumps(eng, u)
    b0_dt = COLUMN_B0[:, 0] * eng.dt
    sig_sdt = COLUMN_SIGMA * np.sqrt(eng.dt)
    xf = eng.x[:, 0]
    np.add(xf, b0_dt[s] + sig_sdt[s] * eng._normals[pos], out=xf, where=alive)
    s[rows] = dest
    eng._pos = pos + 1
    eng.t += eng.dt
    return keep


@pytest.mark.parametrize("kind", ["constant", "state-action-dependent"])
def test_columns_equal_the_per_step_gather_rule(kind):
    # three blocks and more; 40 of 64 rows retire at step 500, so the batch
    # compacts mid-block, and 8 of the 24 left at step 2100, compacted away
    # at the refill at step 3 * CHUNK
    spec = _column_model(kind)
    policy = CallablePolicy(lambda t, x, regimes: np.sin(3.0 * x))
    m, n, dt = 64, 3 * CHUNK + 17, 0.01
    eng, ref = (BatchStepper(spec, [0.0], np.arange(m) % 3 + 1, dt, seed=37, n_paths=m) for _ in range(2))
    retire = {500: np.arange(m) % 8 < 5, 2100: np.arange(m) % 8 == 5}
    acc, acc_ref = np.zeros(m), np.zeros(m)
    compacted, jumps = [], 0
    for k in range(n):
        if k in retire:
            eng.mark_dead(retire[k][eng.original_index])
            ref.mark_dead(retire[k][ref.original_index])
        before = eng.s.copy()
        u = eng.actions(policy)
        acc += dt * eng.running_cost(u)
        keep = eng.step(u)
        u_ref = ref.actions(policy)
        acc_ref += dt * COLUMN_COST[ref.s]
        assert np.array_equal(_gather_step(ref, u_ref), keep)
        if keep is not None:
            compacted.append(k)
            acc, acc_ref, before = acc[keep], acc_ref[keep], before[keep]
        jumps += int(np.count_nonzero(eng.s != before))
        assert np.array_equal(eng.x.view(np.int64), ref.x.view(np.int64))
        assert np.array_equal(eng.s, ref.s)
        assert np.array_equal(acc.view(np.int64), acc_ref.view(np.int64))
    assert compacted == [500, 3 * CHUNK]
    assert eng.x.shape[0] == 16 and jumps > 1000


@pytest.mark.parametrize("kind", ["constant", "state-action-dependent"])
def test_columns_are_rewritten_only_where_the_regime_changes(kind):
    # the one jump helper's rewritten rows, counted over the run, are the
    # regime changes of living rows seen step over step, and every living
    # row's column is its table's entry at its regime
    spec = _column_model(kind)
    m, dt = 48, 0.01
    eng = BatchStepper(spec, [0.0], np.arange(m) % 3 + 1, dt, seed=5, n_paths=m)
    assert sorted(eng._cols) == ["cost", "drift", "noise"]
    written = []
    helper = eng._set_regimes
    eng._set_regimes = lambda rows, dest: (written.append(len(rows)), helper(rows, dest))
    policy = CallablePolicy(lambda t, x, regimes: np.cos(2.0 * x))
    changes = 0
    for k in range(2 * CHUNK + 100):
        if k == 300:
            eng.mark_dead(np.arange(eng.s.size) % 2 == 0)
        before = eng.s.copy()
        keep = eng.step(eng.actions(policy))
        if keep is not None:
            before = before[keep]
        changes += int(np.count_nonzero((eng.s != before) & eng.alive))
        alive = eng.alive
        for name, col in eng._cols.items():
            assert np.array_equal(col[alive], eng._col_tabs[name][eng.s[alive]])
    assert sum(written) == changes > 500


def test_mark_dead_takes_only_a_boolean_mask_of_the_current_rows(make_chain):
    eng = BatchStepper(make_chain(), [0.0], 1, 0.01, seed=0, n_paths=4)
    for bad in (np.array([1, 2]), np.zeros(3, dtype=bool), [True, False, False, True],
                np.zeros((4, 1), dtype=bool)):
        with pytest.raises(ShapeError, match="boolean mask of shape"):
            eng.mark_dead(bad)
    assert eng.n_alive == 4
    eng.mark_dead(np.array([True, False, False, True]))
    assert eng.n_alive == 2


def test_thinned_candidates_read_the_mean_state_and_action_in_two_dimensions():
    # d = 2 with two action components, so g reads the mean of each
    n = 3
    base = np.array([[0.0, 1.2, 0.8], [1.5, 0.0, 0.5], [0.6, 0.9, 0.0]])
    spec = _switching_model(GeneratorSpec("state-action-dependent", n, base=base, gx=0.5, gu=-0.3))
    spec = dataclasses.replace(
        spec,
        dim=2,
        actions=ActionGrid(np.array([[-1.0, -1.0], [1.0, 1.0]])),
        drift=DriftFamily("constant", 2, n, 2, b0=np.zeros((n, 2))),
        diffusion=DiffusionFamily("constant", 2, n, c0=np.tile(np.array([[0.8, 0.2], [0.0, 0.6]]), (n, 1, 1))),
        costs=dataclasses.replace(spec.costs, running=RunningCost("constant", n, 2, 2, value=1.0),
                                  terminal=TerminalCost("zero", n, 2)),
    )
    policy = CallablePolicy(lambda t, x, regimes: np.tanh(np.stack([x[:, 0] - x[:, 1], 2.0 * x[:, 1]], axis=1)))
    m = 64
    eng = BatchStepper(spec, [0.1, -0.2], np.arange(m) % n + 1, 0.02, seed=3, n_paths=m)
    eng.step(eng.actions(policy))  # the first step schedules the block
    jumps = 0
    for _ in range(CHUNK - 1):
        u = eng.actions(policy)
        rows, dest = _scheduled_jumps(eng, u)
        want = eng.s.copy()
        want[rows] = dest
        eng.step(u)
        assert np.array_equal(eng.s, want)
        jumps += rows.size
    assert jumps > 1000


def _worker_runs():
    """Stepper runs whose paths the worker count must not change, as
    (spec, m, dt, rows retired by step, forced jump-supply width)."""
    off = np.array([[0.0, 1.2, 0.8], [1.5, 0.0, 0.5], [0.6, 0.9, 0.0]])
    three = _switching_model(GeneratorSpec("constant", 3, rates=off - np.diag(off.sum(axis=1))),
                             sigma=0.3)
    wide = DiffusionFamily("constant", 1, 2, c0=np.array([[[0.3, 0.2]], [[0.1, 0.5]]]))
    wd2 = dataclasses.replace(
        _switching_model(GeneratorSpec("state-action-dependent", 2,
                                       base=np.array([[0.0, 1.0], [2.0, 0.0]]), gx=0.3, gu=0.1)),
        diffusion=wide,
    )
    return {
        "ragged": (three, 200, 0.01, {}, None),
        "mid-block": (three, 320, 0.01, {300: np.arange(320) % 5 < 3}, None),
        "exhausted-supply": (chain_model(sigma=0.3, m12=5.0, m21=5.0), 192, 0.025, {}, 2),
        "wd=2": (wd2, 150, 0.01, {}, None),
    }


@pytest.mark.parametrize("run", sorted(_worker_runs()))
def test_paths_do_not_depend_on_the_worker_count(monkeypatch, run):
    spec, m, dt, retire, n_jump_u = _worker_runs()[run]
    policy = CallablePolicy(lambda t, x, regimes: np.sin(3.0 * x))
    traces = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        eng = BatchStepper(spec, [0.0], np.arange(m) % spec.regimes.count + 1, dt, seed=13,
                           n_paths=m)
        if n_jump_u is not None:
            eng._n_jump_u = n_jump_u
        trace = []
        for k in range(CHUNK + 40):
            if k in retire:
                eng.mark_dead(retire[k][eng.original_index])
            eng.step(eng.actions(policy))
            trace.append((eng.x.copy(), eng.s.copy(), eng.original_index.copy()))
        traces.append(trace)
    for trace in traces[1:]:
        for got, want in zip(trace, traces[0], strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    if retire:
        assert traces[0][-1][0].shape[0] < m


def test_draws_hold_with_more_workers_than_cores_and_fast_switching(monkeypatch):
    # 9 tiles on 8 workers, with the interpreter switching threads every
    # microsecond: each block's normals and uniforms equal the serial ones
    spec, m = chain_model(sigma=0.3, m12=5.0, m21=5.0), 9 * 64 - 3
    blocks = []
    for workers in (1, 8):
        monkeypatch.setattr(simulate, "WORKERS", workers)
        eng = BatchStepper(spec, [0.0], 1, 0.025, seed=5, n_paths=m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                eng._refill()
                blocks.append((eng._normals.copy(), eng._jump_u.copy()))
        finally:
            sys.setswitchinterval(interval)
    for (za, ua), (zb, ub) in zip(blocks[:3], blocks[3:]):
        assert np.array_equal(za, zb) and np.array_equal(ua, ub)


class _Counted(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_a_worker_exception_reaches_the_caller_after_the_join(monkeypatch):
    # 4 tiles on 2 workers: path 150 is drawn by the second worker
    monkeypatch.setattr(simulate, "WORKERS", 2)
    before, threads = threading.active_count(), []

    class Broken:
        def standard_normal(self, out):
            threads.append(threading.current_thread())
            raise RuntimeError("no draw")

    eng = BatchStepper(chain_model(), [0.0], 1, 0.01, seed=3, n_paths=256)
    eng._gens[150] = Broken()
    with pytest.raises(RuntimeError, match="no draw"):
        eng.step(np.zeros((256, 1)))
    assert threads and threads[0] is not threading.main_thread()
    assert threading.active_count() == before


def test_no_thread_outlives_a_run(monkeypatch):
    monkeypatch.setattr(simulate, "WORKERS", 3)
    monkeypatch.setattr(threading, "Thread", _Counted)
    _Counted.started = 0
    before = threading.active_count()
    # 2,996 steps, so 3 refills of 300 paths: 5 tiles on 3 workers
    mc_discounted(chain_model(), ZERO, [0.0], 1, 1.0, 0.001, 300, 5, eps_tail=0.1)
    assert _Counted.started == 2 * 3
    assert threading.active_count() == before


def test_first_jump_step_is_geometric():
    # P(first jump at step k) = (1 - p)^(k - 1) p with p = outflow * dt
    gen = GeneratorSpec("constant", 2, rates=np.array([[-2.0, 2.0], [0.0, 0.0]]))
    spec = _switching_model(gen)
    n_paths, dt = 20_000, 0.05
    p = 2.0 * dt
    eng = BatchStepper(spec, [0.0], 1, dt, seed=8, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    first = np.zeros(n_paths, dtype=np.int64)
    for k in range(1, 401):
        eng.step(u)
        first[(first == 0) & (eng.s == 1)] = k
    assert np.all(first > 0)
    mean = first.mean()
    se = np.sqrt((1.0 - p) / p**2 / n_paths)
    assert abs(mean - 1.0 / p) <= 4.0 * se


@pytest.mark.parametrize("kind", ["constant", "state-action-dependent"])
def test_destinations_are_proportional_to_rates(kind):
    # out of regime 1 only; rates 1 : 0 : 3 to regimes 2, 3, 4, all absorbing
    row = np.array([0.0, 1.0, 0.0, 3.0])
    off = np.zeros((4, 4))
    off[0] = row
    if kind == "constant":
        gen = GeneratorSpec("constant", 4, rates=off - np.diag(off.sum(axis=1)))
    else:
        gen = GeneratorSpec("state-action-dependent", 4, base=off, gx=0.4, gu=0.4)
    spec = _switching_model(gen, sigma=0.5)
    n_paths, n, dt = 4000, 200, 0.008
    eng = BatchStepper(spec, [0.0], 1, dt, seed=12, n_paths=n_paths)
    policy = CallablePolicy(lambda t, x, regimes: np.tanh(x))
    for _ in range(n):
        eng.step(policy.actions_at(eng.t, eng.x, eng.s))
    counts = np.bincount(eng.s, minlength=4)[1:]
    total = counts.sum()
    assert total > 0.9 * n_paths
    assert counts[1] == 0
    for j, share in ((0, 0.25), (2, 0.75)):
        se = np.sqrt(share * (1.0 - share) / total)
        assert abs(counts[j] / total - share) <= 4.0 * se


def test_thinned_jumps_follow_the_state_dependent_law():
    # under the exact per-step law a step of a path in regime i jumps with
    # probability p = out_i g dt, g at the pre-step state and action, to j
    # with probability base_ij / out_i given a jump; per (regime, tanh x
    # bin) cell, count minus the sum of p is a martingale, so with 12
    # cells the bound is 4.5 standard deviations; the seed is fixed
    base = np.array([[0.0, 1.2, 0.8], [1.5, 0.0, 0.5], [0.6, 0.9, 0.0]])
    gen = GeneratorSpec("state-action-dependent", 3, base=base, gx=0.5, gu=-0.3)
    spec = _switching_model(gen, sigma=0.8)
    policy = CallablePolicy(lambda t, x, regimes: np.tanh(2.0 * x))
    m, n, dt = 2000, 3000, 0.02
    out = base.sum(axis=1)
    eng = BatchStepper(spec, [0.0], np.arange(m) % 3 + 1, dt, seed=41, n_paths=m)
    assert eng._thin
    count, p_sum, var, moves = np.zeros(12), np.zeros(12), np.zeros(12), np.zeros((3, 3))
    for _ in range(n):
        u = eng.actions(policy)
        s, tx = eng.s.copy(), np.tanh(eng.x[:, 0])
        p = out[s] * (1.0 + gen.gx * tx + gen.gu * np.tanh(u[:, 0])) * dt
        cell = 4 * s + np.minimum(((tx + 1.0) * 2.0).astype(np.int64), 3)
        p_sum += np.bincount(cell, weights=p, minlength=12)
        var += np.bincount(cell, weights=p * (1.0 - p), minlength=12)
        eng.step(u)
        jumped = eng.s != s
        count += np.bincount(cell[jumped], minlength=12)
        np.add.at(moves, (s[jumped], eng.s[jumped]), 1.0)
    assert np.all(var > 100.0)  # every cell is visited
    assert np.max(np.abs(count - p_sum) / np.sqrt(var)) <= 4.5
    for i in range(3):
        share, total = base[i] / out[i], moves[i].sum()
        se = np.sqrt(share * (1.0 - share) / total)
        assert np.all(np.abs(moves[i] / total - share) <= 4.5 * se + 1e-12)


def test_next_clock_is_independent_of_the_destination():
    # regime 1 feeds 2 and 3 at equal rates and both return at one rate, so
    # the two sojourns have one law whatever uniform picked the destination
    off = np.array([[0.0, 2.0, 2.0], [1.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    gen = GeneratorSpec("constant", 3, rates=off - np.diag(off.sum(axis=1)))
    spec = _switching_model(gen)
    n_paths, n, dt = 2000, 2000, 0.01
    eng = BatchStepper(spec, [0.0], 1, dt, seed=23, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    occupied = np.zeros(3)
    for _ in range(n):
        eng.step(u)
        occupied += np.bincount(eng.s, minlength=3)
    assert abs(occupied[1] / occupied[2] - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# law checks


def test_brownian_variance_matches_horizon(make_bm):
    spec = make_bm(sigma=1.0)
    n_paths, n, dt = 4000, 100, 0.01
    eng = BatchStepper(spec, [0.0], 1, dt, seed=5, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    for _ in range(n):
        eng.step(u)
    eng.check_finite()
    var = float(np.var(eng.x[:, 0], ddof=1))
    se = np.sqrt(2.0 / n_paths)  # var of the sample variance of N(0, 1)
    assert abs(var - 1.0) <= 3.0 * se


def test_symmetric_chain_occupation_is_half(make_chain):
    spec = make_chain(sigma=0.0, m12=1.0, m21=1.0)
    n_paths, n, dt = 200, 2000, 0.05
    eng = BatchStepper(spec, [0.0], 1, dt, seed=9, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    in_one = 0
    for _ in range(n):
        in_one += int(np.count_nonzero(eng.s == 0))
        eng.step(u)
    frac = in_one / (n_paths * n)
    assert abs(frac - 0.5) <= 0.02


def test_jump_count_matches_rate(make_chain):
    # symmetric unit-rate chain: jumps per step are Bernoulli(rate * dt)
    spec = make_chain(sigma=0.0, m12=1.0, m21=1.0)
    n_paths, n, dt = 400, 500, 0.01
    eng = BatchStepper(spec, [0.0], 1, dt, seed=13, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    jumps = 0
    for _ in range(n):
        before = eng.s.copy()
        eng.step(u)
        jumps += int(np.count_nonzero(eng.s != before))
    mean = jumps / n_paths
    expect = n * dt  # 5 jumps per path
    se = np.sqrt(expect * (1.0 - dt) / n_paths)
    assert abs(mean - expect) <= 4.0 * se


def test_jump_destinations_follow_rate_ratios():
    # three regimes, jump out of regime 1 lands on 2 vs 3 at ratio 3:1
    rates = np.array([[-4.0, 3.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    spec = _switching_model(GeneratorSpec("constant", 3, rates=rates))
    n_paths, n, dt = 3000, 40, 0.00625
    eng = BatchStepper(spec, [0.0], 1, dt, seed=2, n_paths=n_paths)
    u = np.zeros((n_paths, 1))
    for _ in range(n):
        eng.step(u)
    landed = eng.s[eng.s > 0]
    counts = np.bincount(landed, minlength=3)[1:]
    frac_two = counts[0] / counts.sum()
    se = np.sqrt(0.75 * 0.25 / counts.sum())
    assert abs(frac_two - 0.75) <= 4.0 * se


# ---------------------------------------------------------------------------
# preconditions, clamping, failure detection


def test_step_size_precondition(make_chain):
    spec = make_chain()  # N = 2, bound M = 2 -> dt <= 0.0625
    with pytest.raises(StepError):
        BatchStepper(spec, [0.0], 1, 0.1, seed=0)
    BatchStepper(spec, [0.0], 1, 0.0625, seed=0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_stepper_rejects_a_dt_outside_the_bound(make_chain, make_bm, dt):
    # a NaN dt fails every comparison, so the guard must be written to fail it
    for spec in (make_chain(sigma=0.0), make_bm()):
        with pytest.raises(StepError, match="violates"):
            BatchStepper(spec, [0.0], 1, dt, seed=0)


def test_invalid_start_regime(make_chain):
    with pytest.raises(ShapeError):
        BatchStepper(make_chain(), [0.0], 3, 0.01, seed=0)


@pytest.mark.parametrize("x0", [[0.0, 1.0], np.zeros((4, 1)), []], ids=["too-long", "per-path", "empty"])
def test_stepper_rejects_a_start_state_of_the_wrong_shape(make_chain, x0):
    # one (d,) start state serves every path; a per-path (m, d) array is not taken
    with pytest.raises(ShapeError, match="x0 has shape"):
        BatchStepper(make_chain(), x0, 1, 0.01, seed=0, n_paths=4)


NOT_WHOLE = {
    "stepper-i0": lambda spec: BatchStepper(spec, [0.0], 1.5, 0.01, seed=0),
    "stepper-i0-per-row": lambda spec: BatchStepper(spec, [0.0], np.array([1.0, 1.5, 2.0]), 0.01, seed=0,
                                                    n_paths=3),
    "stepper-seed": lambda spec: BatchStepper(spec, [0.0], 1, 0.01, seed=1.5),
    "stepper-first-path-index": lambda spec: BatchStepper(spec, [0.0], 1, 0.01, seed=0, first_path_index=2.9),
    "stepper-n-paths": lambda spec: BatchStepper(spec, [0.0], 1, 0.01, seed=0, n_paths=2.7),
    "stepper-x0-nan": lambda spec: BatchStepper(spec, [math.nan], 1, 0.01, seed=0),
    "stepper-x0-text": lambda spec: BatchStepper(spec, ["zero"], 1, 0.01, seed=0),
    "mc-i0": lambda spec: mc_discounted(spec, ZERO, [0.0], 1.5, 1.0, 0.01, 4, seed=0),
    "mc-seed": lambda spec: mc_discounted(spec, ZERO, [0.0], 1, 1.0, 0.01, 4, seed=1.5),
    "mc-x0-inf": lambda spec: mc_discounted(spec, ZERO, [math.inf], 1, 1.0, 0.01, 4, seed=0),
    "path-i0": lambda spec: simulate_path(spec, ZERO, [0.0], 2.7, 0.1, 0.01, make_rng_stream(0, 0)),
    "path-stream-seed": lambda spec: simulate_path(spec, ZERO, [0.0], 1, 0.1, 0.01, simulate.RngStream(1.5, 0)),
    "exit-path-i0": lambda spec: simulate_exit_path(spec, ZERO, [0.0], 1.5, (-1.0, 1.0), 0.01, 1.0,
                                                    make_rng_stream(0, 0)),
    "stream-seed": lambda spec: make_rng_stream(1.5, 0),
    "stream-path-index": lambda spec: make_rng_stream(0, 0.5),
}


@pytest.mark.parametrize("case", NOT_WHOLE, ids=list(NOT_WHOLE))
def test_a_start_seed_or_count_that_is_not_whole_or_finite_is_a_shape_error(make_chain, case):
    # each was once truncated to an int, or for x0 failed as E_NAN after stepping
    with pytest.raises(ShapeError) as err:
        NOT_WHOLE[case](make_chain())
    assert err.value.code == "E_SHAPE"


def test_whole_floats_are_taken_as_their_ints(make_chain):
    runs = [BatchStepper(make_chain(), [0.0], i0, 0.01, seed=seed, first_path_index=first, n_paths=m)
            for i0, seed, first, m in ((np.array([2, 1, 2]), 5, 3, 3), (np.array([2.0, 1.0, 2.0]), 5.0, 3.0, 3.0))]
    for _ in range(CHUNK + 1):
        for eng in runs:
            eng.step(np.zeros((3, 1)))
    assert np.array_equal(runs[0].x, runs[1].x) and np.array_equal(runs[0].s, runs[1].s)
    assert make_rng_stream(5.0, 3.0) == make_rng_stream(5, 3)
    est = mc_discounted(make_chain(), ZERO, [0.0], 2.0, 1.0, 0.01, 4, seed=0)
    assert type(est.i0) is int and est.i0 == 2


def test_horizon_must_be_step_multiple(make_chain):
    with pytest.raises(StepError):
        simulate_path(make_chain(), ZERO, [0.0], 1, 1.0, 0.03, make_rng_stream(0, 0))


def test_clamped_actions_are_counted(make_chain, saturated):
    spec = make_chain()
    wild = ConstantPolicy(np.array([5.0]))  # outside the zero-only grid
    path = simulate_path(spec, wild, [0.0], 1, 0.5, 0.01, make_rng_stream(1, 0))
    assert path.clamped_steps == 50
    assert np.array_equal(path.actions, np.zeros((50, 1)))
    tame = simulate_path(spec, ZERO, [0.0], 1, 0.5, 0.01, make_rng_stream(1, 0))
    assert tame.clamped_steps == 0
    # an x-dependent policy that leaves saturated_model's action box [-1, 1]
    fn = lambda t, x, regimes: 3.0 * np.sin(2.0 * x) + 0.5 * (regimes[:, None] - 1.5)
    path = simulate_path(saturated, CallablePolicy(fn), [0.2], 1, 2.0, 0.01, make_rng_stream(4, 0))
    raw = np.stack([fn(t, x[None], np.array([i]))[0] for t, x, i in
                    zip(path.times, path.states[:-1], path.regimes[:-1])])
    assert np.array_equal(path.actions, saturated.actions.clamp(raw))
    assert path.clamped_steps == int(np.count_nonzero(np.any(np.abs(raw) > 1.0, axis=1))) > 0


def test_a_policy_that_refills_one_buffer_is_clamped_at_every_step(saturated):
    # the stepper once kept the clamped batch of any policy that handed back
    # the array of its last call, so a refilled buffer got stale actions
    rule = lambda t, x, regimes: 3.0 * np.sin(2.0 * x) + 0.5 * (regimes[:, None] - 1.5)
    buf = np.empty((8, 1))

    def refill(t, x, regimes):
        buf[...] = rule(t, x, regimes)
        return buf

    runs = []
    for policy in (CallablePolicy(rule), CallablePolicy(refill)):
        eng = BatchStepper(saturated, [0.2], 1, 0.01, seed=3, n_paths=8)
        actions = []
        for _ in range(50):
            u = eng.actions(policy)
            actions.append(u.copy())
            eng.step(u)
        runs.append((np.array(actions), eng.x, eng.clamped_steps))
    assert np.array_equal(runs[0][0], runs[1][0]) and np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2] > 0


def test_a_constant_policy_is_looked_up_once_per_row_count(make_bm):
    calls = []

    class Counted(ConstantPolicy):
        def actions_at(self, t, x, s):
            calls.append(x.shape[0])
            return super().actions_at(t, x, s)

    policy = Counted([2.0])  # clamped to the zero-only action box
    eng = BatchStepper(make_bm(), [0.0], 1, 0.01, seed=5, n_paths=8)
    for k in range(6):
        if k == 3:
            eng.mark_dead(np.arange(8) < 5)
        u = eng.actions(policy)
        assert np.array_equal(u, np.zeros((eng.x.shape[0], 1)))
        eng.step(u)
    assert calls == [8, 3]  # the first step after mark_dead compacts to 3 rows
    assert eng.clamped_steps == 3 * 8 + 3 * 3


def test_constant_policy_holds_a_frozen_copy_and_caches_no_view():
    u = np.array([0.5])
    policy = ConstantPolicy(u)
    u[0] = 2.0  # the caller's array stays the caller's
    x, s = np.zeros((3, 1)), np.zeros(3, dtype=np.int64)
    first, second = policy.actions_at(0.0, x, s), policy.actions_at(0.0, x, s)
    assert first is not second and np.array_equal(first, np.full((3, 1), 0.5))
    assert not policy.u.flags.writeable and u.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.u = np.zeros(1)


def test_nonfinite_state_raises(make_bm):
    # drift 1e308 overflows the state to inf within the first unit of time
    spec = _with_drift(bm_model(sigma=0.0), np.full((1, 1), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NanError, match="non-finite"):
        simulate_path(spec, ZERO, [1e308], 1, 1.0, 0.01, make_rng_stream(0, 0))


def test_step_budget_is_enforced(make_bm):
    with pytest.raises(StepError):
        simulate_path(make_bm(), ZERO, [0.0], 1, 1e7, 1e-4, make_rng_stream(0, 0))


@pytest.mark.parametrize("T,dt,match", [
    (1.0, 0.0, "must be positive"), (1.0, -0.01, "must be positive"),
    (1.0, 1.0 / MAX_STEPS / 4.0, "step budget"), (math.inf, 0.01, "step budget"),
    (math.nan, 0.01, "step budget"),
])
def test_paths_check_dt_and_budget_before_stepping(make_bm, T, dt, match):
    with pytest.raises(StepError, match=match):
        simulate_path(make_bm(), ZERO, [0.0], 1, T, dt, make_rng_stream(0, 0))
    if math.isfinite(T):
        with pytest.raises(StepError, match=match):
            simulate_exit_path(make_bm(), ZERO, [0.0], 1, (-1.0, 1.0), dt, T, make_rng_stream(0, 0))


# ---------------------------------------------------------------------------
# exits and serialization


def test_exit_terminates_outside_domain(make_bm):
    spec = make_bm(sigma=1.0)
    path = simulate_exit_path(
        spec, ZERO, [0.9], 1, (-1.0, 1.0), 0.01, 50.0, make_rng_stream(3, 0)
    )
    assert path.termination == "exit"
    assert outside_interval(path.states[-1:].reshape(1, -1), (-1.0, 1.0))[0]
    assert not np.any(outside_interval(path.states[:-1], (-1.0, 1.0)))
    assert path.exit_time == pytest.approx(path.times[-1])


def test_cap_termination(make_bm):
    path = simulate_exit_path(
        make_bm(sigma=0.1), ZERO, [0.0], 1, (-1.0, 1.0), 0.01, 0.05, make_rng_stream(3, 0)
    )
    assert path.termination == "cap"
    assert path.exit_time is None
    assert path.times[-1] == pytest.approx(0.05)


def test_start_outside_domain_exits_immediately(make_bm):
    path = simulate_exit_path(
        make_bm(), ZERO, [1.5], 1, (-1.0, 1.0), 0.01, 1.0, make_rng_stream(0, 0)
    )
    assert path.termination == "exit"
    assert path.times.size == 1
    assert path.actions.shape == (0, 1)


def test_path_csv_has_jump_comments(make_chain, tmp_path):
    spec = make_chain(m12=5.0, m21=5.0)
    path = simulate_path(spec, ZERO, [0.0], 1, 1.0, 0.01, make_rng_stream(21, 0))
    assert len(path.jumps) > 0
    # each jump is stamped with the time node where its new regime first shows
    moved = np.flatnonzero(np.diff(path.regimes))
    assert path.jumps == tuple(
        (path.times[k + 1], path.regimes[k], path.regimes[k + 1]) for k in moved
    )
    out = tmp_path / "path.csv"
    path.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,regime,x_1,u_1"
    jumps = [ln for ln in lines if ln.startswith("#jump,")]
    assert len(jumps) == len(path.jumps)
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(data) == path.times.size
    rows = {tuple(ln.split(",")[:2]) for ln in data}
    assert all((t, j) in rows for _, t, _, j in (ln.split(",") for ln in jumps))


# ---------------------------------------------------------------------------
# grid policies


def _with_actions(values):
    """saturated_model with the given scalar actions (np.arange(n): each reads as its index)."""
    return dataclasses.replace(saturated_model(), actions=ActionGrid(np.asarray(values, dtype=np.float64)[:, None]))


def test_grid_policy_rounds_to_nearest_node_and_clips():
    spec, grid = _with_actions([-1.0, 0.0, 1.0]), Grid1D(-1.0, 1.0, 11)  # dx = 0.2
    table = np.arange(22).reshape(2, 11) % 3
    policy = GridPolicy(spec, grid, table)
    x = np.array([[-0.91], [-0.89], [0.09], [0.11], [0.99], [-7.0], [3.0], [0.11]])
    s = np.array([0, 0, 0, 0, 1, 1, 0, 1])
    nearest = [0, 1, 5, 6, 10, 0, 10, 6]
    assert np.argmin(np.abs(x - grid.nodes), axis=1).tolist() == nearest
    assert np.array_equal(policy.actions_at(0.0, x, s), spec.actions.actions[table[s, nearest]])


# (model, table axes, table): saturated_model has 2 regimes and 2 actions, and
# the planar LQ model 2 regimes on d = 2; every table is for Grid1D(-2, 2, 11),
# and a time table's 10 levels span 1
BAD_TABLES = {
    "flat-table": (saturated_model, 2, np.zeros(11, dtype=np.int64)),
    "one-regime": (saturated_model, 2, np.zeros((1, 11), dtype=np.int64)),
    "narrow-table": (saturated_model, 2, np.zeros((2, 10), dtype=np.int64)),
    "index-past-actions": (saturated_model, 2, np.full((2, 11), 2)),
    "negative-index": (saturated_model, 2, np.tile([0, -1, 1] * 3 + [0, 1], (2, 1))),
    "fraction": (saturated_model, 2, np.full((2, 11), 0.7)),
    "nan-entry": (saturated_model, 2, np.where(np.eye(2, 11) > 0, math.nan, 1.0)),
    "inf-entry": (saturated_model, 2, np.where(np.eye(2, 11) > 0, math.inf, -math.inf)),
    "planar-model": (lambda: lq_model(reference_lq()), 2, np.zeros((2, 11), dtype=np.int64)),
    "time-table-2d": (saturated_model, 3, np.zeros((2, 11), dtype=np.int64)),
    "time-table-no-levels": (saturated_model, 3, np.zeros((0, 2, 11), dtype=np.int64)),
    "time-table-one-regime": (saturated_model, 3, np.zeros((10, 1, 11), dtype=np.int64)),
    "time-table-index": (saturated_model, 3, np.full((10, 2, 11), 2)),
    "time-table-fraction": (saturated_model, 3, np.full((10, 2, 11), 0.7)),
    "time-planar-model": (lambda: lq_model(reference_lq()), 3, np.zeros((10, 2, 11), dtype=np.int64)),
}


@pytest.mark.parametrize("case", BAD_TABLES, ids=list(BAD_TABLES))
def test_policy_tables_and_nodes_are_checked_on_construction(case):
    # one rule for the grid evaluators and the grid policies: each table is
    # E_SHAPE before any step; the policies once failed mid-run as a bare
    # IndexError (one regime), or ran on x_1 alone (d = 2), and a 0.7 entry
    # was evaluated as action 0
    make, ndim, table = BAD_TABLES[case]
    spec, grid = make(), Grid1D(-2.0, 2.0, 11)
    if ndim == 2:
        builds = [lambda: evaluate_policy_value(spec, grid, table), lambda: GridPolicy(spec, grid, table)]
    else:
        builds = [lambda: evaluate_policy_finite_horizon(spec, grid, table, 1.0),
                  lambda: TimeGridPolicy(spec, grid, table, 1.0)]
    messages = set()
    for build in builds:
        with pytest.raises(ShapeError) as err:
            build()
        assert err.value.code == "E_SHAPE"
        messages.add(str(err.value))
    assert len(messages) == 1, messages  # the one rule, one message


def test_policy_tables_take_whole_floats_as_indices():
    spec, grid = saturated_model(), Grid1D(-2.0, 2.0, 11)
    policy = GridPolicy(spec, grid, np.ones((2, 11)))
    assert policy.table.dtype == np.int64 and np.all(policy.table == 1)
    assert np.array_equal(evaluate_policy_value(spec, grid, np.ones((2, 11))).values,
                          evaluate_policy_value(spec, grid, np.ones((2, 11), dtype=np.int64)).values)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_time_grid_policy_needs_a_finite_positive_horizon(horizon):
    with pytest.raises(ShapeError, match="horizon"):
        TimeGridPolicy(saturated_model(), Grid1D(-2.0, 2.0, 11), np.zeros((10, 2, 11), dtype=np.int64), horizon)


@pytest.mark.parametrize("lo,hi,n", [(-2.0, 2.0, 401), (-100.0, 100.0, 200_001), (1e3, 1e3 + 1.0, 1001),
                                     (0.0, 3.7, 10_001)])
def test_linspace_nodes_and_levels_pass_the_table_check(lo, hi, n):
    # long grids, and short ones far from 0, pass the table check; each of the solver's
    # nodes looks up its own entry, and level j of three over hi - lo acts from j dt
    grid, spec = Grid1D(lo, hi, n), _with_actions(np.arange(n))
    x, s, idx = grid.nodes[:, None], np.zeros(n, dtype=np.int64), np.arange(n)
    policy = GridPolicy(spec, grid, np.tile(idx, (2, 1)))
    assert policy.table.dtype == np.int64
    assert np.array_equal(policy.actions_at(0.0, x, s)[:, 0], idx)
    table = np.stack([np.tile((idx + j) % n, (2, 1)) for j in range(3)])
    timed = TimeGridPolicy(spec, grid, table, hi - lo)
    assert timed.dt > 0 and timed.table.dtype == np.int64
    for j in range(3):
        assert np.array_equal(timed.actions_at(j * timed.dt, x, s)[:, 0], (idx + j) % n)


@st.composite
def _grids(draw):
    n = draw(st.integers(11, 1001))
    lo = draw(st.floats(-1e3, 1e3))
    return Grid1D(lo, lo + (n - 1) * draw(st.floats(1e-2, 1.0)), n)


@settings(max_examples=60, deadline=None)
@given(grid=_grids(), at=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=16))
@example(grid=Grid1D(1000.0, 1001.0, 1001), at=[0.0, 0.3337, 0.5, 0.9995, 1.0, -0.01, 1.2])
@example(grid=Grid1D(-2.0, 2.0, 11), at=[0.0, 0.2, 0.26, 0.74, 1.0, -0.3, 1.4])
def test_grid_policy_looks_up_the_solver_nodes(grid, at):
    # the node of x is argmin |x - grid.nodes| over the solver's own nodes,
    # inside the interval and out; x within 1e-9 dx of a midpoint is left out
    nodes = grid.nodes
    x = (grid.x_min + np.array(at) * (grid.x_max - grid.x_min))[:, None]
    dist = np.sort(np.abs(x - nodes), axis=1)
    x = x[dist[:, 1] - dist[:, 0] >= 2e-9 * grid.dx]
    table = np.tile(np.arange(grid.n_x), (2, 1))
    policy = GridPolicy(_with_actions(np.arange(grid.n_x)), grid, table)
    node = policy.actions_at(0.0, x, np.zeros(x.shape[0], dtype=np.int64))[:, 0]
    assert node.tolist() == np.argmin(np.abs(x - nodes), axis=1).tolist()


@settings(max_examples=60, deadline=None)
@given(horizon=st.floats(0.01, 100.0), n_t=st.integers(2, 400), data=st.data())
def test_time_grid_policy_levels_are_the_solver_steps(horizon, n_t, data):
    # level j acts from t = j T / n_t, the finite-horizon solver's step, and
    # 1e-10 of a step early counts as on it while 1e-6 of a step does not
    j = data.draw(st.integers(1, n_t - 1))
    table = np.broadcast_to(np.arange(n_t)[:, None, None], (n_t, 2, 11))
    policy = TimeGridPolicy(_with_actions(np.arange(n_t)), Grid1D(-2.0, 2.0, 11), table, horizon)
    x, s = np.zeros((1, 1)), np.zeros(1, dtype=np.int64)
    level = lambda t: int(policy.actions_at(t, x, s)[0, 0])
    t_j, dt = j * horizon / n_t, horizon / n_t
    assert (level(t_j), level(t_j - 1e-10 * dt), level(t_j - 1e-6 * dt)) == (j, j, j - 1)


def test_time_grid_policy_floors_time_to_a_level():
    spec, grid = _with_actions([-1.0, 0.0, 1.0]), Grid1D(-1.0, 1.0, 11)  # dx = 0.2
    x = np.array([[-0.4], [0.6], [9.0]])  # nodes 3, 8, and 10 after clipping
    table = np.zeros((4, 2, 11), dtype=np.int64)
    table[:, 0, [3, 8, 10]] = [[0, 0, 0], [1, 1, 1], [2, 2, 2], [1, 0, 0]]
    policy = TimeGridPolicy(spec, grid, table, 1.0)  # levels at 0, 0.25, 0.5 and 0.75
    s = np.zeros(3, dtype=np.int64)
    u = lambda t: policy.actions_at(t, x, s)[:, 0].tolist()
    assert u(0.5) == [1.0, 1.0, 1.0]  # exactly on level 2
    assert u(0.5 - 1e-10) == [1.0, 1.0, 1.0]  # 1e-10 below level 2 counts as on it
    assert u(0.5 - 1e-6) == [0.0, 0.0, 0.0]  # still on level 1
    assert u(0.3) == [0.0, 0.0, 0.0]
    assert u(0.76) == [0.0, -1.0, -1.0]  # last level
    assert u(40.0) == [0.0, -1.0, -1.0]  # past the last level
    assert u(-1.0) == [-1.0, -1.0, -1.0]  # before the first level
