"""Sample-time work in batches against the per-sample loops it replaced.

`tests/oracles.py` keeps the loops: every observable called once per sample
time, every remainder energy recomputed from `v_states()`, one Hoelder norm per
propagated state in the decay-weighted norm.  The batched forms perform the
same floating-point operations per row, so results are compared with
np.array_equal and ==, never with a tolerance.  `evolve_ensemble`'s row
chunks and draw blocks are held to the per-worker budget, and compared with
the fixed 1024-row, 128-step chunking they replaced the same way.  Tests set
the chunk and block sizes through the caps `flow.MAX_ROW_CHUNK` and
`flow.MAX_TIME_BLOCK`, or the budgets `flow.CHUNK_ITEMS` and
`flow.BATCH_ITEMS`.  The invariance ensemble's initial states are redrawn
chunk by chunk (`gibbs.MuDraws`) with the bits of the one full draw.
"""

import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from gibbsdyn import flow, linear_dynamics, rng, spectral
from gibbsdyn.flow import ENERGY_CEILING, FlowConfig, energy_monitor, evolve, evolve_ensemble
from gibbsdyn.gibbs import GibbsConfig, MuDraws, interaction_states, sample_mu_states
from gibbsdyn.harness import ExperimentConfig, FinalChecks, MemberStreams, invariance_experiment
from gibbsdyn.linear_dynamics import propagator, xalpha_norm
from gibbsdyn.observables import resolve_battery
from gibbsdyn.spectral import (
    GridSpec,
    bracket2,
    flat_index,
    holder_batch_rows,
    holder_norm,
    next_fast_len,
    sobolev_pair_norm,
)

from conftest import random_state, zero_state

BATTERY = ("l2_u", "l2_ut", "quartic", "mode_re:1", "holder:0.4")
GRIDS = {1: GridSpec(1, 18, 2.0), 2: GridSpec(2, 10, 3.0), 3: GridSpec(3, 10, 4.0)}
CUBES = {1: 4, 2: 2}
ROWS = 5


def same(a, b) -> bool:
    """Bitwise equality of floats or arrays, NaN equal to NaN."""
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# observables once per full buffer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", ["default", "small"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("row_chunk", [1, ROWS])
@pytest.mark.parametrize("time_block", [1, 3, 128])
@pytest.mark.parametrize("d", [1, 2])
def test_ensemble_series_match_per_sample_loop(d, time_block, row_chunk, threads, budget, monkeypatch):
    grid = GRIDS[d]
    cfg = FlowConfig(grid, CUBES[d], 0.5, 0.01, 0.37)
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", row_chunk)
    monkeypatch.setattr(flow, "MAX_TIME_BLOCK", time_block)
    if budget == "small":
        # a sample of three rows fills both budgets, so the ROWS cap splits
        # the rows into chunks of 3 and 2 that hold a single sample at a
        # time, a chunk of one row holds three, and batches cross time
        # blocks of 1 and 3 steps
        for name in ("BATCH_ITEMS", "CHUNK_ITEMS"):
            monkeypatch.setattr(flow, name, 3 * 2 * grid.n_modes)
    init = sample_mu_states(grid, rng.stream(5, 0), ROWS)
    battery = resolve_battery(BATTERY, grid)

    def gens():
        return [rng.stream(5, 1, i) for i in range(ROWS)]

    want = oracles.ensemble_series(cfg, init, gens(), battery, sample_every=2)
    got = evolve_ensemble(cfg, init, gens(), battery, sample_every=2, threads=threads)
    assert np.array_equal(got[0], want[0])
    assert set(got[1]) == set(BATTERY)
    for name in BATTERY:
        assert np.array_equal(got[1][name], want[1][name]), name
    assert np.array_equal(got[2], want[2])


def test_ensemble_final_sample_off_the_thinning_grid(monkeypatch):
    # 37 steps sampled every 5: the last block ends on the extra final sample
    monkeypatch.setattr(flow, "MAX_TIME_BLOCK", 8)
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, 0.5, 0.01, 0.37)
    init = sample_mu_states(grid, rng.stream(6, 0), 3)
    battery = resolve_battery(BATTERY, grid)
    gens = lambda: [rng.stream(6, 1, i) for i in range(3)]  # noqa: E731
    want = oracles.ensemble_series(cfg, init, gens(), battery, sample_every=5)
    got = evolve_ensemble(cfg, init, gens(), battery, sample_every=5)
    assert got[0][-1] == pytest.approx(0.37) and len(got[0]) == 9
    for name in BATTERY:
        assert np.array_equal(got[1][name], want[1][name]), name


# ---------------------------------------------------------------------------
# remainder energies computed once
# ---------------------------------------------------------------------------


def assert_reports_equal(got, want) -> None:
    for field in ("times", "energies", "sup_energy", "band", "decay_rate",
                  "envelope_constant", "blowup_time", "fit_window", "fitted"):
        assert same(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("d", [1, 2])
def test_energy_report_matches_per_state_loop(d):
    grid = GRIDS[d]
    cfg = FlowConfig(grid, CUBES[d], 1.0, 0.05, 6.0, record_noise=True)
    v0 = zero_state(grid)
    tup = (1,) + (0,) * (d - 1)
    v0[0, flat_index(grid, tup)] = 3.0
    v0[0, flat_index(grid, tuple(-c for c in tup))] = 3.0
    u0 = random_state(grid, np.random.default_rng(4))
    traj = evolve(u0, cfg, np.random.default_rng(11), initial_remainder=v0, thin_every=3)
    assert traj.blowup_time is None
    assert same(traj.energies, [oracles.energy(grid, v) for v in traj.v_states()])
    assert_reports_equal(energy_monitor(traj, 0.4), oracles.energy_report(traj, 0.4))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("gamma, thin, finite", [(1.0, 1, True), (1e12, 4, False)])
def test_energy_report_matches_per_state_loop_at_blowup(gamma, thin, finite):
    # the first crosses ENERGY_CEILING with a finite state; the second leaves
    # the remainder non-finite, which the blowup probe short-circuits on
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, gamma, 0.05, 3.0, record_noise=True)
    big = zero_state(grid)
    big[0, flat_index(grid, (0,))] = 3e4
    traj = evolve(zero_state(grid), cfg, np.random.default_rng(3), initial_remainder=big, thin_every=thin)
    assert traj.blowup_time is not None
    last = traj.v_states()[-1]
    assert bool(np.isfinite(last).all()) == finite
    if finite:
        assert traj.energies[-1] > ENERGY_CEILING
    assert same(traj.energies, [oracles.energy(grid, v) for v in traj.v_states()])
    assert_reports_equal(energy_monitor(traj, 0.4), oracles.energy_report(traj, 0.4))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_finite_remainder_with_nan_energy_is_a_blowup():
    # at t = 0.2 the remainder is still finite, but its energy overflows to
    # NaN (an infinite |u|^2 times the zero mode's zero |n|^s weight)
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, 1.0, 0.05, 3.0, record_noise=True)
    big = zero_state(grid)
    big[0, flat_index(grid, (0,))] = 3e4
    traj = evolve(zero_state(grid), cfg, np.random.default_rng(3), initial_remainder=big, thin_every=4)
    assert traj.blowup_time == 0.2
    assert np.isfinite(traj.v_states()[-1]).all()
    assert np.isnan(traj.energies[-1])


def test_unrecorded_trajectory_has_no_energies():
    cfg = FlowConfig(GRIDS[1], 4, 1.0, 0.05, 0.5)
    traj = evolve(zero_state(cfg.grid), cfg, np.random.default_rng(1))
    assert traj.energies is None
    with pytest.raises(ValueError):
        energy_monitor(traj, 0.4)


# ---------------------------------------------------------------------------
# the Hoelder norm in one transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_holder_norms_match_per_field_loop(d):
    grid = GRIDS[d]
    gen = np.random.default_rng(d)
    states = np.stack([random_state(grid, gen) for _ in range(4)])
    batched = holder_norm(grid, states, 0.4)
    for i, v in enumerate(states):
        want = oracles.holder_norm(grid, v, 0.4)
        assert batched[i] == want
        assert holder_norm(grid, v, 0.4) == want
    values = resolve_battery(("holder:0.4",), grid)["holder:0.4"](grid, states)
    assert np.array_equal(values, [oracles.holder_norm_field(grid, v[0], 0.4) for v in states])


@pytest.mark.parametrize("d", [1, 3])
def test_holder_norm_chunks_leading_axes(d, monkeypatch):
    # more states than one transform holds, in two leading axes: every
    # chunk boundary falls somewhere, and each norm is the per-state one
    grid = GRIDS[d]
    gen = np.random.default_rng(30 + d)
    rows = holder_batch_rows(grid)
    count = 2 * rows + 3
    states = np.stack([random_state(grid, gen) for _ in range(count)])
    seen = []
    holder_sup = spectral.holder_sup

    def record(grid, coeffs, beta, oversample=2):
        seen.append(coeffs.shape[0])
        return holder_sup(grid, coeffs, beta, oversample)

    monkeypatch.setattr(spectral, "holder_sup", record)
    got = holder_norm(grid, states.reshape((count, 1, 2, grid.n_modes)), 0.4)
    assert got.shape == (count, 1)
    assert max(seen) <= rows and sum(seen) == 2 * count
    for i in range(count):
        assert got[i, 0] == oracles.holder_norm(grid, states[i], 0.4)
    assert holder_norm(grid, states[:0], 0.4).shape == (0,)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sobolev_norms_match_per_state_sum(d):
    # the per-state form sums each component over the mode cube's shape
    grid = GRIDS[d]
    gen = np.random.default_rng(40 + d)
    states = np.stack([random_state(grid, gen) for _ in range(5)])
    br2 = bracket2(grid)
    for alpha in (0.4, grid.s / 2):
        got = sobolev_pair_norm(grid, states, alpha)
        for i, v in enumerate(states):
            u, p = v[0].reshape(grid.mode_shape), v[1].reshape(grid.mode_shape)
            want = float(np.sqrt(
                np.sum(br2**alpha * np.abs(u) ** 2)
                + np.sum(br2 ** (alpha - grid.s / 2.0) * np.abs(p) ** 2)
            ))
            assert got[i] == want


@pytest.mark.parametrize(
    "d, horizon, dt", [(1, 20.0, 0.05), (2, 20.0, 0.05), (3, 20.0, 0.05), (3, 0.0, 0.05), (3, 1.0, 0.1)]
)
def test_xalpha_norm_matches_per_state_loop(d, horizon, dt):
    # at d=3 a batch holds holder_batch_rows(grid) = 5 states, so the
    # propagation chain crosses many batch boundaries
    grid = GRIDS[d]
    v = random_state(grid, np.random.default_rng(10 + d))
    want = oracles.xalpha_norm(grid, v, 0.4, horizon, dt)
    assert xalpha_norm(grid, v, 0.4, horizon, dt) == want


@pytest.mark.parametrize("d", [1, 3])
def test_xalpha_norm_takes_every_propagated_state_once(d, monkeypatch):
    # the sweep's maximum usually sits at t = 0, so check the states it
    # hands to the batched norm: the propagation chain, in time order, in one
    # call (holder_norm bounds its own transform batches)
    grid = GRIDS[d]
    v = random_state(grid, np.random.default_rng(20 + d))
    seen = []

    def record(grid, states, beta):
        seen.append(states.copy())
        return holder_norm(grid, states, beta)

    monkeypatch.setattr(linear_dynamics, "holder_norm", record)
    xalpha_norm(grid, v, 0.4, 2.0, 0.05)
    assert len(seen) == 1
    S = propagator(grid, 0.05)
    want = [v]
    for _ in range(40):
        want.append(oracles.propagate_states(S, want[-1]))
    assert np.array_equal(np.concatenate(seen), np.stack(want))


def test_holder_batches_hold_about_a_mebibyte():
    for grid in GRIDS.values():
        rows = holder_batch_rows(grid)
        entries = 2 * next_fast_len(2 * (2 * grid.K + 1)) ** grid.d  # per state
        assert rows * entries <= 1 << 16 < (rows + 1) * entries


# ---------------------------------------------------------------------------
# ensemble working set
# ---------------------------------------------------------------------------

# `linear`'s d=3 shape at 256 members, and criterion 3's M=66 shape at 2048;
# 33 and 32 steps run past one derived draw block, and the fixed 1024-row,
# 128-step form holds the whole run in one block per chunk
WIDE = {
    "linear-d3": (FlowConfig(GridSpec(3, 10, 4.0), -1, 0.0, 0.05, 1.65), 256),
    "invariance-M66": (FlowConfig(GridSpec(1, 66, 2.0), 16, 0.1, 0.01, 0.32), 2048),
}


def wide_run(shape, **kw):
    cfg, count = WIDE[shape]
    init = sample_mu_states(cfg.grid, rng.stream(8, 0), count)
    gens = [rng.stream(8, 1, i) for i in range(count)]
    battery = resolve_battery(("l2_u", "quartic"), cfg.grid)
    return evolve_ensemble(cfg, init, gens, battery, sample_every=8, **kw)


def record_draw_blocks(monkeypatch) -> list:
    """Collect the block shape of every draw call evolve_ensemble makes; each
    call draws one whole block for every row of its chunk."""
    shapes = []
    real = flow.draw_increments

    def draw(table, gens, n_steps, out=None):
        assert out.shape == (len(gens), n_steps, table.n_half, 2)
        shapes.append(out.shape)
        return real(table, gens, n_steps, out)

    monkeypatch.setattr(flow, "draw_increments", draw)
    return shapes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", list(WIDE))
def test_wide_ensembles_stay_within_the_budget(shape, threads, monkeypatch):
    cfg, count = WIDE[shape]
    with monkeypatch.context() as m:
        shapes = record_draw_blocks(m)
        got = wide_run(shape, threads=threads)
    rows = max(s[0] for s in shapes)
    chunks = -(-count // rows)
    assert 1 < chunks < len(shapes)  # several chunks, several blocks each
    assert rows == flow.chunk_rows(cfg.grid)
    assert rows * 2 * cfg.grid.n_modes <= flow.CHUNK_ITEMS
    assert max(np.prod(s) for s in shapes) <= flow.DRAW_ITEMS
    # the derived chunking gives the values of the fixed one: with budgets
    # too large to bind, the caps set the chunks and blocks
    for name in ("BATCH_ITEMS", "CHUNK_ITEMS", "DRAW_ITEMS"):
        monkeypatch.setattr(flow, name, 1 << 40)
    want = wide_run(shape, threads=threads)
    assert np.array_equal(got[0], want[0])
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), name
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("threads", [1, 2])
def test_wide_working_set_does_not_grow_with_the_horizon(threads):
    # traced numpy allocations of the M=66 run at two horizons, with the
    # finals written over the initial states and each chunk building its own
    # streams: per worker thread, one chunk's states, streams and draw block
    cfg, count = WIDE["invariance-M66"]
    battery = resolve_battery(("l2_u", "quartic"), cfg.grid)
    peaks = []
    for T in (0.32, 1.28):
        init = sample_mu_states(cfg.grid, rng.stream(8, 0), count)
        tracemalloc.start()
        try:
            evolve_ensemble(
                replace(cfg, T=T), init, MemberStreams(8, 1, count), battery,
                sample_every=8, threads=threads, out=init,
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    complex_bytes = np.dtype(complex).itemsize
    # a chunk's two state buffers and its kick scratch, in chunk-sized
    # arrays; its scatter, its held samples and the observables' temporaries
    # on them, each at most a batch; the draw block and its transform's
    # temporary
    state = (4 * flow.CHUNK_ITEMS + 4 * spectral.BATCH_ITEMS) * complex_bytes
    draws = 1.5 * flow.DRAW_ITEMS * complex_bytes
    slack = 2 << 20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
    assert max(peaks) <= threads * (state + draws) + slack, peaks


def invariance_config(count: int, threads: int) -> ExperimentConfig:
    """Criterion 3's M=66 shape over three steps, at count members."""
    grid = GridSpec(1, 66, 2.0)
    return ExperimentConfig(
        experiment="invariance", grid=grid, flow=FlowConfig(grid, 16, 1.0, 0.01, 0.03),
        gibbs=GibbsConfig(grid, 16, 1.0), ensemble_size=count, threads=threads, ess_floor=1.0,
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_invariance_working_set_does_not_grow_with_the_ensemble(threads):
    # traced numpy allocations of the whole experiment at two ensemble sizes:
    # no array of the members' states is held, so the peaks differ only by
    # the values the run keeps per member
    invariance_experiment(invariance_config(256, threads))  # tables and FFT caches
    peaks = {}
    for count in (2048, 8192):
        cfg = invariance_config(count, threads)
        tracemalloc.start()
        try:
            invariance_experiment(cfg)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # per member: its log-weight, final energy and finiteness, two samples of
    # each observable, and its share of the generator copy kept per chunk
    # (under 1 KiB per 126 members); the slack covers the two workers'
    # buffers peaking together in one run and not in the other
    per_member = 8 * (3 + 2 * len(cfg.observables)) + 8
    slack = 1 << 20
    assert peaks[8192] - peaks[2048] <= 6144 * per_member + slack, peaks


def test_setup_passes_hold_one_batch():
    # traced numpy allocations of the M=66 ensemble's base-measure draw and
    # interaction: each holds its output and one row chunk's temporaries
    cfg, count = WIDE["invariance-M66"]
    gibbs = GibbsConfig(cfg.grid, cfg.N, cfg.gamma)
    interaction_states(sample_mu_states(cfg.grid, rng.stream(8, 0), 1), gibbs)  # lattice caches
    slack = 2 << 20
    tracemalloc.start()
    try:
        states = sample_mu_states(cfg.grid, rng.stream(8, 0), count)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        weights = interaction_states(states, gibbs)
        weighed = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert sampled <= states.nbytes + slack, sampled
    assert weighed <= weights.nbytes + slack, weighed


@pytest.mark.parametrize("recorded", [True, False])
def test_trajectory_working_set_does_not_grow_with_the_horizon(recorded):
    # traced numpy allocations of one M=18 run, less the trajectory's own
    # arrays: a recorded run keeps no increment, and a run sampled only at
    # its end still draws at most MAX_TIME_BLOCK steps at a time
    grid = GRIDS[1]
    base = FlowConfig(grid, CUBES[1], 1.0, 0.01, 0.5, record_noise=recorded)
    evolve(zero_state(grid), base, rng.stream(3, 0))  # tables and FFT caches
    extra = {}
    for T in (50.0, 200.0):
        cfg = replace(base, T=T)
        tracemalloc.start()
        try:
            traj = evolve(zero_state(grid), cfg, rng.stream(3, 0), thin_every=None if recorded else cfg.n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # states and linear_states are views of one array
        roots = {}
        for a in (traj.times, traj.states, traj.linear_states, traj.energies):
            if a is not None:
                root = a if a.base is None else a.base
                roots[id(root)] = root.nbytes
        extra[T] = peak - sum(roots.values())
    assert max(extra.values()) < 1 << 20, extra


def test_narrow_grids_keep_full_row_chunks(monkeypatch):
    # criterion 12's 2560 members at M=18 are six row chunks, five full ones
    # of 481 rows and one of 155, so its thread-count check runs the pool on
    # unequal chunks
    grid = GridSpec(1, 18, 2.0)
    cfg = FlowConfig(grid, 4, 0.1, 0.01, 0.02)  # one block per chunk
    init = np.zeros((2560, 2, grid.n_modes), dtype=complex)
    shapes = record_draw_blocks(monkeypatch)
    evolve_ensemble(cfg, init, [rng.stream(9, 1, i) for i in range(2560)], threads=2)
    assert Counter(s[0] for s in shapes) == {481: 5, 155: 1}


# ---------------------------------------------------------------------------
# no states array held whole
# ---------------------------------------------------------------------------

SETUP_ROWS = 3


@pytest.mark.parametrize("count", [1, SETUP_ROWS, SETUP_ROWS + 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_setup_passes_match_one_block(d, count, monkeypatch):
    # chunks of SETUP_ROWS states: one member, one full chunk, and a full
    # chunk followed by a chunk of one
    grid = GRIDS[d]
    monkeypatch.setattr(spectral, "BATCH_ITEMS", SETUP_ROWS * 2 * grid.n_modes + 1)
    assert spectral.state_batch_rows(grid) == SETUP_ROWS
    gen, ref = rng.stream(12, d), rng.stream(12, d)
    states = sample_mu_states(grid, gen, count)
    assert np.array_equal(states, oracles.sample_mu_states_one_block(grid, ref, count))
    assert gen.standard_normal() == ref.standard_normal()  # the same stream position
    gibbs = GibbsConfig(grid, CUBES.get(d, 2), 0.7)
    assert np.array_equal(interaction_states(states, gibbs), oracles.interaction_states_one_block(states, gibbs))


@pytest.mark.parametrize("count", [1, SETUP_ROWS, SETUP_ROWS + 1, 3 * SETUP_ROWS + 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mu_draws_replay_the_full_draw(d, count):
    # batches of SETUP_ROWS members, and every slice: on batch starts, inside
    # a batch, across batch boundaries, and empty; an index reads a slice of one
    grid = GRIDS[d]
    gibbs = GibbsConfig(grid, CUBES.get(d, 2), 0.7)
    gen, ref = rng.stream(13, d), rng.stream(13, d)
    draws = MuDraws(gibbs, gen, count, rows=SETUP_ROWS)
    full = sample_mu_states(grid, ref, count)
    assert gen.standard_normal() == ref.standard_normal()  # the same stream position
    assert len(draws) == count and draws.shape == full.shape
    assert np.array_equal(draws.log_weights, -interaction_states(full, gibbs))
    for lo in range(count + 1):
        for hi in range(lo, count + 1):
            assert np.array_equal(draws[lo:hi], full[lo:hi]), (lo, hi)
    assert np.array_equal(draws[-2:], full[-2:])
    assert np.array_equal(draws[-1], full[-1]) and np.array_equal(list(draws), list(full))
    with pytest.raises(ValueError):
        draws[::2]


def small_ensemble(monkeypatch):
    """Five M=18 members in chunks of two rows and blocks of three steps."""
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", 2)
    monkeypatch.setattr(flow, "MAX_TIME_BLOCK", 3)
    grid = GRIDS[1]
    cfg = FlowConfig(grid, CUBES[1], 0.5, 0.01, 0.07)
    return cfg, sample_mu_states(grid, rng.stream(7, 0), ROWS), resolve_battery(BATTERY, grid)


def assert_runs_equal(got, want) -> None:
    assert np.array_equal(got[0], want[0])
    assert set(got[1]) == set(want[1])
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), name
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ensemble_writes_finals_over_initial_states(threads, monkeypatch):
    # one row per chunk; four workers, more than the cores, switching often,
    # write their finals into the one array the others read from
    cfg, init, battery = small_ensemble(monkeypatch)
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", 1)
    gens = lambda: [rng.stream(7, 1, i) for i in range(ROWS)]  # noqa: E731
    want = evolve_ensemble(cfg, init, gens(), battery)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = evolve_ensemble(cfg, init, gens(), battery, threads=threads, out=init)
    finally:
        sys.setswitchinterval(interval)
    assert got[2] is init
    assert_runs_equal(got, want)
    with pytest.raises(ValueError, match="out holds 4 members, expected 5"):
        evolve_ensemble(cfg, init, gens(), battery, out=init[1:])


@pytest.mark.parametrize("threads", [1, 2])
def test_member_streams_match_the_list_of_streams(threads, monkeypatch):
    cfg, init, battery = small_ensemble(monkeypatch)
    streams = MemberStreams(7, 1, ROWS)
    assert len(streams) == ROWS
    draw = lambda gen: gen.standard_normal(4)  # noqa: E731
    listed = [draw(rng.stream(7, 1, i)) for i in range(ROWS)]
    assert np.array_equal([draw(g) for g in streams], listed)
    assert np.array_equal(draw(streams[-1]), listed[-1])
    assert np.array_equal([draw(g) for g in streams[1:4]], listed[1:4])
    want = evolve_ensemble(cfg, init, [rng.stream(7, 1, i) for i in range(ROWS)], battery, threads=threads)
    built = []
    stream = rng.stream

    def record(*key):
        built.append(key)
        return stream(*key)

    monkeypatch.setattr(rng, "stream", record)
    got = evolve_ensemble(cfg, init, MemberStreams(7, 1, ROWS), battery, threads=threads)
    assert_runs_equal(got, want)
    # every stream is built once, through the module attribute the tracer wraps
    assert sorted(built) == [(7, 1, i) for i in range(ROWS)]


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ensemble_reads_redrawn_states_into_final_checks(threads, monkeypatch):
    # one row per chunk reads MuDraws batches of three members, so most
    # chunks start inside a batch; four workers, more than the cores,
    # switching often, copy the kept generators and write into one sink,
    # which keeps each member's energy and finiteness as FinalChecks.of
    # takes them from the finals
    cfg, init, battery = small_ensemble(monkeypatch)
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", 1)
    draws = MuDraws(GibbsConfig(cfg.grid, cfg.N, cfg.gamma), rng.stream(7, 0), ROWS, rows=3)
    gens = lambda: [rng.stream(7, 1, i) for i in range(ROWS)]  # noqa: E731
    want = evolve_ensemble(cfg, init, gens(), battery)
    checks = FinalChecks(cfg.grid, ROWS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = evolve_ensemble(cfg, draws, gens(), battery, threads=threads, out=checks)
    finally:
        sys.setswitchinterval(interval)
    assert got[2] is checks
    assert_runs_equal(got[:2] + (want[2],), want)
    ref = FinalChecks.of(cfg.grid, want[2])
    assert np.array_equal(checks.energies, ref.energies)
    assert np.array_equal(checks.finite, ref.finite) and checks.finite.all()


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_leaves_initial_states_untouched(threads, monkeypatch):
    cfg, init, battery = small_ensemble(monkeypatch)
    kept = init.copy()
    evolve_ensemble(cfg, init, [rng.stream(7, 1, i) for i in range(ROWS)], battery, threads=threads)
    assert np.array_equal(init, kept)
