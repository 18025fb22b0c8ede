"""The stepping kernel against its test-only reference forms.

`tests/oracles.py` keeps the straightforward formulations (einsum
propagation, zero-filled fancy-index scatter, masked np.ix_ cube over the
full complex spectrum).  Propagation, scatter and transforms perform the
same floating-point operations in the same order as those forms, and the
draws differ only by a commuted addition and a dropped exact-zero term, so
they are compared with np.array_equal.  `Stepper.run`, which reuses one cube
plan and two state buffers over a run, is compared bit for bit with the
planless per-step sequence.  The dealiased cube goes through the half
spectrum with real transforms, and the quartic integral takes its fourth
power as two squarings, which round differently: those comparisons, and the
kicks and steps built on them, allow max|got - want| <= 1e-13 * max|want|.
"""

import numpy as np
import pytest

import oracles
from gibbsdyn import flow
from gibbsdyn.flow import FlowConfig, Stepper, kick_states
from gibbsdyn.gibbs import sample_mu_states
from gibbsdyn.linear_dynamics import (
    build_table,
    draw_increments,
    increments_to_states,
    propagate_states,
    propagator_columns,
)
from gibbsdyn.spectral import (
    CubePlan,
    GridSpec,
    coeffs_to_grid,
    cube_mask,
    dealiased_cube_coeffs,
    half_lattice,
    hermitianize,
    omega2,
    quartic_integral_coeffs,
)
from oracles import step

GRIDS = {1: GridSpec(1, 18, 2.0), 2: GridSpec(2, 10, 3.0), 3: GridSpec(3, 6, 4.0)}
BATCHES = [(), (1,), (5,), (2, 3)]

# relative tolerance of the comparisons whose rounding differs from the
# reference forms (measured: below 1e-15)
RTOL = 1e-13


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """max|got - want| <= RTOL * max|want|, elementwise over complex values."""
    assert got.shape == np.shape(want)
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * np.max(np.abs(want), initial=0.0)


def n_max(grid: GridSpec) -> int:
    """Largest cube the grid can cube alias-free (M >= 4N + 2)."""
    return (grid.M - 2) // 4


def cube_sizes(grid: GridSpec) -> list[int]:
    return sorted({-1, 0, n_max(grid)})


def random_states(grid: GridSpec, batch: tuple, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    shape = batch + (2, grid.n_modes)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_increments(grid: GridSpec, batch: tuple, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    shape = batch + (half_lattice(grid).size, 2)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_propagation_matches_einsum(d, batch):
    grid = GRIDS[d]
    S = build_table(grid, 0.05).S
    states = random_states(grid, batch, 1)
    want = oracles.propagate_states(S, states)
    assert np.array_equal(propagate_states(S, states), want)
    assert np.array_equal(propagate_states(propagator_columns(S), states), want)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_scatter_matches_zero_filled_fancy_index(d, batch):
    grid = GRIDS[d]
    eta = random_increments(grid, batch, 2)
    assert np.array_equal(increments_to_states(grid, eta), oracles.increments_to_states(grid, eta))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_mu_states_scatter_matches_reference(d):
    # the base-measure sampler is the other caller of increments_to_states
    grid = GRIDS[d]
    count = 7
    got = sample_mu_states(grid, np.random.default_rng(3), count)
    half = half_lattice(grid)
    g = np.random.default_rng(3).standard_normal((count, half.size, 2, 2))
    z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0))
    z[:, 0, :] = g[:, 0, :, 0]
    z[..., 0] /= np.sqrt(omega2(grid).reshape(-1)[half])
    assert np.array_equal(got, oracles.increments_to_states(grid, z))


# a short and a long step for the draw checks, besides the 0.05 above
DRAW_STEPS = (0.005, 0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_draw_increments_matches_einsum(d):
    table = build_table(GRIDS[d], 0.05)
    got = draw_increments(table, np.random.default_rng(4), 9)
    want = oracles.draw_increments(table.chol, np.random.default_rng(4), 9)
    assert np.array_equal(got.view(float), want.view(float))
    # the in-place product rounds as the einsum does at short and long steps;
    # the uint64 view compares sign bits too
    for h in DRAW_STEPS:
        table = build_table(GRIDS[d], h)
        got = draw_increments(table, np.random.default_rng(4), 9)
        want = oracles.draw_increments(table.chol, np.random.default_rng(4), 9)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("h", DRAW_STEPS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_draw_increments_into_block_row(d, h):
    table = build_table(GRIDS[d], h)
    block = np.full((2, 9, table.n_half, 2), 7.0 + 3.0j)
    got = draw_increments(table, np.random.default_rng(4), 9, block[1])
    assert np.shares_memory(got, block[1]) and got.shape == block[1].shape
    want = oracles.draw_increments(table.chol, np.random.default_rng(4), 9)
    assert np.array_equal(block[1].view(float), want.view(float))
    assert np.all(block[0] == 7.0 + 3.0j)


@pytest.mark.parametrize("h", DRAW_STEPS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_draw_increments_split_calls_continue_the_stream(d, h):
    table = build_table(GRIDS[d], h)
    gen = np.random.default_rng(4)
    parts = np.concatenate([draw_increments(table, gen, 2), draw_increments(table, gen, 7)])
    whole = oracles.draw_increments(table.chol, np.random.default_rng(4), 9)
    assert np.array_equal(parts.view(float), whole.view(float))


@pytest.mark.parametrize("steps", [1, 3, 128])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_draw_matches_per_row_draws(d, rows, steps):
    table = build_table(GRIDS[d], 0.05)
    seeds = range(10, 10 + rows)
    want = np.stack([oracles.draw_increments(table.chol, np.random.default_rng(s), steps) for s in seeds])
    got = draw_increments(table, [np.random.default_rng(s) for s in seeds], steps)
    assert got.shape == (rows, steps, table.n_half, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # two blocks of `steps` continue every row's stream as one block of twice that
    gens = [np.random.default_rng(s) for s in seeds]
    out = np.full((rows, steps, table.n_half, 2), 7.0 + 3.0j)
    first = draw_increments(table, gens, steps, out).copy()
    second = draw_increments(table, gens, steps, out)
    assert second is out
    whole = draw_increments(table, [np.random.default_rng(s) for s in seeds], 2 * steps)
    assert np.array_equal(np.concatenate([first, second], axis=1).view(np.uint64), whole.view(np.uint64))


def test_draw_increments_rejects_unusable_out():
    # a strided view would be copied by the float reshape, losing the draws
    table = build_table(GRIDS[1], 0.05)
    nh = table.n_half
    bad = [
        np.empty((9, nh, 4), dtype=complex)[..., ::2],  # strided
        np.empty((nh, 2, 9), dtype=complex).transpose(2, 0, 1),  # right shape, F order
        np.empty((8, nh, 2), dtype=complex),  # too few steps
        np.empty((9, nh + 1, 2), dtype=complex),  # another grid's half lattice
        np.empty((9, nh, 2, 2)),  # real normals
        np.empty((9, nh, 2), dtype=np.complex64),
    ]
    for out in bad:
        with pytest.raises(ValueError, match="C-contiguous complex"):
            draw_increments(table, np.random.default_rng(4), 9, out)
    # a list of generators draws one row each
    gens = [np.random.default_rng(s) for s in range(3)]
    for out in (np.empty((9, nh, 2), dtype=complex), np.empty((2, 9, nh, 2), dtype=complex),
                np.empty((3, 9, nh, 4), dtype=complex)[..., ::2]):
        with pytest.raises(ValueError, match="C-contiguous complex"):
            draw_increments(table, gens, 9, out)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_transforms_match_ix_embedding(d, batch):
    grid = GRIDS[d]
    coeffs = random_states(grid, batch, 5)[..., 0, :].reshape(batch + grid.mode_shape)
    for m in (None, 2 * grid.K + 1, 4 * grid.K + 3):
        assert np.array_equal(coeffs_to_grid(grid, coeffs, m), oracles.coeffs_to_grid(grid, coeffs, m))
    for band in (None, 0, grid.K):
        assert_close(
            quartic_integral_coeffs(grid, coeffs, band),
            oracles.quartic_integral_coeffs(grid, coeffs, band),
        )


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_and_kick_match_masked_form(d, batch):
    grid = GRIDS[d]
    states = random_states(grid, batch, 7)
    coeffs = states[..., 0, :].reshape(batch + grid.mode_shape)
    for N in cube_sizes(grid):
        assert_close(
            dealiased_cube_coeffs(grid, coeffs, N), oracles.dealiased_cube_coeffs(grid, coeffs, N)
        )
        for gamma in (0.0, 0.7):
            cfg = FlowConfig(grid, N, gamma, 0.05, 0.05)
            got, want = states.copy(), states.copy()
            kick_states(cfg, got, cfg.h)
            oracles.kick_states(grid, N, gamma, want, cfg.h)
            assert_close(got, want)


@pytest.mark.parametrize("batch", [(1,), (5,)], ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stepper_matches_reference_steps(d, batch):
    # several steps, with a second (unkicked) layer riding along, against the
    # reference split step and the reference linear step
    grid = GRIDS[d]
    for N in cube_sizes(grid):
        for gamma in (0.0, 0.5):
            cfg = FlowConfig(grid, N, gamma, 0.05, 0.25)
            stepper = Stepper(cfg)
            S = stepper.table.S
            states = 0.3 * random_states(grid, batch, 8)
            linear = 0.3 * random_states(grid, batch, 9)
            eta = np.stack([random_increments(grid, (6,), 10 + r) for r in range(batch[0])])
            *_, (k, (got, got_lin)) = stepper.run(np.stack((states, linear)), [eta[:, :4], eta[:, 4:]], 1)
            assert k == 3
            want, want_lin = states, linear
            for k in range(3):
                pair = np.moveaxis(eta[:, 2 * k : 2 * k + 2], 1, 0)
                want = oracles.split_step(grid, N, gamma, cfg.h, S, want, pair)
                want_lin = oracles.split_step(grid, -1, 0.0, cfg.h, S, want_lin, pair)
            assert_close(got, want)
            assert np.array_equal(got_lin, want_lin)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_public_step_matches_reference(d):
    grid = GRIDS[d]
    cfg = FlowConfig(grid, n_max(grid), 0.5, 0.05, 0.05)
    table = build_table(grid, cfg.h / 2)
    state = 0.3 * random_states(grid, (), 11)
    new, eta = step(state, table, cfg, np.random.default_rng(12))
    want = oracles.split_step(grid, cfg.N, cfg.gamma, cfg.h, table.S, state, eta)
    assert_close(new, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_spectrum_cube_guarantees(d):
    # the half-spectrum cube fills the mirror half by conjugation, reads only
    # the Hermitian part of its input and writes only the cube
    grid = GRIDS[d]
    N = n_max(grid)
    cfg = FlowConfig(grid, N, 0.7, 0.05, 0.05)
    inside = cube_mask(grid, N).reshape(-1)
    states = random_states(grid, (5,), 13)
    coeffs = states[..., 0, :].reshape((5,) + grid.mode_shape)
    assert_close(
        dealiased_cube_coeffs(grid, coeffs, N),
        dealiased_cube_coeffs(grid, hermitianize(grid, coeffs), N),
    )

    kicked = states.copy()
    kick_states(cfg, kicked, cfg.h)
    assert np.array_equal(kicked[..., 0, :], states[..., 0, :])
    assert np.array_equal(kicked[..., 1, ~inside], states[..., 1, ~inside])
    assert not np.array_equal(kicked[..., 1, inside], states[..., 1, inside])

    def pairs(flat: np.ndarray) -> np.ndarray:
        return flat.reshape((5, 2) + grid.mode_shape)

    real = hermitianize(grid, pairs(states)).reshape(states.shape)
    for _ in range(3):
        kick_states(cfg, real, cfg.h)
        # hermitianize returns its argument unchanged only on exact symmetry
        assert np.array_equal(hermitianize(grid, pairs(real)), pairs(real))


@pytest.mark.parametrize("span", [None, 3], ids=["whole-blocks", "span-3"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stepper_run_equals_planless_steps(monkeypatch, d, span):
    # the run's cube plan and ping-pong buffers change no bit: every state it
    # yields equals propagate + increment, then a planless kick,
    # over several blocks, with a second (unkicked) layer; an odd scatter span
    # splits the blocks across the buffers' alternation
    grid = GRIDS[d]
    rows = 3
    if span is not None:
        monkeypatch.setattr(flow, "BATCH_ITEMS", span * 2 * rows * grid.n_modes)
    cfg = FlowConfig(grid, n_max(grid), 0.5, 0.05, 0.35)
    stepper = Stepper(cfg)
    layers = 0.3 * np.stack([random_states(grid, (rows,), 20 + i) for i in range(2)])
    given = layers.copy()
    eta = np.stack([random_increments(grid, (14,), 30 + r) for r in range(rows)])
    seen = {}
    for k, got in stepper.run(layers, [eta[:, :4], eta[:, 4:6], eta[:, 6:]], 1):
        seen[k] = got.copy()
    assert np.array_equal(layers, given)  # the caller's layers are never written

    want = given
    for i in range(14):
        want = propagate_states(stepper.S, want)
        want += increments_to_states(grid, eta[:, i])
        if i % 2 == 0:
            kick_states(cfg, want[0], cfg.h)
        else:
            assert np.array_equal(seen[(i + 1) // 2], want)
    assert sorted(seen) == list(range(1, 8))
    assert np.array_equal(got, want)


def test_sample_steps_are_every_kth_and_the_last():
    for n_steps in range(12):
        for every in range(1, 6):
            want = [k for k in range(1, n_steps + 1) if k % every == 0 or k == n_steps]
            assert flow.sample_steps(n_steps, every) == want


def test_stepper_yields_its_sample_steps_and_stops_on_break():
    # 7 steps sampled every 3 yield after steps 3, 6 and 7; a break after
    # step 3 leaves every later block undrawn
    grid = GRIDS[1]
    cfg = FlowConfig(grid, n_max(grid), 0.5, 0.05, 0.35)
    layers = 0.3 * random_states(grid, (1, 2), 60)
    eta = random_increments(grid, (14,), 61)[None]
    taken = []

    def blocks():
        for lo in range(0, 14, 2):
            taken.append(lo // 2 + 1)
            yield eta[:, lo : lo + 2]

    assert [k for k, _ in Stepper(cfg).run(layers, blocks(), 3)] == [3, 6, 7]
    taken.clear()
    for k, _ in Stepper(cfg).run(layers, blocks(), 3):
        break
    assert k == 3 and taken == [1, 2, 3]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_plan_reuse_matches_fresh_calls(d):
    # one plan over several different inputs: no value of an earlier call
    # leaks into a later one (at d > 1 the leading-axis ifft fills rows of the
    # embedding that the next call's cube does not write)
    grid = GRIDS[d]
    batch = (4,)
    for N in sorted({0, n_max(grid)}):
        plan = CubePlan(grid, N, batch)
        for seed, scale in ((40, 1.0), (41, 0.01), (42, 30.0)):
            coeffs = scale * random_states(grid, batch, seed)[..., 0, :].reshape(batch + grid.mode_shape)
            got = dealiased_cube_coeffs(grid, coeffs, N, plan)
            assert got is plan.out
            assert np.array_equal(got, dealiased_cube_coeffs(grid, coeffs, N))
    with pytest.raises(ValueError, match="plan"):
        dealiased_cube_coeffs(grid, coeffs[:1], N, plan)
    with pytest.raises(ValueError, match="plan"):
        dealiased_cube_coeffs(grid, coeffs, N - 1, plan)


def test_kick_rejects_plan_of_another_batch_shape():
    # a plan for 4 rows does not serve a (2, 2) batch, though the sizes agree
    grid = GRIDS[2]
    cfg = FlowConfig(grid, n_max(grid), 0.5, 0.05, 0.35)
    plan = CubePlan(grid, cfg.N, (4,))
    states = random_states(grid, (2, 2), 50)
    with pytest.raises(ValueError, match="plan"):
        kick_states(cfg, states, cfg.h, plan)
    kick_states(cfg, states.reshape((4, 2, grid.n_modes)), cfg.h, plan)
