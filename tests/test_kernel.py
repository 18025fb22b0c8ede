"""The stepping kernel against its test-only reference forms.

`tests/oracles.py` keeps the straightforward formulations (einsum
propagation, zero-filled fancy-index scatter, masked np.ix_ cube over the
full complex spectrum).  Propagation, scatter, draws and transforms perform
the same floating-point operations in the same order as those forms, so they
are compared with np.array_equal.  The dealiased cube goes through the half
spectrum with real transforms, and the quartic integral takes its fourth
power as two squarings, which round differently: those comparisons, and the
kicks and steps built on them, allow max|got - want| <= 1e-13 * max|want|.
"""

import numpy as np
import pytest

import oracles
from gibbsdyn.flow import FlowConfig, Stepper, kick_states
from gibbsdyn.gibbs import sample_mu_states
from gibbsdyn.linear_dynamics import (
    build_table,
    draw_increments,
    increments_to_states,
    pair_to_state,
    propagate_states,
    propagator_columns,
    state_to_pair,
)
from gibbsdyn.spectral import (
    GridSpec,
    coeffs_to_grid,
    cube_mask,
    dealiased_cube_coeffs,
    grid_to_coeffs,
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_draw_increments_matches_einsum(d):
    table = build_table(GRIDS[d], 0.05)
    got = draw_increments(table, np.random.default_rng(4), 9)
    want = oracles.draw_increments(table.chol, np.random.default_rng(4), 9)
    assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_transforms_match_ix_embedding(d, batch):
    grid = GRIDS[d]
    coeffs = random_states(grid, batch, 5)[..., 0, :].reshape(batch + grid.mode_shape)
    for m in (None, 2 * grid.K + 1, 4 * grid.K + 3):
        assert np.array_equal(coeffs_to_grid(grid, coeffs, m), oracles.coeffs_to_grid(grid, coeffs, m))
    values = np.random.default_rng(6).standard_normal(batch + (grid.M,) * d)
    assert np.array_equal(grid_to_coeffs(grid, values), oracles.grid_to_coeffs(grid, values))
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
            got, got_lin = stepper.run(np.stack((states, linear)), [eta[:, :4], eta[:, 4:]])
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
    new, eta = step(state_to_pair(grid, state), table, cfg, np.random.default_rng(12))
    want = oracles.split_step(grid, cfg.N, cfg.gamma, cfg.h, table.S, state, eta)
    assert_close(pair_to_state(new), want)


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
