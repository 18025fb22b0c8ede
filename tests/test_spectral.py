"""Coefficient arrays, projections, alias-free cubing, norms.

Derived expectations are checked against independent oracles: direct triple
convolution over the mode lattice for the cubic product, explicit mode sums
for the weighted norms, and refined-grid quadrature for the quartic integral.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import is_hermitian, random_hermitian_coeffs, random_state, zero_state
from gibbsdyn.spectral import (
    AliasError,
    GridSpec,
    bracket2,
    coeffs_to_grid,
    cube_mask,
    dealiased_cube_coeffs,
    flat_index,
    half_lattice,
    hermitianize,
    holder_norm,
    holder_sup,
    mirror_of_half,
    mode_tuples,
    next_fast_len,
    omega2,
    quartic_integral_coeffs,
    sobolev_pair_norm,
)

TWO_PI = 2.0 * np.pi


def inner(f: np.ndarray, g: np.ndarray) -> float:
    return float(np.sum(f * np.conj(g)).real)


# ---------------------------------------------------------------------------
# grid validation and lattice bookkeeping
# ---------------------------------------------------------------------------


def test_gridspec_validation():
    GridSpec(1, 3, 2.0)
    with pytest.raises(ValueError):
        GridSpec(4, 9, 5.0)
    with pytest.raises(ValueError):
        GridSpec(1, 2, 2.0)
    with pytest.raises(ValueError):
        GridSpec(2, 9, 2.0)  # s must exceed d
    with pytest.raises(ValueError):
        GridSpec(1, 9, 1.0)


def test_band_K():
    assert GridSpec(1, 9, 2.0).K == 4
    assert GridSpec(1, 10, 2.0).K == 4
    assert GridSpec(3, 7, 4.0).mode_shape == (7, 7, 7)


def test_half_lattice_partition():
    for d, M in [(1, 9), (2, 7), (3, 5)]:
        grid = GridSpec(d, M, d + 1.0)
        half = half_lattice(grid)
        mirr = mirror_of_half(grid)
        modes = mode_tuples(grid)
        # zero mode first
        assert tuple(modes[half[0]]) == (0,) * d
        # half + mirrored half covers every mode exactly once
        union = np.concatenate([half, mirr[1:]])
        assert sorted(union.tolist()) == list(range(grid.n_modes))
        # mirrors really are negations
        assert np.array_equal(modes[mirr], -modes[half])
        # lexicographic order of representatives
        reps = [tuple(modes[i]) for i in half[1:]]
        assert reps == sorted(reps)


def test_flat_index_roundtrip():
    grid = GridSpec(2, 9, 3.0)
    modes = mode_tuples(grid)
    for n in [(0, 0), (1, -3), (-4, 4)]:
        assert tuple(modes[flat_index(grid, n)]) == n
    with pytest.raises(ValueError):
        flat_index(grid, (5, 0))


def test_scatter_half_is_hermitian(rng):
    grid = GridSpec(2, 7, 3.0)
    nh = half_lattice(grid).size
    vals = rng.standard_normal(nh) + 1j * rng.standard_normal(nh)
    coeffs = oracles.scatter_half(grid, vals)
    assert is_hermitian(grid, coeffs, 1e-14)
    assert coeffs.reshape(-1)[half_lattice(grid)[0]].imag == 0.0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,M", [(1, 9), (1, 10), (2, 7), (3, 5)])
def test_roundtrip_identity(d, M, rng):
    grid = GridSpec(d, M, d + 1.5)
    f = random_hermitian_coeffs(grid, rng)
    g = oracles.grid_to_coeffs(grid, coeffs_to_grid(grid, f))
    assert np.max(np.abs(g - f)) < 1e-12


def test_physical_values_match_direct_sum(rng):
    grid = GridSpec(1, 9, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    vals = coeffs_to_grid(grid, f)
    x = TWO_PI * np.arange(grid.M) / grid.M
    modes = mode_tuples(grid)[:, 0]
    direct = np.array([np.sum(f * np.exp(1j * modes * xi)).real for xi in x])
    assert np.max(np.abs(vals - direct)) < 1e-12


def test_parseval(rng):
    grid = GridSpec(2, 9, 3.0)
    f = random_hermitian_coeffs(grid, rng)
    vals = coeffs_to_grid(grid, f)
    assert np.isclose(np.mean(vals**2), np.sum(np.abs(f) ** 2), rtol=1e-12)


def test_batched_transform_matches_loop(rng):
    grid = GridSpec(1, 11, 2.0)
    batch = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(4)])
    together = coeffs_to_grid(grid, batch)
    for i in range(4):
        solo = coeffs_to_grid(grid, batch[i])
        assert np.array_equal(together[i], solo)
    back = oracles.grid_to_coeffs(grid, together)
    assert np.max(np.abs(back - batch)) < 1e-12


def test_next_fast_len_matches_scipy():
    # the transform sizes, and so every sampled value, must stay those of scipy
    for n in range(1, 4097):
        assert next_fast_len(n) == oracles.next_fast_len(n), n


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_cube_cases(rng):
    grid = GridSpec(1, 11, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    assert np.array_equal(f * cube_mask(grid, grid.K), f)
    assert np.all(f * cube_mask(grid, -1) == 0)
    single = np.zeros(grid.mode_shape, dtype=complex)
    single[flat_index(grid, (3,))] = 1.0
    single[flat_index(grid, (-3,))] = 1.0
    assert np.all(single * cube_mask(grid, 2) == 0)
    with pytest.raises(ValueError):
        cube_mask(grid, grid.K + 1)
    with pytest.raises(ValueError):
        cube_mask(grid, -2)


def test_project_cube_idempotent_selfadjoint(rng):
    grid = GridSpec(2, 9, 3.0)
    f, g = random_hermitian_coeffs(grid, rng), random_hermitian_coeffs(grid, rng)
    for N in (-1, 0, 2, grid.K):
        mask = cube_mask(grid, N)
        pf = f * mask
        assert np.array_equal(pf * mask, pf)
        assert np.isclose(inner(pf, g), inner(f, g * mask), atol=1e-12)


def test_cube_mask_counts():
    grid = GridSpec(2, 11, 3.0)
    assert cube_mask(grid, 2).sum() == 25
    assert cube_mask(grid, 0).sum() == 1


# ---------------------------------------------------------------------------
# dealiased cubing vs direct convolution oracle
# ---------------------------------------------------------------------------


def brute_force_cube(grid: GridSpec, coeffs: np.ndarray, N: int) -> np.ndarray:
    """Triple convolution over the cube, restricted back to the cube."""
    modes = mode_tuples(grid)
    K = grid.K
    sel = [i for i in range(grid.n_modes) if np.abs(modes[i]).max() <= N]
    flat = coeffs.reshape(-1)
    out = np.zeros(grid.n_modes, dtype=complex)
    for i, j in itertools.product(sel, sel):
        nij = modes[i] + modes[j]
        if np.abs(nij).max() > 2 * K:
            continue
        for k in sel:
            n = nij + modes[k]
            if np.abs(n).max() <= N:
                out[flat_index(grid, n)] += flat[i] * flat[j] * flat[k]
    return out.reshape(grid.mode_shape)


@pytest.mark.parametrize("d,M,N", [(1, 18, 4), (1, 19, 3), (2, 10, 2), (3, 6, 1)])
def test_dealiased_cube_matches_convolution(d, M, N, rng):
    grid = GridSpec(d, M, d + 1.0)
    f = random_hermitian_coeffs(grid, rng, decay=0.5)
    got = dealiased_cube_coeffs(grid, f, N)
    want = brute_force_cube(grid, f, N)
    assert np.max(np.abs(got - want)) < 1e-10


def test_dealiased_cube_constant():
    grid = GridSpec(1, 11, 2.0)
    f = np.zeros(grid.mode_shape, dtype=complex)
    f[flat_index(grid, (0,))] = 1.7
    out = dealiased_cube_coeffs(grid, f, 2)
    want = np.zeros(grid.mode_shape, dtype=complex)
    want[flat_index(grid, (0,))] = 1.7**3
    assert np.max(np.abs(out - want)) < 1e-12


def test_dealiased_cube_guards(rng):
    grid = GridSpec(1, 11, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    with pytest.raises(AliasError):
        dealiased_cube_coeffs(grid, f, 3)  # needs M >= 14
    assert np.all(dealiased_cube_coeffs(grid, f, -1) == 0)
    assert np.all(dealiased_cube_coeffs(grid, np.zeros_like(f), 2) == 0)


def test_dealiased_cube_single_mode():
    # (2 cos(3x))^3 = 6 cos(3x) + 2 cos(9x); only the 3-mode survives at N=3
    grid = GridSpec(1, 15, 2.0)
    f = np.zeros(grid.mode_shape, dtype=complex)
    f[flat_index(grid, (3,))] = 1.0
    f[flat_index(grid, (-3,))] = 1.0
    out = dealiased_cube_coeffs(grid, f, 3)
    want = np.zeros(grid.mode_shape, dtype=complex)
    want[flat_index(grid, (3,))] = 3.0
    want[flat_index(grid, (-3,))] = 3.0
    assert np.max(np.abs(out - want)) < 1e-12


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_sobolev_pair_norm_oracle(rng):
    grid = GridSpec(1, 13, 2.0)
    v = random_state(grid, rng)
    alpha = 0.7
    modes = mode_tuples(grid)[:, 0].astype(float)
    br = 1.0 + modes**2
    want = np.sqrt(
        np.sum(br**alpha * np.abs(v[0]) ** 2)
        + np.sum(br ** (alpha - grid.s / 2) * np.abs(v[1]) ** 2)
    )
    assert np.isclose(sobolev_pair_norm(grid, v, alpha), want, rtol=1e-12)


def test_sobolev_pair_norm_cases(rng):
    grid = GridSpec(1, 13, 4.0)
    assert sobolev_pair_norm(grid, zero_state(grid), 0.3) == 0.0
    v = zero_state(grid)
    n = 4
    v[0, flat_index(grid, (n,))] = 0.5
    v[0, flat_index(grid, (-n,))] = 0.5
    alpha = 1.1
    want = np.sqrt(2 * 0.25) * (1 + n**2) ** (alpha / 2)
    assert np.isclose(sobolev_pair_norm(grid, v, alpha), want, rtol=1e-12)


@pytest.mark.parametrize("d,M", [(1, 13), (2, 9), (3, 7)])
def test_sobolev_pair_norm_batched_matches_single(d, M, rng):
    grid = GridSpec(d, M, d + 1.0)
    states = np.stack([random_state(grid, rng) for _ in range(6)]).reshape(2, 3, 2, grid.n_modes)
    got = sobolev_pair_norm(grid, states, 0.6)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == sobolev_pair_norm(grid, states[i, j], 0.6)


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.0, 2.0), st.integers(0, 2**31 - 1))
def test_norm_homogeneity_triangle(alpha, seed):
    r = np.random.default_rng(seed)
    grid = GridSpec(1, 9, 2.0)
    v, w = random_state(grid, r), random_state(grid, r)
    c = 1.0 + float(r.uniform(0, 3))
    assert np.isclose(
        sobolev_pair_norm(grid, c * v, alpha), c * sobolev_pair_norm(grid, v, alpha), rtol=1e-10
    )
    assert sobolev_pair_norm(grid, v + w, alpha) <= (
        sobolev_pair_norm(grid, v, alpha) + sobolev_pair_norm(grid, w, alpha) + 1e-12
    )


def test_holder_norm_cases():
    grid = GridSpec(1, 17, 2.0)
    assert holder_norm(grid, zero_state(grid), 0.4) == 0.0
    # u = cos(n x): sup = 1 at beta = 0, <n>^beta in general
    for n, beta in [(3, 0.0), (3, 0.8), (5, -0.5)]:
        v = zero_state(grid)
        v[0, flat_index(grid, (n,))] = 0.5
        v[0, flat_index(grid, (-n,))] = 0.5
        want = (1 + n**2) ** (beta / 2)
        assert np.isclose(holder_norm(grid, v, beta), want, rtol=1e-9)


def test_holder_velocity_weight():
    grid = GridSpec(1, 17, 4.0)
    v = zero_state(grid)
    n, beta = 4, 0.9
    v[1, flat_index(grid, (n,))] = 0.5
    v[1, flat_index(grid, (-n,))] = 0.5
    want = (1 + n**2) ** ((beta - grid.s / 2) / 2)
    assert np.isclose(holder_norm(grid, v, beta), want, rtol=1e-9)


def test_holder_norm_is_grid_max(rng):
    grid = GridSpec(1, 11, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    weighted = f * bracket2(grid) ** 0.35
    dense = np.max(np.abs(coeffs_to_grid(grid, weighted, 4096)))
    got = holder_sup(grid, f.reshape(-1), 0.7, oversample=2)
    # grid max under-estimates the sup, but not by much, and more points help
    assert got <= dense + 1e-12
    assert got >= 0.85 * dense
    finer = holder_sup(grid, f.reshape(-1), 0.7, oversample=8)
    assert got <= finer + 1e-12 and finer <= dense + 1e-12


# ---------------------------------------------------------------------------
# quartic integral
# ---------------------------------------------------------------------------


def test_quartic_constant():
    for d in (1, 2, 3):
        grid = GridSpec(d, 5, d + 1.0)
        f = np.zeros(grid.mode_shape, dtype=complex)
        f[(grid.K,) * d] = -1.3
        assert np.isclose(quartic_integral_coeffs(grid, f), (-1.3) ** 4 * TWO_PI**d, rtol=1e-12)


def test_quartic_cosine():
    # integral of cos^4 over [0, 2*pi) is 3*pi/4
    grid = GridSpec(1, 9, 2.0)
    f = np.zeros(grid.mode_shape, dtype=complex)
    f[flat_index(grid, (1,))] = 0.5
    f[flat_index(grid, (-1,))] = 0.5
    assert np.isclose(quartic_integral_coeffs(grid, f), 3 * np.pi / 4, rtol=1e-12)


def test_quartic_refined_quadrature_oracle(rng):
    grid = GridSpec(1, 13, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    vals = coeffs_to_grid(grid, f, 8192)
    want = np.mean(vals**4) * TWO_PI
    assert np.isclose(quartic_integral_coeffs(grid, f), want, rtol=1e-10)
    grid2 = GridSpec(2, 7, 3.0)
    g = random_hermitian_coeffs(grid2, rng)
    vals2 = coeffs_to_grid(grid2, g, 128)
    want2 = np.mean(vals2**4) * TWO_PI**2
    assert np.isclose(quartic_integral_coeffs(grid2, g), want2, rtol=1e-10)


def test_quartic_nonnegative_and_scaling(rng):
    grid = GridSpec(1, 9, 2.0)
    f = random_hermitian_coeffs(grid, rng)
    q = quartic_integral_coeffs(grid, f)
    assert q >= 0
    assert np.isclose(quartic_integral_coeffs(grid, 2.0 * f), 16 * q, rtol=1e-12)


# ---------------------------------------------------------------------------
# misc coefficient plumbing
# ---------------------------------------------------------------------------


def test_hermitianize_projects(rng):
    grid = GridSpec(2, 7, 3.0)
    raw = rng.standard_normal(grid.mode_shape) + 1j * rng.standard_normal(grid.mode_shape)
    f = hermitianize(grid, raw)
    assert is_hermitian(grid, f, 1e-12)
    assert np.max(np.abs(hermitianize(grid, f) - f)) < 1e-14


def test_omega2_values():
    grid = GridSpec(1, 9, 4.0)
    w2 = omega2(grid).reshape(-1)
    assert np.isclose(w2[flat_index(grid, (0,))], 1.0)
    assert np.isclose(w2[flat_index(grid, (2,))], 1 + 2.0**4)
