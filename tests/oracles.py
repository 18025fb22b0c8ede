"""Test-only reference forms of the stepping kernel's parts.

These are the straightforward formulations the library used before its
stepper precomputed its tables: an einsum for the per-mode propagation, a
zero-filled scatter through fancy indices, cube masks with np.ix_ embeddings
and full complex transforms for the alias-free cube, and `vals**4` for the
quartic integral.  The library's propagation, scatter, draws and transforms
perform the same floating-point operations in the same order, so they agree
bit for bit (up to the sign of exact zeros, which np.array_equal ignores).
Its cube runs through the half spectrum and its quartic squares twice, so
those, and the kicks and steps built on them, agree to rounding.
"""

from __future__ import annotations

import numpy as np

from gibbsdyn.spectral import TWO_PI, GridSpec, cube_mask, half_lattice, mirror_of_half, occupied_band
from scipy.fft import next_fast_len


def propagate_states(S: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Per-mode 2x2 matrices S (n_modes, 2, 2) applied to (..., 2, n_modes)."""
    return np.einsum("mij,...jm->...im", S, states)


def increments_to_states(grid: GridSpec, eta: np.ndarray) -> np.ndarray:
    """Half-lattice increments (..., n_half, 2) to flat states (..., 2, n_modes)."""
    half = half_lattice(grid)
    mirr = mirror_of_half(grid)
    e = np.moveaxis(eta, -1, -2)
    out = np.zeros(e.shape[:-1] + (grid.n_modes,), dtype=complex)
    out[..., half] = e
    out[..., mirr[1:]] = np.conj(e[..., 1:])
    return out


def _embed_index(grid: GridSpec, m: int) -> tuple[np.ndarray, ...]:
    pos = np.arange(-grid.K, grid.K + 1) % m
    return np.ix_(*([pos] * grid.d))


def coeffs_to_grid(grid: GridSpec, coeffs: np.ndarray, m: int | None = None) -> np.ndarray:
    m = grid.M if m is None else int(m)
    lead = coeffs.shape[: coeffs.ndim - grid.d]
    emb = np.zeros(lead + (m,) * grid.d, dtype=complex)
    emb[(Ellipsis,) + _embed_index(grid, m)] = coeffs
    axes = tuple(range(len(lead), len(lead) + grid.d))
    vals = np.fft.ifftn(emb, axes=axes) * float(m) ** grid.d
    return vals.real


def grid_to_coeffs(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    lead = values.shape[: values.ndim - grid.d]
    m = values.shape[-1]
    axes = tuple(range(len(lead), len(lead) + grid.d))
    c = np.fft.fftn(values, axes=axes) / float(m) ** grid.d
    return c[(Ellipsis,) + _embed_index(grid, m)]


def dealiased_cube_coeffs(grid: GridSpec, coeffs: np.ndarray, N: int) -> np.ndarray:
    if N == -1:
        return np.zeros_like(coeffs)
    trunc = coeffs * cube_mask(grid, N)
    vals = coeffs_to_grid(grid, trunc)
    return grid_to_coeffs(grid, vals**3) * cube_mask(grid, N)


def quartic_integral_coeffs(grid: GridSpec, coeffs: np.ndarray, band: int | None = None) -> np.ndarray:
    if band is None:
        band = occupied_band(grid, coeffs)
    m = next_fast_len(max(4 * band + 2, 2 * grid.K + 1))
    vals = coeffs_to_grid(grid, coeffs, m)
    axes = tuple(range(vals.ndim - grid.d, vals.ndim))
    return np.mean(vals**4, axis=axes) * TWO_PI**grid.d


def kick_states(grid: GridSpec, N: int, gamma: float, states: np.ndarray, h: float) -> None:
    """In-place p -= h * gamma * P_N (P_N u)^3 over the whole band."""
    if gamma == 0.0 or N < 0:
        return
    batch = states.shape[:-2]
    coeffs = states[..., 0, :].reshape(batch + grid.mode_shape)
    cube = dealiased_cube_coeffs(grid, coeffs, N)
    states[..., 1, :] -= (h * gamma) * cube.reshape(batch + (grid.n_modes,))


def split_step(
    grid: GridSpec, N: int, gamma: float, h: float, S: np.ndarray, states: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    """One splitting step of states (..., 2, n_modes) with the half-step
    propagator S and the two half-step increments eta (2, ..., n_half, 2)."""
    s = propagate_states(S, states) + increments_to_states(grid, eta[0])
    kick_states(grid, N, gamma, s, h)
    return propagate_states(S, s) + increments_to_states(grid, eta[1])


def draw_increments(chol: np.ndarray, gen: np.random.Generator, n_steps: int) -> np.ndarray:
    """Exact transition increments (n_steps, n_half, 2) from one generator."""
    g = gen.standard_normal((n_steps, chol.shape[0], 2, 2))
    z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0))
    z[:, 0, :] = g[:, 0, :, 0]
    return np.einsum("mij,smj->smi", chol, z)
