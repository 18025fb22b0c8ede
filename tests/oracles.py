"""Test-only reference forms of the stepping kernel's parts, and of the
sample-time work the library now does in batches.

These are the straightforward formulations the library used before its
stepper precomputed its tables: an einsum for the per-mode propagation, a
zero-filled scatter through fancy indices, cube masks with np.ix_ embeddings
and full complex transforms for the alias-free cube, and `vals**4` for the
quartic integral.  The library's propagation, scatter, draws and transforms
perform the same floating-point operations in the same order, so they agree
bit for bit (up to the sign of exact zeros, which np.array_equal ignores).
Its cube runs through the half spectrum and its quartic squares twice, so
those, and the kicks and steps built on them, agree to rounding.

The per-sample loops at the end are the forms the library used before it
batched its sample-time work: observables called once per sample time,
remainder energies recomputed state by state, and the decay-weighted norm
taking one Hoelder norm per propagated state.  The batched forms perform the
same floating-point operations per row, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from gibbsdyn.flow import EnergyReport, Stepper, Trajectory, default_thin, energy
from gibbsdyn.linear_dynamics import draw_increments as draw_increments_lib
from gibbsdyn.linear_dynamics import pair_to_state, propagator, state_to_pair
from gibbsdyn.spectral import (
    TWO_PI,
    GridSpec,
    PairField,
    SpectralField,
    bracket2,
    cube_mask,
    half_lattice,
    mirror_of_half,
    occupied_band,
)
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


# ---------------------------------------------------------------------------
# per-sample loops
# ---------------------------------------------------------------------------


def holder_norm_field(field: SpectralField, beta: float, oversample: int = 2) -> float:
    """Grid sup of (1 - Laplacian)^(beta/2) of one field."""
    grid = field.grid
    weighted = field.coeffs * bracket2(grid) ** (beta / 2.0)
    m = next_fast_len(oversample * (2 * grid.K + 1))
    vals = coeffs_to_grid(grid, weighted, m)
    return float(np.max(np.abs(vals)))


def holder_norm(v: PairField, beta: float, oversample: int = 2) -> float:
    """Larger of the component sup norms at weights (beta, beta - s/2)."""
    return max(
        holder_norm_field(v.u, beta, oversample),
        holder_norm_field(v.p, beta - v.grid.s / 2.0, oversample),
    )


def xalpha_norm(v: PairField, alpha: float, horizon: float = 20.0, dt: float = 0.05) -> float:
    """The decay-weighted sup norm, one Hoelder norm per propagated state."""
    grid = v.grid
    S = propagator(grid, dt)
    state = pair_to_state(v)
    best = 0.0
    n_steps = int(np.floor(horizon / dt + 1e-9))
    for k in range(n_steps + 1):
        t = k * dt
        val = np.exp(t / 8.0) * holder_norm(state_to_pair(grid, state), alpha)
        if val > best:
            best = val
        state = propagate_states(S, state)
    return best


def energy_report(traj: Trajectory, alpha: float) -> EnergyReport:
    """The remainder's energy summary with every energy recomputed from
    `v_states()` and the linear norms taken state by state."""
    vs = traj.v_states()
    energies = np.array([energy(v) for v in vs])
    times = traj.times
    sup_e = float(np.nanmax(energies))
    tail = energies[len(energies) // 2 :]
    band = float(np.median(tail))
    e0 = energies[0]
    excess = energies - band
    fit_rate = 0.0
    fit_lo = fit_hi = 0.0
    if e0 > 2 * band and e0 > 0:
        mask = excess > max(band, 1e-12 * e0)
        stop = int(np.argmin(mask)) if not mask.all() else len(mask)
        stop = max(stop, 3)
        pts_t = times[:stop]
        pts_y = np.log(np.maximum(excess[:stop], 1e-300))
        slope, _ = np.polyfit(pts_t, pts_y, 1)
        fit_rate = float(-slope)
        fit_lo, fit_hi = float(pts_t[0]), float(pts_t[-1])
    scale = xalpha_norm(traj.linear_states[0], alpha)
    sup_lin = max(holder_norm(z, alpha) for z in traj.linear_states)
    base = max(scale, sup_lin)
    envelope = band / (1.0 + base ** (8.0 / alpha)) if base > 0 else band
    return EnergyReport(
        times=times,
        energies=energies,
        sup_energy=sup_e,
        band=band,
        decay_rate=fit_rate,
        envelope_constant=float(envelope),
        blowup_time=traj.blowup_time,
        fit_window=(fit_lo, fit_hi),
    )


def ensemble_series(cfg, initial_states, generators, observables, sample_every=None):
    """evolve_ensemble's sample times, series and final states, with every
    observable called on all rows once per sample time."""
    grid = cfg.grid
    stepper = Stepper(cfg)
    n_steps = cfg.n_steps
    every = default_thin(cfg.h) if sample_every is None else max(1, sample_every)
    steps = [k for k in range(1, n_steps + 1) if k % every == 0 or k == n_steps]
    index = {k: i + 1 for i, k in enumerate(steps)}
    series = {name: np.empty((len(steps) + 1, initial_states.shape[0])) for name in observables}

    def observe(i, states):
        for name, fn in observables.items():
            series[name][i] = fn(grid, states)

    draws = np.stack([draw_increments_lib(stepper.table, gen, 2 * n_steps) for gen in generators])
    observe(0, initial_states)
    layers = stepper.run(
        initial_states[None], [draws], index, lambda k, layers: observe(index[k], layers[0])
    )
    times = np.array([0.0] + [k * cfg.h for k in steps])
    return times, series, layers[0]
