"""Test-only reference forms of the stepping kernel's parts, and of the
sample-time work the library now does in batches.

These are the straightforward formulations the library used before its
stepper precomputed its tables: an einsum for the per-mode propagation, a
zero-filled scatter through fancy indices, cube masks with np.ix_ embeddings
and full complex transforms for the alias-free cube, and `vals**4` for the
quartic integral.  The library's propagation, scatter, draws and transforms
perform the same floating-point operations in the same order, so they agree
bit for bit (up to the sign of exact zeros, which np.array_equal ignores).
The in-place draw adds the Cholesky product's two terms in the other order
and leaves out the exact-zero upper entry; IEEE addition commutes, so that
changes no bit either.
Its cube runs through the half spectrum and its quartic squares twice, so
those, and the kicks and steps built on them, agree to rounding.

The per-sample loops at the end are the forms the library used before it
batched its sample-time work: observables called once per sample time,
remainder energies recomputed state by state, and the decay-weighted norm
taking one Hoelder norm per propagated state.  The batched forms perform the
same floating-point operations per row, so they agree bit for bit.  So do
the base-measure draw and the interaction over a whole ensemble in one
block, the forms the library used before its setup passes ran in row chunks.

The reference solvers and samplers only tests call are built on the
library's kernel: a Picard fixed-point solver for the remainder integral
equation, a single splitting step and kick on one state, the single-mode
generator and propagator, one exact OU transition, the stochastic
convolution sampled one member at a time and its two-time covariance by
quadrature, a rejection sampler for the quartic measure, and the coupling
experiment's initial remainder found by a fixed 200 bisection steps.  The
last section holds helpers only tests use: a Hermitian scatter from the half
lattice, one base-measure draw, the interaction of one field, a run's noise
path drawn again from a copy of its stream and the exact aggregation of a
noise path.

The Cameron--Martin toolkit at the end has no caller in the library: the
exact Girsanov shift of recorded noise by a control, the control's squared
Cameron--Martin norm and the exact log likelihood ratio of the shifted
increments, built on the one-step shift `linear_dynamics.shift_direction`
that the `control` subcommand's forward map also uses.

States are flat arrays (2, n_modes), as in the library.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from gibbsdyn import flow, linear_dynamics, spectral
from gibbsdyn.control import ControlPath
from gibbsdyn.flow import EnergyReport, FlowConfig, Stepper, Trajectory, default_thin, energy_states
from gibbsdyn.gibbs import GibbsConfig, WeightedEnsemble, interaction_states, sample_mu_states
from gibbsdyn.linear_dynamics import NoisePath, PropagatorTable, build_table, propagator, shift_direction
from gibbsdyn.spectral import (
    TWO_PI,
    GridSpec,
    bracket2,
    cube_mask,
    flat_index,
    half_lattice,
    mirror_of_half,
    occupied_band,
    omega2,
    sobolev_pair_norm,
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


def holder_norm_field(grid: GridSpec, coeffs: np.ndarray, beta: float, oversample: int = 2) -> float:
    """Grid sup of (1 - Laplacian)^(beta/2) of one field's coefficients."""
    weighted = coeffs.reshape(grid.mode_shape) * bracket2(grid) ** (beta / 2.0)
    m = next_fast_len(oversample * (2 * grid.K + 1))
    vals = coeffs_to_grid(grid, weighted, m)
    return float(np.max(np.abs(vals)))


def holder_norm(grid: GridSpec, state: np.ndarray, beta: float, oversample: int = 2) -> float:
    """Larger of the component sup norms of one state (2, n_modes) at weights
    (beta, beta - s/2)."""
    return max(
        holder_norm_field(grid, state[0], beta, oversample),
        holder_norm_field(grid, state[1], beta - grid.s / 2.0, oversample),
    )


def xalpha_norm(grid: GridSpec, state: np.ndarray, alpha: float, horizon: float = 20.0, dt: float = 0.05) -> float:
    """The decay-weighted sup norm, one Hoelder norm per propagated state."""
    S = propagator(grid, dt)
    best = 0.0
    n_steps = int(np.floor(horizon / dt + 1e-9))
    for k in range(n_steps + 1):
        t = k * dt
        val = np.exp(t / 8.0) * holder_norm(grid, state, alpha)
        if val > best:
            best = val
        state = propagate_states(S, state)
    return best


def energy(grid: GridSpec, state: np.ndarray) -> float:
    """Energy functional of one state (2, n_modes)."""
    return float(energy_states(grid, state[None])[0])


def energy_report(traj: Trajectory, alpha: float) -> EnergyReport:
    """The remainder's energy summary with every energy recomputed from
    `v_states()` and the linear norms taken state by state."""
    grid = traj.grid
    energies = np.array([energy(grid, v) for v in traj.v_states()])
    times = traj.times
    sup_e = float(np.nanmax(energies))
    tail = energies[len(energies) // 2 :]
    band = float(np.median(tail))
    e0 = energies[0]
    excess = energies - band
    fit_rate = 0.0
    fit_lo = fit_hi = 0.0
    fitted = bool(e0 > 2 * band and e0 > 0)
    if fitted:
        mask = excess > max(band, 1e-12 * e0)
        stop = int(np.argmin(mask)) if not mask.all() else len(mask)
        stop = max(stop, 3)
        pts_t = times[:stop]
        pts_y = np.log(np.maximum(excess[:stop], 1e-300))
        slope, _ = np.polyfit(pts_t, pts_y, 1)
        fit_rate = float(-slope)
        fit_lo, fit_hi = float(pts_t[0]), float(pts_t[-1])
    scale = xalpha_norm(grid, traj.linear_states[0], alpha)
    sup_lin = max(holder_norm(grid, z, alpha) for z in traj.linear_states)
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
        fitted=fitted,
    )


def ensemble_series(cfg, initial_states, generators, observables, sample_every=None):
    """evolve_ensemble's sample times, series and final states, with every
    observable called on all rows once per sample time."""
    grid = cfg.grid
    stepper = Stepper(cfg)
    n_steps = cfg.n_steps
    every = default_thin(cfg.h) if sample_every is None else max(1, sample_every)
    steps = [k for k in range(1, n_steps + 1) if k % every == 0 or k == n_steps]
    series = {name: np.empty((len(steps) + 1, initial_states.shape[0])) for name in observables}

    def observe(i, states):
        for name, fn in observables.items():
            series[name][i] = fn(grid, states)

    draws = np.stack([linear_dynamics.draw_increments(stepper.table, gen, 2 * n_steps) for gen in generators])
    observe(0, initial_states)
    layers = initial_states[None]
    for i, (k, layers) in enumerate(stepper.run(layers, [draws], every), 1):
        observe(i, layers[0])
    times = np.array([0.0] + [k * cfg.h for k in steps])
    return times, series, layers[0]


def sample_mu_states_one_block(grid: GridSpec, gen: np.random.Generator, count: int) -> np.ndarray:
    """gibbs.sample_mu_states with every member's normals drawn and scattered
    as one block."""
    half = half_lattice(grid)
    g = gen.standard_normal((count, half.size, 2, 2))
    z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0))
    z[:, 0, :] = g[:, 0, :, 0]
    z[..., 0] /= np.sqrt(omega2(grid).reshape(-1)[half])
    return increments_to_states(grid, z)


def interaction_states_one_block(states: np.ndarray, cfg: GibbsConfig) -> np.ndarray:
    """gibbs.interaction_states with every state's quartic evaluated in one
    transform batch."""
    if cfg.gamma == 0.0 or cfg.N < 0:
        return np.zeros(states.shape[:-2])
    grid = cfg.grid
    coeffs = states[..., 0, :] * cube_mask(grid, cfg.N).reshape(-1)
    quart = spectral.quartic_integral_coeffs(grid, coeffs.reshape(states.shape[:-2] + grid.mode_shape), band=cfg.N)
    return (cfg.gamma / 4.0) * quart / TWO_PI**grid.d


# ---------------------------------------------------------------------------
# reference solvers and samplers
# ---------------------------------------------------------------------------


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration expanded instead of contracting."""

    def __init__(self, message: str, ratio: float):
        super().__init__(message)
        self.ratio = ratio


def _picard_window(
    grid: GridSpec,
    cfg: FlowConfig,
    v0: np.ndarray,
    z_states: np.ndarray,
    h: float,
    max_iter: int = 80,
    tol: float = 1e-10,
) -> np.ndarray:
    """Fixed point of v(t) = S(t) v0 - int_0^t S(t-t') G(z+v)(t') dt' on one
    window, trapezoidal quadrature on the step grid; returns (K+1, 2, n_modes)."""
    K = z_states.shape[0] - 1
    S = propagator(grid, h)
    propagate = linear_dynamics.propagate_states
    hom = np.empty((K + 1, 2, grid.n_modes), dtype=complex)
    hom[0] = v0
    for k in range(1, K + 1):
        hom[k] = propagate(S, hom[k - 1])

    def forcing(states: np.ndarray) -> np.ndarray:
        out = np.zeros_like(states)
        if cfg.gamma == 0.0 or cfg.N < 0:
            return out
        coeffs = states[:, 0, :].reshape((K + 1,) + grid.mode_shape)
        cube = spectral.dealiased_cube_coeffs(grid, coeffs, cfg.N)
        out[:, 1, :] = cfg.gamma * cube.reshape(K + 1, grid.n_modes)
        return out

    v = np.zeros_like(hom)
    prev_delta = None
    ratio = np.nan
    for _ in range(max_iter):
        G = forcing(z_states + v)
        integral = np.zeros_like(v)
        for k in range(1, K + 1):
            integral[k] = propagate(S, integral[k - 1]) + (h / 2) * (
                propagate(S, G[k - 1]) + G[k]
            )
        v_new = hom - integral
        delta = max(sobolev_pair_norm(grid, v_new - v, grid.s / 2).tolist())
        v = v_new
        if delta < tol:
            return v
        if prev_delta is not None and prev_delta > 0:
            ratio = delta / prev_delta
            if ratio > 1.0 and delta > 1e-6:
                raise PicardDivergenceError(
                    f"no contraction on window of {K} steps "
                    f"(expansion ratio {ratio:.3f})",
                    ratio,
                )
        prev_delta = delta
    raise PicardDivergenceError(
        f"no convergence after {max_iter} sweeps (last ratio {ratio:.3f})", ratio
    )


def picard_solve(
    v0: np.ndarray | None,
    linear_path: np.ndarray,
    cfg: FlowConfig,
    T_loc: float | None = None,
) -> np.ndarray:
    """Solve the remainder integral equation along a realized linear path.

    linear_path holds z(t_k) on the step grid t_k = k*h, k = 0..K, as a
    (K+1, 2, n_modes) block.  Returns v on the same grid, the same shape,
    with v(0) = v0 (zero when None).  The window [0, T_loc] (default: the
    whole path) is covered by fixed-point iteration, halving the window and
    restarting from the reached state whenever the iteration fails to
    contract.
    """
    grid = cfg.grid
    z_states = np.asarray(linear_path).astype(complex)
    K_total = z_states.shape[0] - 1
    if T_loc is not None:
        K_total = round(T_loc / cfg.h)
        if K_total >= z_states.shape[0]:
            raise ValueError("linear path shorter than requested horizon")
        z_states = z_states[: K_total + 1]
    v_cur = (
        np.zeros((2, grid.n_modes), dtype=complex)
        if v0 is None
        else np.asarray(v0).astype(complex)
    )
    out = np.empty((K_total + 1, 2, grid.n_modes), dtype=complex)
    out[0] = v_cur
    done = 0
    window = K_total
    while done < K_total:
        w = min(window, K_total - done)
        try:
            seg = _picard_window(
                grid, cfg, out[done], z_states[done : done + w + 1], cfg.h
            )
        except PicardDivergenceError:
            if w == 1:
                raise
            window = max(1, w // 2)
            continue
        out[done + 1 : done + w + 1] = seg[1:]
        done += w
    return out


def nonlinear_kick(state: np.ndarray, h: float, cfg: FlowConfig) -> np.ndarray:
    """The kick applied to a copy of one state (u unchanged, p sheared)."""
    state = state.copy()
    flow.kick_states(cfg, state, h)
    return state


def step(
    state: np.ndarray, table: PropagatorTable, cfg: FlowConfig, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One splitting step of a state (2, n_modes); returns the new state and
    the two recorded half-step increments, shape (2, n_half, 2)."""
    if abs(table.h - cfg.h / 2) > 1e-12 * cfg.h:
        raise ValueError("table must be built at half the flow step")
    eta = linear_dynamics.draw_increments(table, gen, 2)
    *_, (_, layers) = Stepper(cfg).run(np.asarray(state, dtype=complex)[None, None], [eta[None]], 1)
    return layers[0, 0], eta


def generator_matrices(grid: GridSpec) -> np.ndarray:
    """Per-mode drift matrices A_n = [[0,1],[-omega_n^2,-1]], shape (n_modes,2,2)."""
    w2 = omega2(grid).reshape(-1)
    A = np.zeros((grid.n_modes, 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = -w2
    A[:, 1, 1] = -1.0
    return A


def mode_matrix(n: tuple[int, ...] | int, t: float, grid: GridSpec) -> np.ndarray:
    """Single-mode propagator exp(t A_n) as a plain 2x2 array."""
    if isinstance(n, int):
        n = (n,)
    if len(n) != grid.d:
        raise ValueError(f"mode {n} has wrong dimension for d={grid.d}")
    l = float(np.sqrt(0.75 + float(np.sum(np.asarray(n, dtype=float) ** 2)) ** (grid.s / 2)))
    c, s = np.cos(t * l), np.sin(t * l)
    m = np.array([[c + s / (2 * l), s / l], [-(l + 1.0 / (4 * l)) * s, c - s / (2 * l)]])
    return np.exp(-t / 2) * m


def apply_propagator(grid: GridSpec, state: np.ndarray, t: float) -> np.ndarray:
    """Propagate a state (2, n_modes) by the linear flow for time t."""
    return np.einsum("mij,jm->im", propagator(grid, t), state)


def exact_ou_step(
    state: np.ndarray, table: PropagatorTable, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One exact transition of the linear stochastic system.

    Returns the new state and the sampled half-lattice increments (n_half, 2),
    recorded exactly as added so a replay reproduces the trajectory.
    """
    eta = linear_dynamics.draw_increments(table, gen, 1)[0]
    state = linear_dynamics.propagate_states(table.S, state)
    state = state + linear_dynamics.increments_to_states(table.grid, eta)
    return state, eta


def stick_samples(t: float, table: PropagatorTable, generators: list) -> np.ndarray:
    """The stochastic convolution at time t = k * table.h from each generator,
    (B, 2, n_modes): the exact transition iterated from the zero state, one
    member at a time, as the decay experiment sampled it before it stepped
    every member at once through the ensemble engine."""
    k = round(t / table.h)
    out = np.empty((len(generators), 2, table.grid.n_modes), dtype=complex)
    for i, gen in enumerate(generators):
        eta = linear_dynamics.draw_increments(table, gen, k)
        state = np.zeros((2, table.grid.n_modes), dtype=complex)
        for j in range(k):
            state = linear_dynamics.propagate_states(table.S, state)
            state = state + linear_dynamics.increments_to_states(table.grid, eta[j])
        out[i] = state
    return out


def stick_covariance(grid: GridSpec, t: float, s: float, f: np.ndarray) -> float:
    """Two-time covariance E <z_t, f><z_s, f> of the stochastic convolution.

    Evaluates 2 * integral_0^{t^s} sum_n c_n Re[(S(t-u)^T f_n)_2 conj(
    (S(s-u)^T f_n)_2)] du per mode by composite Simpson quadrature, refined
    until the relative change drops below 1e-8 (c_n = 1 for the zero mode,
    2 for each half-lattice representative); f is a state (2, n_modes).
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    upper = min(t, s)
    if upper == 0:
        return 0.0
    half = half_lattice(grid)
    fu = f[0][half]
    fp = f[1][half]
    weights = np.full(half.size, 2.0)
    weights[0] = 1.0

    def integrand(u: np.ndarray) -> np.ndarray:
        vals = np.empty_like(u)
        for i, ui in enumerate(u):
            St = propagator(grid, t - ui)[half]
            Ss = propagator(grid, s - ui)[half]
            g = St[:, 0, 1] * fu + St[:, 1, 1] * fp  # (S^T f)_2
            hh = Ss[:, 0, 1] * fu + Ss[:, 1, 1] * fp
            vals[i] = float(np.sum(weights * (g * np.conj(hh)).real))
        return vals

    n = 8
    prev = None
    for _ in range(20):
        x = np.linspace(0.0, upper, n + 1)
        y = integrand(x)
        hstep = upper / n
        val = 2.0 * hstep / 3.0 * float(y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())
        if prev is not None and abs(val - prev) <= 1e-8 * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    return val


def sample_rho_rejection(
    cfg: GibbsConfig,
    count: int,
    gen: np.random.Generator,
    max_batches: int = 1000,
) -> WeightedEnsemble:
    """Exact rejection sampler (accept with probability exp(-interaction)).

    Only practical when the mean acceptance is not tiny; a pilot batch
    estimates it to size the main batches.
    """
    if count < 1:
        raise ValueError("count must be positive")
    pilot = sample_mu_states(cfg.grid, gen, 256)
    acc = float(np.mean(np.exp(-interaction_states(pilot, cfg))))
    batch = max(count, int(count / max(acc, 1e-6)))
    batch = min(batch, 10**6)
    chunks: list[np.ndarray] = []
    have = 0
    for _ in range(max_batches):
        states = sample_mu_states(cfg.grid, gen, batch)
        keep = gen.random(batch) < np.exp(-interaction_states(states, cfg))
        chunks.append(states[keep])
        have += int(keep.sum())
        if have >= count:
            break
    if have < count:
        raise RuntimeError(
            f"rejection sampler got {have}/{count} accepts in {max_batches} batches"
        )
    states = np.concatenate(chunks)[:count]
    return WeightedEnsemble(cfg.grid, states, np.zeros(count))


def scaled_to_energy(grid: GridSpec, target: float) -> np.ndarray:
    """harness._scaled_to_energy with a fixed 200 bisection steps."""
    base = np.zeros((2, grid.n_modes), dtype=complex)
    tup = (1,) + (0,) * (grid.d - 1)
    base[0, flat_index(grid, tup)] = 0.5
    base[0, flat_index(grid, tuple(-c for c in tup))] = 0.5

    lo, hi = 0.0, 1.0
    while energy(grid, hi * base) < target:
        hi *= 2
        if hi > 1e9:
            raise ValueError("target energy out of reach")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy(grid, mid * base) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * base


# ---------------------------------------------------------------------------
# test-only helpers with no library twin
# ---------------------------------------------------------------------------


def scatter_half(grid: GridSpec, half_values: np.ndarray) -> np.ndarray:
    """Build full Hermitian coefficients (..., *mode_shape) from values on the
    half lattice (..., n_half); the zero-mode entry is forced real."""
    half, mirr = half_lattice(grid), mirror_of_half(grid)
    out = np.zeros(half_values.shape[:-1] + (grid.n_modes,), dtype=complex)
    vals = half_values.astype(complex).copy()
    vals[..., 0] = vals[..., 0].real
    out[..., half] = vals
    out[..., mirr] = np.conj(vals)
    return out.reshape(half_values.shape[:-1] + grid.mode_shape)


def sample_mu(grid: GridSpec, gen: np.random.Generator) -> np.ndarray:
    """One exact draw from the Gaussian base measure, a state (2, n_modes)."""
    return sample_mu_states(grid, gen, 1)[0]


def interaction(coeffs: np.ndarray, cfg: GibbsConfig) -> float:
    """Interaction of one displacement's coefficients (mode shape or flat);
    the log density is -interaction."""
    state = np.zeros((2, cfg.grid.n_modes), dtype=complex)
    state[0] = np.asarray(coeffs).reshape(-1)
    return float(interaction_states(state[None], cfg)[0])


def redraw_noise(cfg: FlowConfig, gen: np.random.Generator, n_steps: int | None = None) -> NoisePath:
    """The half-step increments of the first n_steps steps (default all of
    cfg's) that a run of cfg draws from gen, drawn again: a run draws from
    its stream in order and keeps no increment, so a fresh copy of the
    stream gives its path."""
    steps = cfg.n_steps if n_steps is None else n_steps
    table = build_table(cfg.grid, cfg.h / 2)
    return NoisePath(cfg.grid, cfg.h / 2, linear_dynamics.draw_increments(table, gen, 2 * steps))


def combine_noise(path: NoisePath, factor: int) -> NoisePath:
    """Aggregate increments into steps of size factor*h, exactly.

    The linear transition over a coarse step equals S(h)^{factor} plus the
    coarse increment sum_j S((factor-1-j) h) eta_j, so coarse trajectories
    built from the combined path agree with fine ones at shared times to
    rounding.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    if path.n_steps % factor:
        raise ValueError("n_steps is not divisible by the aggregation factor")
    half = half_lattice(path.grid)
    powers = np.empty((factor, half.size, 2, 2))
    for j in range(factor):
        powers[j] = propagator(path.grid, (factor - 1 - j) * path.h)[half]
    blocks = path.increments.reshape(path.n_steps // factor, factor, half.size, 2)
    out = np.einsum("jmab,kjmb->kma", powers, blocks)
    return NoisePath(path.grid, factor * path.h, out, path.seed)


# ---------------------------------------------------------------------------
# Cameron--Martin shifts and the likelihood ratio
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def shift_readout(grid: GridSpec, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per half mode: mhat, the state shift of a unit constant control on the
    velocity channel over one step, mhat = sqrt(2) A^{-1}(S(h)-I) e_2;
    w = Q_h^{-1} mhat, the matched read-out for likelihood ratios; and
    kappa = mhat . w, the per-step quadratic weight."""
    mhat = shift_direction(grid, h)
    w = np.linalg.solve(build_table(grid, h).Q, mhat[..., None])[..., 0]
    kappa = np.einsum("mi,mi->m", mhat, w)
    for arr in (mhat, w, kappa):
        arr.flags.writeable = False
    return mhat, w, kappa


def shift_noise(noise: NoisePath, ctrl: ControlPath) -> NoisePath:
    """Add the control's per-step increment shifts mhat * h_hat to the noise.
    Because the shifts are the exact one-step images, the shifted noise moves
    the linear trajectory by exactly `control.forward_map(ctrl)`."""
    _check_match(ctrl, noise)
    mhat = shift_readout(ctrl.grid, ctrl.h)[0]
    shifted = noise.increments.copy()
    shifted[: ctrl.n_steps] += ctrl.values[..., None] * mhat[None, :, :]
    return NoisePath(noise.grid, noise.h, shifted, noise.seed)


def control_sq_norm(ctrl: ControlPath) -> float:
    """Squared Cameron--Martin norm: the exact quadrature sum of kappa-weighted
    squared control values over all modes (mirrored modes counted)."""
    kappa = shift_readout(ctrl.grid, ctrl.h)[2]
    per_mode = np.sum(np.abs(ctrl.values) ** 2 * kappa[None, :], axis=0)
    return float(per_mode[0] + 2 * per_mode[1:].sum())


def girsanov_logdensity(ctrl: ControlPath, noise: NoisePath) -> float:
    """log of the exact likelihood ratio of shifted vs unshifted increments.

    Per step and half mode, with m = mhat * h_hat and Q the step covariance:
    zero mode contributes m.Q^{-1} eta - m.Q^{-1}m/2, every other mode
    2 Re(m^H Q^{-1} eta) - m^H Q^{-1} m.  The expectation of its exponential
    over fresh noise is exactly one.
    """
    _check_match(ctrl, noise)
    w = shift_readout(ctrl.grid, ctrl.h)[1]
    eta = noise.increments[: ctrl.n_steps]
    dW = np.einsum("mc,kmc->km", w, eta)
    pair0 = float(np.sum(ctrl.values[:, 0].real * dW[:, 0].real))
    pair_rest = 2.0 * float(np.sum((np.conj(ctrl.values[:, 1:]) * dW[:, 1:]).real))
    return pair0 + pair_rest - 0.5 * control_sq_norm(ctrl)


def _check_match(ctrl: ControlPath, noise: NoisePath) -> None:
    ctrl.check()
    noise.check()
    if ctrl.grid != noise.grid:
        raise ValueError("control and noise live on different grids")
    if abs(ctrl.h - noise.h) > 1e-12 * max(ctrl.h, noise.h):
        raise ValueError("control and noise step sizes differ")
    if noise.n_steps < ctrl.n_steps:
        raise ValueError("noise path shorter than the control")
