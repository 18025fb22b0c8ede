"""Exact linear dynamics for the damped fractional wave system.

Each Fourier mode of (u, u_t) evolves independently under the 2x2 system
dv = A_n v dt + sqrt(2) e_2 dW,  A_n = [[0, 1], [-(1+|n|^s), -1]],
whose propagator exp(t A_n) is available in closed trigonometric form.  This
module provides batched propagator tables, the exact Ornstein--Uhlenbeck
transition increments (no time-discretization error in the linear part),
and a decay-weighted sup norm built on the propagator.

Complex modes carry independent real and imaginary parts, each an identical
copy of the real 2D system with half the noise intensity; the zero mode is
purely real with the full intensity.  That bookkeeping lives entirely in the
increment sampler, so states can be propagated as flat complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import GridSpec, half_lattice, holder_norm, omega2

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def lam(grid: GridSpec) -> np.ndarray:
    """Per-mode oscillation rate sqrt(3/4 + |n|^s), flat layout."""
    return np.sqrt(0.75 + (omega2(grid).reshape(-1) - 1.0))


def propagator(grid: GridSpec, t: float) -> np.ndarray:
    """exp(t A_n) for every mode, shape (n_modes, 2, 2).

    Closed form: with l = sqrt(3/4 + |n|^s), c = cos(tl), s = sin(tl),
    exp(t A_n) = e^{-t/2} [[c + s/(2l), s/l], [-(l + 1/(4l)) s, c - s/(2l)]].
    """
    if t < 0:
        raise ValueError("propagator time must be nonnegative")
    l = lam(grid)
    c = np.cos(t * l)
    s = np.sin(t * l)
    out = np.empty((grid.n_modes, 2, 2))
    out[:, 0, 0] = c + s / (2 * l)
    out[:, 0, 1] = s / l
    out[:, 1, 0] = -(l + 1.0 / (4 * l)) * s
    out[:, 1, 1] = c - s / (2 * l)
    out *= np.exp(-t / 2)
    return out


def stationary_covariance(grid: GridSpec) -> np.ndarray:
    """Per-mode stationary covariance diag(1/omega_n^2, 1), shape (n_modes,2,2)."""
    w2 = omega2(grid).reshape(-1)
    C = np.zeros((grid.n_modes, 2, 2))
    C[:, 0, 0] = 1.0 / w2
    C[:, 1, 1] = 1.0
    return C


def step_covariance(grid: GridSpec, h: float) -> np.ndarray:
    """Exact transition covariance Q_h = C_inf - S(h) C_inf S(h)^T per mode."""
    S = propagator(grid, h)
    C = stationary_covariance(grid)
    Q = C - S @ C @ np.swapaxes(S, 1, 2)
    return 0.5 * (Q + np.swapaxes(Q, 1, 2))


def propagate_states(S: np.ndarray, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply per-mode 2x2 matrices S (n_modes, 2, 2) to flat states (..., 2, n_modes).

    out[..., :, m] = S[m, :, 0] * states[..., 0, m] + S[m, :, 1] * states[..., 1, m],
    as two broadcast products over the columns of S.  A complex S whose memory
    holds each column as one contiguous (2, n_modes) block (see
    `propagator_columns`) is applied with no casting or strided reads.  The
    result goes into `out` when one is given; it must not share memory with
    states.
    """
    cols = S.transpose(2, 1, 0)  # cols[j][i, m] = S[m, i, j]
    out = np.multiply(cols[0], states[..., 0:1, :], out=out)
    out += cols[1] * states[..., 1:2, :]
    return out


def propagator_columns(S: np.ndarray) -> np.ndarray:
    """The matrices S (n_modes, 2, 2) as a complex view over column-major
    per-entry memory, the layout `propagate_states` reads fastest."""
    return np.ascontiguousarray(S.transpose(2, 1, 0), dtype=complex).transpose(2, 1, 0)


@dataclass(frozen=True)
class PropagatorTable:
    """Precomputed per-mode data for repeated exact steps of size h.

    S is indexed by flat mode; the noise blocks live on the half lattice
    (zero mode first), since the mirrored modes are determined by Hermitian
    symmetry.
    """

    grid: GridSpec
    h: float
    S: np.ndarray  # (n_modes, 2, 2)
    Q: np.ndarray  # (n_half, 2, 2)
    chol: np.ndarray  # (n_half, 2, 2) lower Cholesky of Q

    @property
    def n_half(self) -> int:
        return self.Q.shape[0]


def shift_direction(grid: GridSpec, h: float) -> np.ndarray:
    """Exact one-step state shift of a unit velocity-channel control.

    Returns mhat = sqrt(2) A^{-1}(S(h)-I) e_2 = sqrt(2) int_0^h S(u) e_2 du
    on the half lattice, shape (n_half, 2).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    half = half_lattice(grid)
    S_half = propagator(grid, h)[half]
    w2 = omega2(grid).reshape(-1)[half]
    # A^{-1} = [[-1, -1], [omega^2, 0]] / omega^2
    rhs = S_half[:, :, 1] - np.array([0.0, 1.0])
    return np.sqrt(2.0) * np.stack([-(rhs[:, 0] + rhs[:, 1]) / w2, rhs[:, 0]], axis=-1)


@lru_cache(maxsize=64)
def build_table(grid: GridSpec, h: float) -> PropagatorTable:
    if h <= 0:
        raise ValueError("step size must be positive")
    S = propagator(grid, h)
    half = half_lattice(grid)
    Q = step_covariance(grid, h)[half]
    chol = np.linalg.cholesky(Q)
    for arr in (S, Q, chol):
        arr.flags.writeable = False
    return PropagatorTable(grid, float(h), S, Q, chol)


# ---------------------------------------------------------------------------
# increment sampling and scattering
# ---------------------------------------------------------------------------


def draw_increments(
    table: PropagatorTable,
    gen: np.random.Generator | list[np.random.Generator],
    n_steps: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sample n_steps exact transition increments from one generator, or from
    each of a list of generators.

    Returns a complex array of shape (n_steps, n_half, 2) for one generator,
    and (rows, n_steps, n_half, 2) for a list of `rows` generators, row r
    drawn from gen[r].  It is written into `out` when one is given; `out`
    must be C-contiguous complex of exactly that shape, since the normals are
    drawn straight into its memory.  Each generator fills its own
    (n_steps, n_half, 2, 2) block of standard normals in C order, so the
    sampled values depend only on that generator's stream position, never on
    how many steps or rows are requested per call.  The transform that
    follows is elementwise, so it runs once over all rows.
    """
    single = isinstance(gen, np.random.Generator)
    gens = [gen] if single else gen
    shape = (n_steps, table.n_half, 2) if single else (len(gens), n_steps, table.n_half, 2)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    # (re, im) of each component, one leading row per generator
    g = out.view(float).reshape((len(gens), n_steps, table.n_half, 2, 2))
    for row_gen, row in zip(gens, g):
        row_gen.standard_normal(out=row)
    g[..., 1:, :, :] *= INV_SQRT2
    g[..., 0, :, 1] = 0.0  # zero mode: real, full variance
    # z <- chol[m] @ z in place; chol is lower triangular, so component 1
    # is updated while component 0 still holds its normal
    L = table.chol
    z0, z1 = out[..., 0], out[..., 1]
    z1 *= L[:, 1, 1]
    z1 += L[:, 1, 0] * z0
    z0 *= L[:, 0, 0]
    return out


def increments_to_states(grid: GridSpec, eta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Expand half-lattice increments (..., n_half, 2) to flat states (..., 2,
    n_modes), written into out when one is given."""
    # the half lattice is the flat range from the zero mode up, and its mirror
    # images are the range below it in reverse order (spectral._lattice), so
    # both writes are basic slices and together they cover every mode
    zero = half_lattice(grid)[0]
    e = eta.swapaxes(-1, -2)
    if out is None:
        out = np.empty(e.shape[:-1] + (grid.n_modes,), dtype=complex)
    out[..., zero:] = e
    np.conjugate(e[..., 1:], out=out[..., zero - 1 :: -1])
    return out


def states_to_increment_form(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    """Restrict flat states (..., 2, n_modes) to the half lattice as (..., n_half, 2)."""
    half = half_lattice(grid)
    return np.moveaxis(states[..., half], -1, -2)


# ---------------------------------------------------------------------------
# recorded noise
# ---------------------------------------------------------------------------


@dataclass
class NoisePath:
    """Recorded transition increments of one trajectory.

    increments has shape (n_steps, n_half, 2), complex, one exact transition
    increment per step of size h; the k-th entry was added after propagating
    from time k*h to (k+1)*h.
    """

    grid: GridSpec
    h: float
    increments: np.ndarray
    seed: int = 0

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    def check(self) -> None:
        nh = half_lattice(self.grid).size
        if self.increments.ndim != 3 or self.increments.shape[1:] != (nh, 2):
            raise ValueError("increment array shape does not match grid")


def xalpha_norm(
    grid: GridSpec, state: np.ndarray, alpha: float, horizon: float = 20.0, dt: float = 0.05
) -> float:
    """Decay-weighted sup norm of a flat state (2, n_modes): max over
    {0, dt, ..., horizon} of e^{t/8} times the Hoelder norm of the propagated
    state.

    A lower bound of the true sup over t >= 0; the tail beyond the horizon is
    negligible for band-limited fields since the propagator decays like
    e^{-t/2} while the weight only grows like e^{t/8}.  Like a running
    maximum from 0, the sup skips NaN norms.
    """
    if horizon < 0 or dt <= 0:
        raise ValueError("horizon must be >= 0 and dt > 0")
    S = propagator(grid, dt)
    n_times = int(np.floor(horizon / dt + 1e-9)) + 1
    states = np.empty((n_times, 2, grid.n_modes), dtype=complex)
    states[0] = state
    for k in range(1, n_times):
        states[k] = propagate_states(S, states[k - 1])
    weighted = np.exp(np.arange(n_times) * dt / 8.0) * holder_norm(grid, states, alpha)
    return float(np.fmax.reduce(weighted, initial=0.0))
