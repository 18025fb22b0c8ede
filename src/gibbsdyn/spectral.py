"""Fourier-side representation of real fields on the d-torus.

Fields live on [0, 2*pi)^d and are stored by their Fourier coefficients on
the symmetric cube of modes {-K..K}^d with K = floor((M-1)/2), where M is the
number of physical grid points per dimension.  The expansion convention is

    u(x) = sum_n  u_hat(n) * exp(i n.x),

with the Hermitian symmetry u_hat(-n) = conj(u_hat(n)) for real fields, and
the normalized Parseval identity  sum_n |u_hat(n)|^2 = mean_x |u(x)|^2.
All L^2-type norms in this package use that normalized (unit-mass) measure;
`quartic_integral` is the one deliberately physical integral (it carries the
(2*pi)^d volume factor) because it feeds energy diagnostics.

A pair field (u, p) bundles a displacement with its velocity; the fractional
dissipation exponent `s` of the underlying dynamics is part of the grid spec
because every weighted norm on pairs refers to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * np.pi

# complex entries per batched array (1 MiB): the budget for the stepper's
# increment scatters, the held ensemble samples and the Hoelder transforms
BATCH_ITEMS = 1 << 16


@lru_cache(maxsize=None)
def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: a transform size pocketfft handles
    fast, and the value scipy.fft.next_fast_len gives for complex transforms.

    Cached because the observables ask for the same few sizes at every
    sample step.
    """
    m = max(int(n), 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class AliasError(ValueError):
    """Raised when a grid is too small for alias-free evaluation."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters: dimension, grid points per axis, dissipation order.

    M physical points per axis carry the modes -K..K with K = (M-1)//2; an
    even M leaves the unused Nyquist row identically zero.
    """

    d: int
    M: int
    s: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.M < 3:
            raise ValueError(f"M must be at least 3, got {self.M}")
        if not self.s > self.d:
            raise ValueError(f"s must exceed d for a normalizable base measure, got s={self.s}, d={self.d}")

    @property
    def K(self) -> int:
        return (self.M - 1) // 2

    @property
    def mode_shape(self) -> tuple[int, ...]:
        return (2 * self.K + 1,) * self.d

    @property
    def n_modes(self) -> int:
        return (2 * self.K + 1) ** self.d


@lru_cache(maxsize=None)
def _lattice(grid: GridSpec):
    """Precomputed mode bookkeeping shared by all operations on a grid."""
    K, d = grid.K, grid.d
    axis = np.arange(-K, K + 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    abs2 = np.zeros(grid.mode_shape)
    for m in mesh:
        abs2 += m.astype(float) ** 2
    modes = np.stack([m.ravel() for m in mesh], axis=1)  # (n_modes, d)

    # C order lists the modes in lexicographic order of the integer tuple, and
    # reversing every axis reverses the flat order.  So the half lattice (0,
    # then the modes whose first nonzero coordinate is positive, in
    # lexicographic order) is the flat range from the zero mode up, and the
    # mirror -n of flat index i is n_modes - 1 - i.
    zero_flat = grid.n_modes // 2
    half = np.arange(zero_flat, grid.n_modes)
    mirror = np.arange(grid.n_modes)[::-1].copy()

    return {
        "abs2": abs2,
        "modes": modes,
        "half": half,
        "mirror_of_half": mirror[half],
        "mirror": mirror,
        "zero_flat": zero_flat,
    }


def mode_tuples(grid: GridSpec) -> np.ndarray:
    """Integer mode vectors, shape (n_modes, d), C-order of the coefficient array."""
    return _lattice(grid)["modes"]


def half_lattice(grid: GridSpec) -> np.ndarray:
    """Flat indices of the stored half lattice: the zero mode, then one
    representative of each +-n pair (first nonzero coordinate positive),
    lexicographically ordered."""
    return _lattice(grid)["half"]


def mirror_of_half(grid: GridSpec) -> np.ndarray:
    return _lattice(grid)["mirror_of_half"]


def abs2_modes(grid: GridSpec) -> np.ndarray:
    return _lattice(grid)["abs2"]


def omega2(grid: GridSpec) -> np.ndarray:
    """Per-mode stiffness 1 + |n|^s."""
    return 1.0 + abs2_modes(grid) ** (grid.s / 2.0)


def bracket2(grid: GridSpec) -> np.ndarray:
    """Japanese bracket squared, 1 + |n|^2."""
    return 1.0 + abs2_modes(grid)


def flat_index(grid: GridSpec, n: Iterable[int]) -> int:
    """Flat coefficient index of an integer mode vector."""
    n = tuple(int(v) for v in n)
    if len(n) != grid.d:
        raise ValueError(f"mode {n} has wrong dimension for d={grid.d}")
    K = grid.K
    if any(abs(v) > K for v in n):
        raise ValueError(f"mode {n} outside the grid band (K={K})")
    idx = 0
    for v in n:
        idx = idx * (2 * K + 1) + (v + K)
    return idx


@dataclass
class SpectralField:
    """A real scalar field stored by its Fourier coefficients on the mode cube."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != self.grid.mode_shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.mode_shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        c = self.coeffs.ravel()
        return bool(np.max(np.abs(c - np.conj(c[_lattice(self.grid)["mirror"]]))) <= tol)


@dataclass
class PairField:
    """Displacement/velocity pair (u, u_t) on a common grid."""

    u: SpectralField
    p: SpectralField

    def __post_init__(self):
        if self.u.grid != self.p.grid:
            raise ValueError("pair components must share a grid")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def copy(self) -> "PairField":
        return PairField(self.u.copy(), self.p.copy())


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.mode_shape, dtype=complex))


def zero_pair(grid: GridSpec) -> PairField:
    return PairField(zero_field(grid), zero_field(grid))


def hermitianize(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto the Hermitian (real-field) subspace."""
    mirror = _lattice(grid)["mirror"]
    flat = coeffs.reshape(coeffs.shape[: coeffs.ndim - grid.d] + (grid.n_modes,))
    sym = 0.5 * (flat + np.conj(flat[..., mirror]))
    return sym.reshape(coeffs.shape)


def scatter_half(grid: GridSpec, half_values: np.ndarray) -> np.ndarray:
    """Build full Hermitian coefficients from values on the half lattice.

    half_values has shape (..., n_half); the zero-mode entry is forced real.
    """
    lat = _lattice(grid)
    half, mirr = lat["half"], lat["mirror_of_half"]
    out = np.zeros(half_values.shape[:-1] + (grid.n_modes,), dtype=complex)
    vals = half_values.astype(complex).copy()
    vals[..., 0] = vals[..., 0].real
    out[..., half] = vals
    out[..., mirr] = np.conj(vals)
    return out.reshape(half_values.shape[:-1] + grid.mode_shape)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _embedding(band: int, m: int, d: int) -> tuple:
    """Where the modes -band..band of a coefficient array sit on an m^d FFT grid.

    Mode n lives at position n mod m on every axis, so the (2*band+1)^d block
    splits into 2^d rectangles.  Returns (grid index, coefficient index) pairs,
    one per rectangle, for copying between the two layouts with basic slicing.
    """
    if m < 2 * band + 1:
        raise ValueError(f"evaluation grid m={m} cannot hold the band K={band}")
    pairs = [(slice(0, band + 1), slice(band, 2 * band + 1))]
    if band > 0:
        pairs.append((slice(m - band, m), slice(0, band)))
    rects = [((), ())]
    for _ in range(d):
        rects = [(g + (gs,), c + (cs,)) for g, c in rects for gs, cs in pairs]
    return tuple(((Ellipsis,) + g, (Ellipsis,) + c) for g, c in rects)


def _embed(coeffs: np.ndarray, blocks: tuple, m: int, d: int) -> np.ndarray:
    """Zero-padded m^d FFT layout of the modes `blocks` selects (batch dims allowed)."""
    emb = np.zeros(coeffs.shape[: coeffs.ndim - d] + (m,) * d, dtype=complex)
    for g, c in blocks:
        emb[g] = coeffs[c]
    return emb


def _over_last(transform, a: np.ndarray, d: int) -> np.ndarray:
    """np.fft.fftn/ifftn over the last d axes without their argument handling:
    the same 1-D `transform` calls, last axis first."""
    for axis in range(-1, -d - 1, -1):
        a = transform(a, axis=axis)
    return a


def coeffs_to_grid(grid: GridSpec, coeffs: np.ndarray, m: int | None = None) -> np.ndarray:
    """Evaluate coefficient arrays (leading batch dims allowed) on an m^d grid."""
    m = grid.M if m is None else int(m)
    emb = _embed(coeffs, _embedding(grid.K, m, grid.d), m, grid.d)
    vals = _over_last(np.fft.ifft, emb, grid.d) * float(m) ** grid.d
    return vals.real


def grid_to_coeffs(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of real grid samples, restricted to the mode cube."""
    m = values.shape[-1]
    c = _over_last(np.fft.fft, values, grid.d) / float(m) ** grid.d
    out = np.empty(values.shape[: values.ndim - grid.d] + grid.mode_shape, dtype=complex)
    for g, cs in _embedding(grid.K, m, grid.d):
        out[cs] = c[g]
    return out


def to_physical(field: SpectralField, m: int | None = None) -> np.ndarray:
    return coeffs_to_grid(field.grid, field.coeffs, m)


def from_physical(grid: GridSpec, values: np.ndarray) -> SpectralField:
    return SpectralField(grid, grid_to_coeffs(grid, values))


# ---------------------------------------------------------------------------
# projections and products
# ---------------------------------------------------------------------------


def cube_mask(grid: GridSpec, N: int) -> np.ndarray:
    """Boolean mask of modes with max_j |n_j| <= N; empty for N = -1."""
    if N < -1:
        raise ValueError(f"cube size must be >= -1, got {N}")
    if N > grid.K:
        raise ValueError(f"cube size N={N} exceeds the grid band K={grid.K}")
    if N == -1:
        return np.zeros(grid.mode_shape, dtype=bool)
    K = grid.K
    axis = np.abs(np.arange(-K, K + 1)) <= N
    mask = axis
    for _ in range(grid.d - 1):
        mask = np.multiply.outer(mask, axis)
    return mask


@lru_cache(maxsize=None)
def cube_index(grid: GridSpec, N: int) -> tuple:
    """Basic index of the modes max_j |n_j| <= N in a (..., *mode_shape) array."""
    if not 0 <= N <= grid.K:
        raise ValueError(f"cube size N={N} outside [0, K={grid.K}]")
    return (Ellipsis,) + (slice(grid.K - N, grid.K + N + 1),) * grid.d


def project_cube_coeffs(grid: GridSpec, coeffs: np.ndarray, N: int) -> np.ndarray:
    return coeffs * cube_mask(grid, N)


def project_cube(field: SpectralField, N: int) -> SpectralField:
    """Sharp Fourier truncation to the cube of side 2N+1 (zero field for N=-1)."""
    return SpectralField(field.grid, project_cube_coeffs(field.grid, field.coeffs, N))


@lru_cache(maxsize=None)
def _half_cube(grid: GridSpec, N: int) -> tuple:
    """Slice tables for cubing the modes |n|_inf <= N through the half spectrum.

    Returns (pos, neg, blocks).  In a (..., *mode_shape) array, pos selects the
    cube's modes whose last coordinate is 0..N, and neg selects their mirror
    images -n in the same order.  blocks pairs each rectangle of the
    M^(d-1) x (M//2+1) real-FFT layout (last-axis positions 0..N) with its
    rectangle of a pos-shaped array.
    """
    K = grid.K
    stop = K - N - 1 if K > N else None  # a downward slice through index K - N
    lead = (slice(K - N, K + N + 1),) * (grid.d - 1)
    lead_rev = (slice(K + N, stop, -1),) * (grid.d - 1)
    pos = (Ellipsis,) + lead + (slice(K, K + N + 1),)
    neg = (Ellipsis,) + lead_rev + (slice(K, stop, -1),)
    last = slice(0, N + 1)
    blocks = tuple(
        (g + (last,), c + (slice(None),)) for g, c in _embedding(N, grid.M, grid.d - 1)
    )
    return pos, neg, blocks


def dealiased_cube_coeffs(grid: GridSpec, coeffs: np.ndarray, N: int) -> np.ndarray:
    """Coefficients of P_N (P_N u)^3 for batched coefficient arrays, where u is
    the real field of the Hermitian part of the input.

    The cube's modes with last coordinate 0..N go onto the half spectrum of
    the M^d grid, so the transforms are ifft over the leading axes and irfft
    over the last, then rfft and fft back.  The mirror half of the result is
    filled by conjugation, so it is exactly Hermitian.
    """
    if N < -1:
        raise ValueError(f"cube size must be >= -1, got {N}")
    if N == -1:
        return np.zeros_like(coeffs)
    if grid.M < 4 * N + 2:
        raise AliasError(
            f"grid M={grid.M} too small for alias-free cubing at N={N} (need M >= {4 * N + 2})"
        )
    M, d = grid.M, grid.d
    pos, neg, blocks = _half_cube(grid, N)
    emb = np.zeros(coeffs.shape[: coeffs.ndim - d] + (M,) * (d - 1) + (M // 2 + 1,), dtype=complex)
    above, below = coeffs[pos], coeffs[neg]
    for g, c in blocks:
        # twice the Hermitian part, c[n] + conj(c[-n]), so the field comes out
        # doubled and its cube 8 times too big; the exact 1/8 comes off at the end
        part = emb[g]
        np.conj(below[c], out=part)
        part += above[c]
    # norm="forward" leaves the inverse transforms unscaled, so they give grid
    # values, and puts the 1/M of each axis on the forward transforms
    cols = emb[..., : N + 1]
    for axis in range(-2, -d - 1, -1):
        cols[...] = np.fft.ifft(cols, axis=axis, norm="forward")
    vals = np.fft.irfft(emb, M, axis=-1, norm="forward")
    cube = vals * vals
    cube *= vals
    spec = np.fft.rfft(cube, axis=-1, norm="forward")[..., : N + 1]
    for axis in range(-2, -d - 1, -1):
        spec = np.fft.fft(spec, axis=axis, norm="forward")
    out = np.zeros(coeffs.shape, dtype=complex)
    hi, lo = out[pos], out[neg]
    for g, c in blocks:
        np.multiply(spec[g], 0.125, out=hi[c])
    np.conj(hi[..., 1:], out=lo[..., 1:])
    if d > 1:
        # the plane of last coordinate 0 is its own mirror image; in one
        # dimension it is the zero mode, which rfft returns real
        hi[..., 0] += np.conj(lo[..., 0])
        hi[..., 0] *= 0.5
    return out


def dealiased_cube(field: SpectralField, N: int) -> SpectralField:
    """Cube-truncated pointwise third power, evaluated alias-free.

    Products are formed on the physical grid; M >= 4N+2 guarantees that the
    wrapped images of modes up to 3N cannot land back inside the retained
    cube, so the result equals the exact triple convolution on |n|_inf <= N.
    """
    return SpectralField(field.grid, dealiased_cube_coeffs(field.grid, field.coeffs, N))


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------


def l2_norm_sq(field: SpectralField) -> float:
    return float(np.sum(np.abs(field.coeffs) ** 2))


def inner(f: SpectralField, g: SpectralField) -> float:
    return float(np.sum(f.coeffs * np.conj(g.coeffs)).real)


def pair_inner(v: PairField, w: PairField) -> float:
    return inner(v.u, w.u) + inner(v.p, w.p)


def sobolev_pair_norm(v: PairField, alpha: float) -> float:
    """Pair Sobolev norm: <n>^alpha on u and <n>^(alpha - s/2) on the velocity."""
    grid = v.grid
    br2 = bracket2(grid)
    wu = br2**alpha
    wp = br2 ** (alpha - grid.s / 2.0)
    val = np.sum(wu * np.abs(v.u.coeffs) ** 2) + np.sum(wp * np.abs(v.p.coeffs) ** 2)
    return float(np.sqrt(val))


def holder_batch_rows(grid: GridSpec) -> int:
    """States per `holder_norm_states` call (default oversampling) whose two
    transform grids hold at most `BATCH_ITEMS` complex entries, and at least one."""
    m = next_fast_len(2 * (2 * grid.K + 1))
    return max(1, BATCH_ITEMS // (2 * m**grid.d))


def holder_sup(grid: GridSpec, coeffs: np.ndarray, beta: float, oversample: int = 2) -> np.ndarray:
    """Sup norms of (1 - Laplacian)^(beta/2) applied to flat coefficient rows
    (..., n_modes), one value per row.

    The sup is taken on an oversampled grid (default twice the carrier band),
    so each value is a lower bound of the true supremum that is exact in the
    band-limited limit of dense sampling.  The rows are transformed together,
    and each row's value does not depend on the others.
    """
    weighted = coeffs * bracket2(grid).reshape(-1) ** (beta / 2.0)
    m = next_fast_len(oversample * (2 * grid.K + 1))
    vals = coeffs_to_grid(grid, weighted.reshape(coeffs.shape[:-1] + grid.mode_shape), m)
    return np.max(np.abs(vals), axis=tuple(range(-grid.d, 0)))


def holder_norm_states(grid: GridSpec, states: np.ndarray, beta: float, oversample: int = 2) -> np.ndarray:
    """Pair Hoelder-type norms of flat states (..., 2, n_modes): the larger of
    the component sup norms at weights (beta, beta - s/2), one per state.

    Like Python's max, a NaN velocity norm never replaces the displacement's.
    """
    su = holder_sup(grid, states[..., 0, :], beta, oversample)
    sp = holder_sup(grid, states[..., 1, :], beta - grid.s / 2.0, oversample)
    return np.where(sp > su, sp, su)


def holder_norm_field(field: SpectralField, beta: float, oversample: int = 2) -> float:
    """Sup norm of (1 - Laplacian)^(beta/2) applied to the field (`holder_sup`)."""
    return float(holder_sup(field.grid, field.coeffs.reshape(-1), beta, oversample))


def holder_norm(v: PairField, beta: float, oversample: int = 2) -> float:
    """Pair Hoelder-type norm: max of the component sup norms at weights
    (beta, beta - s/2)."""
    state = np.stack((v.u.coeffs.reshape(-1), v.p.coeffs.reshape(-1)))
    return float(holder_norm_states(v.grid, state, beta, oversample))


def occupied_band(grid: GridSpec, coeffs: np.ndarray) -> int:
    """Largest max_j |n_j| carrying a nonzero coefficient (over any batch)."""
    flat = np.abs(coeffs.reshape((-1, grid.n_modes))).max(axis=0)
    nz = flat > 0.0
    if not nz.any():
        return 0
    return int(np.abs(mode_tuples(grid)[nz]).max())


def quartic_integral_coeffs(grid: GridSpec, coeffs: np.ndarray, band: int | None = None) -> np.ndarray:
    """Physical-space integral of u^4 over [0, 2*pi)^d for batched coefficients.

    Evaluated on a grid of at least 4*band+2 points per axis so the quartic's
    mean is quadrature-exact for the occupied band.
    """
    if band is None:
        band = occupied_band(grid, coeffs)
    m = next_fast_len(max(4 * band + 2, 2 * grid.K + 1))
    vals = coeffs_to_grid(grid, coeffs, m)
    axes = tuple(range(vals.ndim - grid.d, vals.ndim))
    vals *= vals
    return np.mean(vals * vals, axis=axes) * TWO_PI**grid.d


def quartic_integral(field: SpectralField, band: int | None = None) -> float:
    """Integral of u(x)^4 dx over the torus (volume factor (2*pi)^d included)."""
    return float(quartic_integral_coeffs(field.grid, field.coeffs, band))
