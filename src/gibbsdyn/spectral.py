"""Fourier-side representation of real fields on the d-torus.

Fields live on [0, 2*pi)^d and are stored by their Fourier coefficients on
the symmetric cube of modes {-K..K}^d with K = floor((M-1)/2), where M is the
number of physical grid points per dimension.  The expansion convention is

    u(x) = sum_n  u_hat(n) * exp(i n.x),

with the Hermitian symmetry u_hat(-n) = conj(u_hat(n)) for real fields, and
the normalized Parseval identity  sum_n |u_hat(n)|^2 = mean_x |u(x)|^2.
All L^2-type norms in this package use that normalized (unit-mass) measure;
`quartic_integral_coeffs` is the one deliberately physical integral (it
carries the (2*pi)^d volume factor) because it feeds energy diagnostics.

A state is a flat complex array (..., 2, n_modes): row 0 holds the
displacement's coefficients and row 1 its velocity's, each in the C order of
the mode cube, with any leading batch axes.  The fractional dissipation
exponent `s` of the underlying dynamics is part of the grid spec because
every weighted norm on states refers to it.
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
        "frac": abs2.reshape(-1) ** (grid.s / 2),
        "modes": modes,
        "inf_norm": np.abs(modes).max(axis=1),
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


def frac_modes(grid: GridSpec) -> np.ndarray:
    """Per-mode symbol |n|^s of (-Laplacian)^(s/2), flat layout; cached, so
    callers must not write to it."""
    return _lattice(grid)["frac"]


def omega2(grid: GridSpec) -> np.ndarray:
    """Per-mode stiffness 1 + |n|^s."""
    return 1.0 + frac_modes(grid).reshape(grid.mode_shape)


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


def hermitianize(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Project coefficients onto the Hermitian (real-field) subspace."""
    mirror = _lattice(grid)["mirror"]
    flat = coeffs.reshape(coeffs.shape[: coeffs.ndim - grid.d] + (grid.n_modes,))
    sym = 0.5 * (flat + np.conj(flat[..., mirror]))
    return sym.reshape(coeffs.shape)


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


def coeffs_to_grid(grid: GridSpec, coeffs: np.ndarray, m: int | None = None) -> np.ndarray:
    """Evaluate coefficient arrays (leading batch dims allowed) on an m^d grid."""
    m = grid.M if m is None else int(m)
    vals = _embed(coeffs, _embedding(grid.K, m, grid.d), m, grid.d)
    # np.fft.ifftn over the last d axes without its argument handling: the
    # same 1-D calls, last axis first
    for axis in range(-1, -grid.d - 1, -1):
        vals = np.fft.ifft(vals, axis=axis)
    return (vals * float(m) ** grid.d).real


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


class CubePlan:
    """Tables and scratch of `dealiased_cube_coeffs` for one grid, cube size
    N >= 0 and batch shape.

    It holds the `_half_cube` and `cube_index` tables and every array the
    cube passes through, with their views precomputed: the half-spectrum
    embedding, the grid values, the cubed values, their spectrum and the
    mode-shaped output.  A call with the plan writes into these buffers and
    returns `out`, which the next call overwrites; so a plan serves one
    thread.
    """

    def __init__(self, grid: GridSpec, N: int, batch: tuple):
        if grid.M < 4 * N + 2:
            raise AliasError(
                f"grid M={grid.M} too small for alias-free cubing at N={N} (need M >= {4 * N + 2})"
            )
        if N < 0:
            raise ValueError(f"a cube plan needs N >= 0, got {N}")
        M, d = grid.M, grid.d
        batch = tuple(batch)
        self.N, self.batch = N, batch
        self.shape = batch + grid.mode_shape
        pos, neg, blocks = _half_cube(grid, N)
        self.pos, self.neg = pos, neg
        self.cube = cube_index(grid, N)
        half = batch + (M,) * (d - 1) + (M // 2 + 1,)
        # only the last axis' positions 0..N are ever written, so the other
        # columns of the embedding stay zero
        self.emb = np.zeros(half, dtype=complex)
        self.cols = self.emb[..., : N + 1]
        self.vals = np.empty(batch + (M,) * d)
        self.cubed = np.empty_like(self.vals)
        self.rspec = np.empty(half, dtype=complex)
        self.spec = self.rspec[..., : N + 1]
        # entries outside the cube are never written and stay zero
        self.out = np.zeros(self.shape, dtype=complex)
        hi, lo = self.out[pos], self.out[neg]
        self.embed = tuple((self.emb[g], c) for g, c in blocks)
        self.gather = tuple((self.spec[g], hi[c]) for g, c in blocks)
        self.hi_rest, self.lo_rest = hi[..., 1:], lo[..., 1:]
        self.hi_zero, self.lo_zero = hi[..., 0], lo[..., 0]


def dealiased_cube_coeffs(
    grid: GridSpec, coeffs: np.ndarray, N: int, plan: CubePlan | None = None
) -> np.ndarray:
    """Coefficients of P_N (P_N u)^3 for batched coefficient arrays, where u is
    the real field of the Hermitian part of the input.

    The cube's modes with last coordinate 0..N go onto the half spectrum of
    the M^d grid, so the transforms are ifft over the leading axes and irfft
    over the last, then rfft and fft back.  The mirror half of the result is
    filled by conjugation, so it is exactly Hermitian.

    With a plan built for (grid, N, the input's batch shape) the result is
    the plan's `out`, overwritten by the next call; without one, a
    throwaway plan is built, so both run the same transforms.
    """
    if plan is None:
        if N < -1:
            raise ValueError(f"cube size must be >= -1, got {N}")
        if N == -1:
            return np.zeros_like(coeffs)
        plan = CubePlan(grid, N, coeffs.shape[: coeffs.ndim - grid.d])
    elif plan.N != N or plan.shape != coeffs.shape:
        raise ValueError(f"plan for N={plan.N}, shape {plan.shape} used at N={N}, shape {coeffs.shape}")
    M, d = grid.M, grid.d
    cols, vals, cube, spec = plan.cols, plan.vals, plan.cubed, plan.spec
    if d > 1:
        # the last call's leading-axis ifft spread values over every row of
        # these columns, and the cube's modes fill only some of them
        cols.fill(0.0)
    above, below = coeffs[plan.pos], coeffs[plan.neg]
    for part, c in plan.embed:
        # twice the Hermitian part, c[n] + conj(c[-n]), so the field comes out
        # doubled and its cube 8 times too big; the exact 1/8 comes off at the end
        np.conj(below[c], out=part)
        part += above[c]
    # norm="forward" leaves the inverse transforms unscaled, so they give grid
    # values, and puts the 1/M of each axis on the forward transforms
    for axis in range(-2, -d - 1, -1):
        np.fft.ifft(cols, axis=axis, norm="forward", out=cols)
    np.fft.irfft(plan.emb, M, axis=-1, norm="forward", out=vals)
    np.multiply(vals, vals, out=cube)
    cube *= vals
    np.fft.rfft(cube, axis=-1, norm="forward", out=plan.rspec)
    for axis in range(-2, -d - 1, -1):
        np.fft.fft(spec, axis=axis, norm="forward", out=spec)
    for part, dest in plan.gather:
        np.multiply(part, 0.125, out=dest)
    np.conj(plan.hi_rest, out=plan.lo_rest)
    if d > 1:
        # the plane of last coordinate 0 is its own mirror image; in one
        # dimension it is the zero mode, which rfft returns real
        plan.hi_zero += np.conj(plan.lo_zero)
        plan.hi_zero *= 0.5
    return plan.out


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------


def sobolev_pair_norm(grid: GridSpec, states: np.ndarray, alpha: float) -> np.ndarray:
    """Pair Sobolev norms of flat states (..., 2, n_modes), one per state:
    <n>^alpha on u and <n>^(alpha - s/2) on the velocity."""
    br2 = bracket2(grid).reshape(-1)
    wu = br2**alpha
    wp = br2 ** (alpha - grid.s / 2.0)
    val = np.sum(wu * np.abs(states[..., 0, :]) ** 2, axis=-1) + np.sum(
        wp * np.abs(states[..., 1, :]) ** 2, axis=-1
    )
    return np.sqrt(val)


def holder_batch_rows(grid: GridSpec) -> int:
    """States per transform in `holder_norm` whose two transform grids hold at
    most `BATCH_ITEMS` complex entries, and at least one."""
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


def holder_norm(grid: GridSpec, states: np.ndarray, beta: float) -> np.ndarray:
    """Pair Hoelder-type norms of flat states (..., 2, n_modes), one per state:
    the larger of the component sup norms at weights (beta, beta - s/2),
    each on the default oversampled grid of `holder_sup`.

    The states are transformed `holder_batch_rows` at a time; each state's
    norm does not depend on the batch.  Like Python's max, a NaN velocity norm
    never replaces the displacement's.
    """
    flat = states.reshape((-1, 2, grid.n_modes))
    out = np.empty(flat.shape[0])
    rows = holder_batch_rows(grid)
    for lo in range(0, flat.shape[0], rows):
        part = flat[lo : lo + rows]
        su = holder_sup(grid, part[:, 0, :], beta)
        sp = holder_sup(grid, part[:, 1, :], beta - grid.s / 2.0)
        out[lo : lo + rows] = np.where(sp > su, sp, su)
    return out.reshape(states.shape[:-2])


def occupied_band(grid: GridSpec, coeffs: np.ndarray) -> int:
    """Largest max_j |n_j| carrying a nonzero coefficient (over any batch)."""
    nz = np.maximum.reduce(np.abs(coeffs.reshape((-1, grid.n_modes))), axis=0) > 0.0
    return int(np.maximum.reduce(_lattice(grid)["inf_norm"], where=nz, initial=0))


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
    vals *= vals
    # np.mean's sum and division by the point count, without its wrapper
    return np.add.reduce(vals, axis=axes) / m**grid.d * TWO_PI**grid.d
