"""Gaussian base measure, quartic interaction weights, and exact samplers.

The base measure draws every Fourier coefficient independently with
E|u_hat(n)|^2 = 1/(1+|n|^s) and E|p_hat(n)|^2 = 1 (zero mode real).  The
interacting measure reweights by exp(-interaction), where the interaction is
gamma/4 times the *mean* of (P_N u)^4 over the torus.  That normalization is
the one that makes the measure exactly invariant under the splitting flow's
velocity kick p -> p - h*gamma*(P_N u)^3 together with the exact linear
transitions; see the invariance experiments for the end-to-end check.

Two exact samplers are provided: self-normalized importance reweighting of
i.i.d. base samples, and an independence Metropolis chain with the base
measure as proposal.  They serve as mutual oracles.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    GridSpec,
    cube_mask,
    half_lattice,
    omega2,
    quartic_integral_coeffs,
    state_batch_rows,
)
from .linear_dynamics import increments_to_states


@dataclass(frozen=True)
class GibbsConfig:
    """Truncation level and interaction strength for the quartic measure."""

    grid: GridSpec
    N: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("interaction strength must be nonnegative")
        if self.N < -1 or self.N > self.grid.K:
            raise ValueError(f"truncation N={self.N} outside [-1, K={self.grid.K}]")


# ---------------------------------------------------------------------------
# base measure
# ---------------------------------------------------------------------------


def sample_mu_states(grid: GridSpec, gen: np.random.Generator, count: int) -> np.ndarray:
    """Draw count base-measure samples as flat states (count, 2, n_modes).

    Consumes a fixed (count, n_half, 2, 2) block of standard normals so the
    values depend only on the generator's position, not on batching.  The
    block is drawn and scattered `state_batch_rows` rows at a time; normals
    fill in C order, so the chunks draw the block's values, and so do two
    calls for count = a + b, which is how `MuDraws` redraws a slice of it.
    """
    half = half_lattice(grid)
    nh = half.size
    w = np.sqrt(omega2(grid).reshape(-1)[half])
    out = np.empty((count, 2, grid.n_modes), dtype=complex)
    rows = state_batch_rows(grid)
    for lo in range(0, count, rows):
        g = gen.standard_normal((min(rows, count - lo), nh, 2, 2))
        z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0))
        z[:, 0, :] = g[:, 0, :, 0]
        z[..., 0] /= w
        increments_to_states(grid, z, out[lo : lo + rows])
    return out


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------


def interaction_states(states: np.ndarray, cfg: GibbsConfig) -> np.ndarray:
    """Batched interaction values (gamma/4) * mean over the torus of (P_N u)^4.

    The states are evaluated `state_batch_rows` at a time; each value depends
    on its own state only.
    """
    if cfg.gamma == 0.0 or cfg.N < 0:
        return np.zeros(states.shape[:-2])
    grid = cfg.grid
    mask = cube_mask(grid, cfg.N).reshape(-1)
    flat = states.reshape((-1, 2, grid.n_modes))
    quart = np.empty(flat.shape[0])
    rows = state_batch_rows(grid)
    for lo in range(0, flat.shape[0], rows):
        coeffs = flat[lo : lo + rows, 0, :] * mask
        quart[lo : lo + rows] = quartic_integral_coeffs(grid, coeffs.reshape((-1,) + grid.mode_shape), band=cfg.N)
    return ((cfg.gamma / 4.0) * quart / TWO_PI**grid.d).reshape(states.shape[:-2])


# ---------------------------------------------------------------------------
# ensembles and estimation
# ---------------------------------------------------------------------------


class MuDraws(Sequence):
    """The states sample_mu_states(cfg.grid, gen, count) draws, held as
    generator positions, with their log-weights -interaction_states.

    One pass draws the members `rows` at a time, weighs them and keeps a copy
    of the generator at each batch start; it leaves gen where
    sample_mu_states would.  A slice [lo:hi] redraws its members from the
    copy at the start of lo's batch, skipping the normals of the members
    before lo, and has the bits of the full draw's rows lo..hi-1; an index
    is a slice of one.  A slice that starts on a batch start draws its
    normals once more, and no more.  `shape` is the full draw's.
    """

    def __init__(self, cfg: GibbsConfig, gen: np.random.Generator, count: int, rows: int):
        grid = cfg.grid
        self.grid, self.rows = grid, rows
        self.shape = (count, 2, grid.n_modes)
        self.log_weights = np.empty(count)
        self._starts = []
        for lo in range(0, count, rows):
            self._starts.append(copy.deepcopy(gen))
            states = sample_mu_states(grid, gen, min(rows, count - lo))
            self.log_weights[lo : lo + rows] = -interaction_states(states, cfg)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        picked = range(len(self))[index]
        if isinstance(picked, int):
            return self[picked : picked + 1][0]
        if picked.step != 1:
            raise ValueError("MuDraws slices take every member")
        lo, count = picked.start, len(picked)
        if count == 0:
            return np.empty((0,) + self.shape[1:], dtype=complex)
        batch = lo // self.rows
        gen = copy.deepcopy(self._starts[batch])
        skip = lo - batch * self.rows
        if skip:
            # one member is (n_half, 2, 2) normals, as sample_mu_states draws them
            gen.standard_normal((skip, half_lattice(self.grid).size, 2, 2))
        return sample_mu_states(self.grid, gen, count)


@dataclass
class WeightedEnsemble:
    """Samples with per-sample log weights.  states is a flat state block
    (count, 2, n_modes), or a `MuDraws` whose slices are such blocks;
    `estimate` reads only the weights and the length."""

    grid: GridSpec
    states: np.ndarray | MuDraws  # (count, 2, n_modes) complex
    log_weights: np.ndarray  # (count,), always <= 0
    seed: int = 0

    def __len__(self) -> int:
        return len(self.states)

    def check(self) -> None:
        if len(self.log_weights) != len(self):
            raise ValueError("weight/sample length mismatch")
        if np.any(self.log_weights > 1e-12):
            raise ValueError("log weights must be nonpositive")


def estimate(ensemble: WeightedEnsemble, observable: np.ndarray) -> tuple[float, float, float]:
    """Self-normalized estimate (mean, standard error, effective sample size)
    of an observable's values, one per sample.

    The effective sample size depends on the weights alone.
    """
    n = len(ensemble)
    if n == 0:
        raise ValueError("empty ensemble")
    vals = np.asarray(observable, dtype=float)
    if vals.shape != (n,):
        raise ValueError("observable array length mismatch")
    top = ensemble.log_weights.max()
    if not np.isfinite(top):
        raise ValueError("all weights vanish")
    w = np.exp(ensemble.log_weights - top)
    total = w.sum()
    wn = w / total
    mean = float(np.sum(wn * vals))
    ess = float(1.0 / np.sum(wn**2))
    se = float(np.sqrt(np.sum(wn**2 * (vals - mean) ** 2)))
    return mean, se, ess


# ---------------------------------------------------------------------------
# samplers for the interacting measure
# ---------------------------------------------------------------------------


def sample_rho(
    cfg: GibbsConfig,
    count: int,
    gen: np.random.Generator,
    method: str = "reweight",
    burn_in: int = 0,
) -> WeightedEnsemble:
    """Sample the quartic measure.

    "reweight": count i.i.d. base samples carrying log-weights -interaction
    (a self-normalized importance representation).  "imh": an independence
    Metropolis chain with base-measure proposals, returned with unit weights
    after discarding burn_in states; the chain kernel leaves the target
    exactly invariant.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if method == "reweight":
        states = sample_mu_states(cfg.grid, gen, count)
        return WeightedEnsemble(cfg.grid, states, -interaction_states(states, cfg))
    if method == "imh":
        if not 0 <= burn_in < count:
            raise ValueError(f"burn-in {burn_in} outside [0, count={count})")
        total = count + burn_in
        proposals = sample_mu_states(cfg.grid, gen, total)
        vals = interaction_states(proposals, cfg)
        accept_u = gen.random(total)
        out = np.empty((count,) + proposals.shape[1:], dtype=proposals.dtype)
        cur = proposals[0]
        cur_val = vals[0]
        kept = 0
        for k in range(total):
            if np.log(accept_u[k]) < cur_val - vals[k]:
                cur = proposals[k]
                cur_val = vals[k]
            if k >= burn_in:
                out[kept] = cur
                kept += 1
        return WeightedEnsemble(cfg.grid, out, np.zeros(count))
    raise ValueError(f"unknown method {method!r}")
