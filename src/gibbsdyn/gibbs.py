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

from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    GridSpec,
    PairField,
    SpectralField,
    cube_mask,
    half_lattice,
    omega2,
    quartic_integral_coeffs,
)
from .linear_dynamics import increments_to_states, state_to_pair


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
    values depend only on the generator's position, not on batching.
    """
    half = half_lattice(grid)
    nh = half.size
    g = gen.standard_normal((count, nh, 2, 2))
    z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0))
    z[:, 0, :] = g[:, 0, :, 0]
    w = np.sqrt(omega2(grid).reshape(-1)[half])
    z[..., 0] /= w
    return increments_to_states(grid, z)


def sample_mu(grid: GridSpec, gen: np.random.Generator) -> PairField:
    """One exact draw from the Gaussian base measure."""
    return state_to_pair(grid, sample_mu_states(grid, gen, 1)[0])


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------


def interaction_states(states: np.ndarray, cfg: GibbsConfig) -> np.ndarray:
    """Batched interaction values (gamma/4) * mean over the torus of (P_N u)^4."""
    if cfg.gamma == 0.0 or cfg.N < 0:
        return np.zeros(states.shape[:-2])
    grid = cfg.grid
    mask = cube_mask(grid, cfg.N).reshape(-1)
    coeffs = states[..., 0, :] * mask
    quart = quartic_integral_coeffs(grid, coeffs.reshape(states.shape[:-2] + grid.mode_shape), band=cfg.N)
    return (cfg.gamma / 4.0) * quart / TWO_PI**grid.d


def interaction(u: SpectralField, cfg: GibbsConfig) -> float:
    """Interaction of a single displacement field; log density is -interaction."""
    state = np.stack([u.coeffs.reshape(-1), np.zeros(u.grid.n_modes, dtype=complex)])
    return float(interaction_states(state[None], cfg)[0])


# ---------------------------------------------------------------------------
# ensembles and estimation
# ---------------------------------------------------------------------------


@dataclass
class WeightedEnsemble:
    """Samples stored as a flat state block with per-sample log weights."""

    grid: GridSpec
    states: np.ndarray  # (count, 2, n_modes) complex
    log_weights: np.ndarray  # (count,), always <= 0
    seed: int = 0

    def __len__(self) -> int:
        return self.states.shape[0]

    def pair(self, i: int) -> PairField:
        return state_to_pair(self.grid, self.states[i])

    def check(self) -> None:
        if len(self.log_weights) != len(self):
            raise ValueError("weight/sample length mismatch")
        if np.any(self.log_weights > 1e-12):
            raise ValueError("log weights must be nonpositive")


def estimate(ensemble: WeightedEnsemble, observable) -> tuple[float, float, float]:
    """Self-normalized estimate (mean, standard error, effective sample size).

    observable may be a callable on PairField or a precomputed value array.
    """
    n = len(ensemble)
    if n == 0:
        raise ValueError("empty ensemble")
    if callable(observable):
        vals = np.array([float(observable(ensemble.pair(i))) for i in range(n)])
    else:
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
        if burn_in >= count:
            raise ValueError("burn-in must be smaller than count")
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
