"""Controllability of the driven linear system.

A control is a real velocity-channel forcing field h(t', x), piecewise
constant on a step grid.  Per Fourier mode, its effect over one step is the
exact integral of the propagator against (0, sqrt(2) h_hat): the shift
direction mhat = sqrt(2) * A^{-1}(S(h)-I) e_2.  `forward_map` sums those
exact one-step images, `right_inverse` finds the minimum-norm control that
reaches a target, and `gram_form` is the per-mode controllability form in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_dynamics import (
    increments_to_states,
    propagator,
    shift_direction,
    states_to_increment_form,
)
from .spectral import GridSpec, half_lattice


class NumericalError(RuntimeError):
    """A numerically degenerate solve (conditioning beyond the guard)."""


COND_LIMIT = 1e12


@dataclass(frozen=True)
class GramForm:
    """Per-mode controllability quadratic form over [0, t] (undamped frame)."""

    n: tuple[int, ...]
    t: float
    B: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.B)


def gram_form(n: tuple[int, ...] | int, t: float, grid: GridSpec) -> GramForm:
    """Closed-form B_n with entries from antiderivatives of sin^2, cos^2,
    sin*cos at frequency lambda_n; B_n -> (t/2) id as |n| grows."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    if isinstance(n, int):
        n = (n,)
    if len(n) != grid.d:
        raise ValueError("mode tuple does not match the grid dimension")
    lam = float(np.sqrt(0.75 + float(np.sum(np.asarray(n, dtype=float) ** 2)) ** (grid.s / 2)))
    i_ss = t / 2 - np.sin(2 * lam * t) / (4 * lam)
    i_cc = t / 2 + np.sin(2 * lam * t) / (4 * lam)
    i_sc = np.sin(lam * t) ** 2 / (2 * lam)
    b11 = i_ss
    b12 = i_sc - i_ss / (2 * lam)
    b22 = i_cc - i_sc / lam + i_ss / (4 * lam**2)
    return GramForm(tuple(int(x) for x in n), float(t), np.array([[b11, b12], [b12, b22]]))


@dataclass
class ControlPath:
    """Piecewise-constant control, one complex value per step per half mode.

    values has shape (n_steps, n_half); the zero-mode column is real so the
    physical control field is real-valued.
    """

    grid: GridSpec
    h: float
    values: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    def check(self) -> None:
        nh = half_lattice(self.grid).size
        if self.values.ndim != 2 or self.values.shape[1] != nh:
            raise ValueError("control array shape does not match grid")
        if np.max(np.abs(self.values[:, 0].imag), initial=0.0) > 1e-12:
            raise ValueError("zero-mode control must be real")


def _step_columns(grid: GridSpec, h: float, n_steps: int) -> np.ndarray:
    """C[j] = S(j*h) mhat per half mode, shape (n_steps, n_half, 2).

    The image at the horizon of a unit control on step k is C[n_steps-1-k].
    """
    mhat = shift_direction(grid, h)
    half = half_lattice(grid)
    cols = np.empty((n_steps, half.size, 2))
    for j in range(n_steps):
        cols[j] = np.einsum("mab,mb->ma", propagator(grid, j * h)[half], mhat)
    return cols


def forward_map(ctrl: ControlPath) -> np.ndarray:
    """Exact image at the horizon of the piecewise-constant control, as a flat
    state (2, n_modes)."""
    ctrl.check()
    grid = ctrl.grid
    K = ctrl.n_steps
    cols = _step_columns(grid, ctrl.h, K)
    half_img = np.einsum("km,kmc->mc", ctrl.values, cols[::-1])
    return increments_to_states(grid, half_img)


def right_inverse(grid: GridSpec, w: np.ndarray, t: float, steps: int = 2048) -> ControlPath:
    """Minimum-norm control whose image at time t is the flat state w (2, n_modes).

    Per mode the forward map onto (u_hat, p_hat) is a 2 x steps matrix A; the
    least-norm preimage is A^T (A A^T)^{-1} w_hat.  The 2x2 Gram A A^T is
    positive definite for t > 0; conditioning beyond 1e12 raises
    NumericalError.
    """
    if t <= 0:
        raise ValueError("horizon must be positive")
    if steps < 64:
        raise ValueError("need at least 64 steps")
    if np.shape(w) != (2, grid.n_modes):
        raise ValueError(f"target has shape {np.shape(w)}, expected (2, {grid.n_modes})")
    h = t / steps
    cols = _step_columns(grid, h, steps)
    G = np.einsum("jma,jmb->mab", cols, cols)
    eig = np.linalg.eigvalsh(G)
    cond = float(eig[:, 1].max() / eig[:, 0].min()) if eig[:, 0].min() > 0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(f"per-mode Gram conditioning {cond:.3e} exceeds 1e12")
    what = states_to_increment_form(grid, w)
    y = np.linalg.solve(G, what[..., None])[..., 0]  # (n_half, 2) complex
    values = np.einsum("jma,ma->jm", cols[::-1], y)
    return ControlPath(grid, h, values)
