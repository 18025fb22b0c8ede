"""Named, vectorized functionals of simulation states.

Experiments and the command line refer to observables by string name so that
reports are self-describing.  Every observable maps (grid, states) with
states of shape (batch, 2, n_modes) to a real vector of shape (batch,).

Registered names:
  one          constant 1 (calibration)
  l2_u         mean square of the displacement field (sum of |u_hat|^2)
  l2_ut        mean square of the velocity field
  quartic      mean of u^4 over the torus
  mode_re:N    real part of a displacement coefficient, e.g. mode_re:1,
               which is mode_re:1,0,0 for d = 3
  mode_im:N    imaginary part of the same
  holder:B     sup norm of (1-Laplacian)^(B/2) u, e.g. holder:0.4
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .spectral import (
    TWO_PI,
    GridSpec,
    bracket2,
    coeffs_to_grid,
    flat_index,
    next_fast_len,
    quartic_integral_coeffs,
)

Observable = Callable[[GridSpec, np.ndarray], np.ndarray]


def obs_one(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    return np.ones(states.shape[0])


def obs_l2_u(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(states[:, 0, :]) ** 2, axis=-1)


def obs_l2_ut(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(states[:, 1, :]) ** 2, axis=-1)


def obs_quartic(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    coeffs = states[:, 0, :].reshape((states.shape[0],) + grid.mode_shape)
    return quartic_integral_coeffs(grid, coeffs) / TWO_PI**grid.d


def mode_re(grid: GridSpec, n: tuple[int, ...]) -> Observable:
    idx = flat_index(grid, n)

    def fn(g: GridSpec, states: np.ndarray) -> np.ndarray:
        return states[:, 0, idx].real

    return fn


def mode_im(grid: GridSpec, n: tuple[int, ...]) -> Observable:
    idx = flat_index(grid, n)

    def fn(g: GridSpec, states: np.ndarray) -> np.ndarray:
        return states[:, 0, idx].imag

    return fn


def holder_u(beta: float, oversample: int = 2) -> Observable:
    def fn(grid: GridSpec, states: np.ndarray) -> np.ndarray:
        weighted = states[:, 0, :] * bracket2(grid).reshape(-1)[None, :] ** (beta / 2.0)
        coeffs = weighted.reshape((states.shape[0],) + grid.mode_shape)
        m = next_fast_len(oversample * (2 * grid.K + 1))
        vals = coeffs_to_grid(grid, coeffs, m)
        axes = tuple(range(1, vals.ndim))
        return np.max(np.abs(vals), axis=axes)

    return fn


_FIXED = {
    "one": obs_one,
    "l2_u": obs_l2_u,
    "l2_ut": obs_l2_ut,
    "quartic": obs_quartic,
}


def _parse_mode(arg: str, grid: GridSpec) -> tuple[int, ...]:
    """A full d-tuple "k1,...,kd", or a single index k for the mode (k, 0, ..., 0)."""
    parts = arg.split(",")
    if len(parts) == 1:
        parts += ["0"] * (grid.d - 1)
    if len(parts) != grid.d:
        raise ValueError(f"mode index {arg!r} does not match dimension {grid.d}")
    return tuple(int(p) for p in parts)


def resolve(name: str, grid: GridSpec) -> Observable:
    """Look up an observable by registered name (raises on unknown names)."""
    if name in _FIXED:
        return _FIXED[name]
    if ":" in name:
        kind, arg = name.split(":", 1)
        if kind == "mode_re":
            return mode_re(grid, _parse_mode(arg, grid))
        if kind == "mode_im":
            return mode_im(grid, _parse_mode(arg, grid))
        if kind == "holder":
            return holder_u(float(arg))
    raise ValueError(f"unknown observable {name!r}")


def resolve_battery(names: tuple[str, ...] | list[str], grid: GridSpec) -> dict[str, Observable]:
    return {name: resolve(name, grid) for name in names}
