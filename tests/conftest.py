import numpy as np
import pytest

from gibbsdyn.spectral import GridSpec, bracket2, hermitianize


def random_hermitian_coeffs(grid: GridSpec, rng, decay: float = 1.0) -> np.ndarray:
    """Random real-field coefficients (mode-cube shape) with a mild spectral decay."""
    raw = rng.standard_normal(grid.mode_shape) + 1j * rng.standard_normal(grid.mode_shape)
    raw = raw / bracket2(grid) ** (decay / 2.0)
    return hermitianize(grid, raw)


def random_state(grid: GridSpec, rng, decay: float = 1.0) -> np.ndarray:
    """A random flat state (2, n_modes): displacement row, then velocity row."""
    u = random_hermitian_coeffs(grid, rng, decay)
    p = random_hermitian_coeffs(grid, rng, decay)
    return np.stack([u.reshape(-1), p.reshape(-1)])


def zero_state(grid: GridSpec) -> np.ndarray:
    return np.zeros((2, grid.n_modes), dtype=complex)


def is_hermitian(grid: GridSpec, coeffs: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether every coefficient row (..., n_modes or mode shape) is Hermitian."""
    flat = np.asarray(coeffs).reshape(-1, grid.n_modes)
    return bool(np.max(np.abs(flat - np.conj(flat[:, ::-1]))) <= tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
