"""Controllability forms, exact control shifts, and likelihood ratios."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.stats import multivariate_normal

from gibbsdyn import rng
from gibbsdyn.control import (
    ControlPath,
    NumericalError,
    control_sq_norm,
    forward_map,
    gram_form,
    girsanov_logdensity,
    right_inverse,
    shift_noise,
)
from gibbsdyn.flow import FlowConfig, evolve
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    draw_increments,
    pair_to_state,
)
from gibbsdyn.spectral import GridSpec, half_lattice, mode_tuples
from oracles import mode_matrix

from conftest import random_pair


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def gram_quadrature(n: tuple[int, ...], t: float, s: float) -> np.ndarray:
    """Direct numerical integration of the rescaled undamped mode response."""
    lam = np.sqrt(0.75 + float(sum(c * c for c in n)) ** (s / 2))

    def v(u):
        return np.array([np.sin(lam * u), np.cos(lam * u) - np.sin(lam * u) / (2 * lam)])

    B = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            B[i, j] = quad(lambda u: v(u)[i] * v(u)[j], 0, t, limit=400)[0]
    return B


def image_quadrature(ctrl: ControlPath) -> np.ndarray:
    """Integrate S(T-u) (0, sqrt(2) h_hat(u)) du per half mode with quad."""
    grid = ctrl.grid
    K = ctrl.n_steps
    h = ctrl.h
    T = K * h
    half = half_lattice(grid)
    tuples = mode_tuples(grid)
    breaks = [k * h for k in range(K + 1)]
    out = np.zeros((half.size, 2), dtype=complex)
    for i, flat in enumerate(half):
        n = tuples[flat]
        vals = ctrl.values[:, i]

        def integrand(u, comp, part):
            k = min(int(u / h), K - 1)
            forced = np.sqrt(2.0) * mode_matrix(n, T - u, grid)[comp, 1] * vals[k]
            return forced.real if part == 0 else forced.imag

        for comp in range(2):
            re = quad(integrand, 0, T, args=(comp, 0), points=breaks, limit=400)[0]
            im = quad(integrand, 0, T, args=(comp, 1), points=breaks, limit=400)[0]
            out[i, comp] = re + 1j * im
    return out


def logratio_bruteforce(ctrl: ControlPath, noise: NoisePath) -> float:
    """Likelihood ratio from explicit Gaussian densities of the increments.

    Zero mode: one real 2-vector with covariance Q per step.  Every other
    half mode: real and imaginary parts independent with covariance Q/2.
    """
    table = build_table(ctrl.grid, ctrl.h)
    total = 0.0
    for k in range(ctrl.n_steps):
        for i in range(table.n_half):
            eta = noise.increments[k, i]
            m = table.mhat[i] * ctrl.values[k, i]
            if i == 0:
                dist = multivariate_normal(mean=np.zeros(2), cov=table.Q[i])
                total += dist.logpdf(eta.real - m.real) - dist.logpdf(eta.real)
            else:
                dist = multivariate_normal(mean=np.zeros(2), cov=table.Q[i] / 2)
                total += dist.logpdf(eta.real - m.real) - dist.logpdf(eta.real)
                total += dist.logpdf(eta.imag - m.imag) - dist.logpdf(eta.imag)
    return total


def random_control(grid: GridSpec, h: float, n_steps: int, gen, amplitude=0.3) -> ControlPath:
    nh = half_lattice(grid).size
    vals = amplitude * (
        gen.standard_normal((n_steps, nh)) + 1j * gen.standard_normal((n_steps, nh))
    )
    vals[:, 0] = vals[:, 0].real
    return ControlPath(grid, h, vals)


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------


def test_gram_matches_quadrature():
    for s in (2.0, 4.0):
        grid = GridSpec(d=1, M=18, s=s)
        for n in ((0,), (1,), (3,), (7,)):
            for t in (0.3, 1.0, 2.7):
                B = gram_form(n, t, grid).B
                assert np.allclose(B, gram_quadrature(n, t, s), atol=1e-12)


def test_gram_positive_definite_symmetric():
    grid = GridSpec(d=2, M=10, s=3.0)
    for n in ((0, 0), (1, 2), (4, 3)):
        for t in (0.05, 0.7, 5.0):
            form = gram_form(n, t, grid)
            assert np.allclose(form.B, form.B.T)
            assert form.eigenvalues().min() > 0


def test_gram_eigenvalues_approach_half_horizon():
    grid = GridSpec(d=1, M=18, s=4.0)
    for n in (4, 5, 6, 8, 12, 20):
        eig = gram_form((n,), 1.0, grid).eigenvalues()
        assert np.max(np.abs(eig - 0.5)) <= 0.05


def test_gram_validates_input():
    grid = GridSpec(d=1, M=18, s=2.0)
    with pytest.raises(ValueError):
        gram_form((1,), 0.0, grid)
    with pytest.raises(ValueError):
        gram_form((1, 2), 1.0, grid)


# ---------------------------------------------------------------------------
# forward map and right inverse
# ---------------------------------------------------------------------------


def test_forward_map_zero_control():
    grid = GridSpec(d=1, M=10, s=2.0)
    nh = half_lattice(grid).size
    ctrl = ControlPath(grid, 0.1, np.zeros((8, nh), dtype=complex))
    img = pair_to_state(forward_map(ctrl))
    assert np.all(img == 0)


def test_forward_map_matches_quadrature():
    grid = GridSpec(d=1, M=8, s=2.0)
    gen = rng.stream(20260819, 41)
    ctrl = random_control(grid, 0.125, 8, gen)
    img = forward_map(ctrl)
    half = half_lattice(grid)
    got = pair_to_state(img)[:, half].T  # (n_half, 2)
    want = image_quadrature(ctrl)
    assert np.max(np.abs(got - want)) < 1e-9


def test_forward_map_linear_in_control():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 42)
    c1 = random_control(grid, 0.1, 6, gen)
    c2 = random_control(grid, 0.1, 6, gen)
    combo = ControlPath(grid, 0.1, 1.7 * c1.values + c2.values)
    lhs = pair_to_state(forward_map(combo))
    rhs = 1.7 * pair_to_state(forward_map(c1)) + pair_to_state(forward_map(c2))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_right_inverse_reconstructs_target():
    grid = GridSpec(d=1, M=18, s=2.0)
    gen = rng.stream(20260819, 43)
    w = random_pair(grid, gen, decay=1.0)
    ctrl = right_inverse(w, 1.0, 256)
    assert ctrl.n_steps == 256
    assert np.max(np.abs(ctrl.values[:, 0].imag)) < 1e-12
    img = forward_map(ctrl)
    err = np.max(np.abs(pair_to_state(img) - pair_to_state(w)))
    scale = np.max(np.abs(pair_to_state(w)))
    assert err < 1e-9 * scale


def test_right_inverse_is_minimum_norm():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 44)
    w = random_pair(grid, gen, decay=1.0)
    steps = 64
    ctrl = right_inverse(w, 0.8, steps)
    from gibbsdyn.control import _step_columns

    cols = _step_columns(grid, 0.8 / steps, steps)
    for i in (0, 1, 3):
        A = cols[::-1][:, i, :].T  # (2, steps)
        basis = null_space(A)
        overlap = basis.T @ ctrl.values[:, i]
        assert np.max(np.abs(overlap)) < 1e-10 * np.linalg.norm(ctrl.values[:, i])
    # adding a kernel direction keeps the image but grows the norm
    perturbed = ctrl.values.copy()
    perturbed[:, 1] += 0.5 * null_space(cols[::-1][:, 1, :].T)[:, 0]
    other = ControlPath(grid, ctrl.h, perturbed)
    assert np.allclose(
        pair_to_state(forward_map(other)), pair_to_state(forward_map(ctrl)), atol=1e-10
    )
    assert np.linalg.norm(other.values) > np.linalg.norm(ctrl.values)


def test_right_inverse_degenerate_horizon_raises():
    grid = GridSpec(d=1, M=18, s=2.0)
    gen = rng.stream(20260819, 45)
    w = random_pair(grid, gen, decay=1.0)
    with pytest.raises(NumericalError):
        right_inverse(w, 1e-6, 64)


def test_right_inverse_validates_arguments():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 46)
    w = random_pair(grid, gen, decay=1.0)
    with pytest.raises(ValueError):
        right_inverse(w, -1.0, 128)
    with pytest.raises(ValueError):
        right_inverse(w, 1.0, 32)


def test_control_path_validation():
    grid = GridSpec(d=1, M=10, s=2.0)
    bad_width = ControlPath(grid, 0.1, np.zeros((4, 3), dtype=complex))
    with pytest.raises(ValueError):
        bad_width.check()
    nh = half_lattice(grid).size
    vals = np.zeros((4, nh), dtype=complex)
    vals[0, 0] = 1j
    with pytest.raises(ValueError):
        ControlPath(grid, 0.1, vals).check()


# ---------------------------------------------------------------------------
# Cameron--Martin shifts through the simulator
# ---------------------------------------------------------------------------


def test_shift_noise_adds_exact_image_linear_flow():
    grid = GridSpec(d=1, M=18, s=2.0)
    cfg = FlowConfig(grid=grid, N=4, gamma=0.0, h=0.05, T=0.5, record_noise=True)
    gen = rng.stream(20260819, 47)
    u0 = random_pair(grid, gen, decay=1.5)
    traj1 = evolve(u0, cfg, rng.stream(20260819, 48))
    ctrl = random_control(grid, cfg.h / 2, 2 * cfg.n_steps, gen, amplitude=0.4)
    traj2 = evolve(u0, cfg, noise_path=shift_noise(traj1.noise, ctrl))
    diff = pair_to_state(traj2.states[-1]) - pair_to_state(traj1.states[-1])
    image = pair_to_state(forward_map(ctrl))
    scale = np.max(np.abs(image))
    assert np.max(np.abs(diff - image)) < 1e-11 * max(scale, 1.0)


def test_shift_noise_moves_linear_part_of_nonlinear_flow():
    grid = GridSpec(d=1, M=18, s=2.0)
    cfg = FlowConfig(grid=grid, N=4, gamma=0.5, h=0.05, T=0.5, record_noise=True)
    gen = rng.stream(20260819, 49)
    u0 = random_pair(grid, gen, decay=1.5)
    traj1 = evolve(u0, cfg, rng.stream(20260819, 50))
    ctrl = random_control(grid, cfg.h / 2, 2 * cfg.n_steps, gen, amplitude=0.4)
    traj2 = evolve(u0, cfg, noise_path=shift_noise(traj1.noise, ctrl))
    diff = pair_to_state(traj2.linear_states[-1]) - pair_to_state(traj1.linear_states[-1])
    image = pair_to_state(forward_map(ctrl))
    scale = np.max(np.abs(image))
    assert np.max(np.abs(diff - image)) < 1e-11 * max(scale, 1.0)
    # the nonlinear states move too, but not by the bare image
    nl_diff = pair_to_state(traj2.states[-1]) - pair_to_state(traj1.states[-1])
    assert np.max(np.abs(nl_diff - image)) > 1e-6


def test_shift_noise_on_longer_path_keeps_tail():
    grid = GridSpec(d=1, M=10, s=2.0)
    table = build_table(grid, 0.1)
    gen = rng.stream(20260819, 51)
    eta = draw_increments(table, gen, 6)
    noise = NoisePath(grid, 0.1, eta, seed=0)
    ctrl = random_control(grid, 0.1, 4, gen)
    shifted = shift_noise(noise, ctrl)
    assert np.array_equal(shifted.increments[4:], eta[4:])
    assert not np.allclose(shifted.increments[:4], eta[:4])


# ---------------------------------------------------------------------------
# likelihood ratio
# ---------------------------------------------------------------------------


def test_girsanov_zero_noise_gives_negative_half_norm():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 52)
    ctrl = random_control(grid, 0.05, 10, gen)
    nh = half_lattice(grid).size
    noise = NoisePath(grid, 0.05, np.zeros((10, nh, 2), dtype=complex), seed=0)
    got = girsanov_logdensity(ctrl, noise)
    want = -0.5 * control_sq_norm(ctrl)
    assert got == pytest.approx(want, rel=1e-13)


def test_control_sq_norm_approaches_plain_time_quadrature():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 53)

    def ratio(h, reps):
        ctrl = random_control(grid, h, reps, rng.stream(20260819, 53))
        table = build_table(grid, h)
        per_mode = np.sum(np.abs(ctrl.values) ** 2, axis=0) * h
        plain = float(per_mode[0] + 2 * per_mode[1:].sum())
        return control_sq_norm(ctrl) / plain

    r1 = abs(ratio(0.04, 8) - 1.0)
    r2 = abs(ratio(0.01, 32) - 1.0)
    assert r1 < 0.2
    assert r2 < r1


def test_girsanov_matches_direct_gaussian_density():
    grid = GridSpec(d=1, M=5, s=2.0)
    gen = rng.stream(20260819, 54)
    table = build_table(grid, 0.2)
    eta = draw_increments(table, gen, 3)
    noise = NoisePath(grid, 0.2, eta, seed=0)
    ctrl = random_control(grid, 0.2, 3, gen, amplitude=0.7)
    got = girsanov_logdensity(ctrl, noise)
    want = logratio_bruteforce(ctrl, noise)
    assert got == pytest.approx(want, rel=1e-10)


def test_girsanov_scaling_pathwise():
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 55)
    table = build_table(grid, 0.1)
    eta = draw_increments(table, gen, 5)
    noise = NoisePath(grid, 0.1, eta, seed=0)
    ctrl = random_control(grid, 0.1, 5, gen)
    sq = control_sq_norm(ctrl)
    pairing = girsanov_logdensity(ctrl, noise) + 0.5 * sq
    for a in (0.0, 2.0, -1.0, 0.3):
        got = girsanov_logdensity(ctrl.scaled(a), noise)
        assert got == pytest.approx(a * pairing - 0.5 * a * a * sq, abs=1e-12)


def test_girsanov_unit_mean_over_fresh_noise():
    grid = GridSpec(d=1, M=6, s=2.0)
    h, steps, n_paths = 0.05, 8, 10_000
    gen = rng.stream(20260819, 56)
    ctrl = random_control(grid, h, steps, rng.stream(20260819, 57), amplitude=0.25)
    sq = control_sq_norm(ctrl)
    assert 0.05 < sq < 1.0  # keep the estimator variance in a sane range
    table = build_table(grid, h)
    nh = table.n_half
    eta = draw_increments(table, gen, steps * n_paths).reshape(n_paths, steps, nh, 2)
    logs = np.array(
        [girsanov_logdensity(ctrl, NoisePath(grid, h, eta[p], seed=0)) for p in range(n_paths)]
    )
    mean = float(np.mean(np.exp(logs)))
    exact_se = np.sqrt((np.exp(sq) - 1.0) / n_paths)
    assert abs(mean - 1.0) <= 4 * exact_se
    # the log itself is Gaussian with mean -sq/2 and variance sq
    assert abs(np.mean(logs) + sq / 2) <= 4 * np.sqrt(sq / n_paths)


def test_girsanov_validates_compatibility():
    grid = GridSpec(d=1, M=10, s=2.0)
    other = GridSpec(d=1, M=14, s=2.0)
    gen = rng.stream(20260819, 58)
    nh = half_lattice(grid).size
    ctrl = random_control(grid, 0.1, 5, gen)
    with pytest.raises(ValueError):
        girsanov_logdensity(ctrl, NoisePath(grid, 0.2, np.zeros((5, nh, 2), complex), 0))
    with pytest.raises(ValueError):
        girsanov_logdensity(ctrl, NoisePath(grid, 0.1, np.zeros((3, nh, 2), complex), 0))
    nh2 = half_lattice(other).size
    with pytest.raises(ValueError):
        girsanov_logdensity(ctrl, NoisePath(other, 0.1, np.zeros((5, nh2, 2), complex), 0))
