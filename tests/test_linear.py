"""Exact propagators, OU transitions, stochastic convolution, decay norms.

Oracles: scaling-and-squaring matrix exponential (scipy) for the closed-form
propagator; an Euler--Maruyama integrator written here for the exact
transition law; dense adaptive quadrature for the covariance integral.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from conftest import is_hermitian, random_state, zero_state
from gibbsdyn.flow import FlowConfig, evolve_ensemble
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    draw_increments,
    increments_to_states,
    lam,
    propagate_states,
    propagator,
    stationary_covariance,
    states_to_increment_form,
    step_covariance,
    xalpha_norm,
)
from gibbsdyn.rng import stream
from gibbsdyn.spectral import (
    GridSpec,
    bracket2,
    flat_index,
    half_lattice,
    sobolev_pair_norm,
)
from oracles import (
    apply_propagator,
    combine_noise,
    exact_ou_step,
    generator_matrices,
    mode_matrix,
    stick_covariance,
    stick_samples,
)


def pair_inner(v: np.ndarray, w: np.ndarray) -> float:
    """Real L2 inner product of two states (2, n_modes), both components."""
    return float(np.sum(v[0] * np.conj(w[0])).real) + float(np.sum(v[1] * np.conj(w[1])).real)


# ---------------------------------------------------------------------------
# closed-form propagator vs matrix exponential
# ---------------------------------------------------------------------------


def test_lambda_values():
    grid = GridSpec(1, 9, 4.0)
    l = lam(grid)
    assert np.isclose(l[flat_index(grid, (0,))], np.sqrt(0.75))
    assert np.isclose(l[flat_index(grid, (0,))], 0.8660254, atol=1e-7)
    assert np.isclose(l[flat_index(grid, (3,))], np.sqrt(0.75 + 81.0))


def test_mode_matrix_identity_at_zero():
    grid = GridSpec(2, 7, 3.0)
    for n in [(0, 0), (2, -1)]:
        assert np.allclose(mode_matrix(n, 0.0, grid), np.eye(2))


@pytest.mark.parametrize("s", [2.0, 4.0])
def test_propagator_matches_expm(s):
    grid = GridSpec(1, 11, s)
    A = generator_matrices(grid)
    for t in (0.013, 0.31, 1.7, 6.0):
        S = propagator(grid, t)
        for m in range(grid.n_modes):
            assert np.max(np.abs(S[m] - scipy.linalg.expm(t * A[m]))) < 1e-8


def test_mode_matrix_matches_expm_3d():
    grid = GridSpec(3, 5, 3.5)
    n = (1, -2, 0)
    w2 = 1.0 + float(np.sum(np.array(n) ** 2)) ** (grid.s / 2)
    A = np.array([[0.0, 1.0], [-w2, -1.0]])
    for t in (0.2, 2.3):
        assert np.max(np.abs(mode_matrix(n, t, grid) - scipy.linalg.expm(t * A))) < 1e-10


def test_semigroup_and_determinant(rng):
    grid = GridSpec(1, 13, 2.0)
    for _ in range(5):
        t1, t2 = rng.uniform(0, 3, 2)
        S1, S2, S12 = propagator(grid, t1), propagator(grid, t2), propagator(grid, t1 + t2)
        assert np.max(np.abs(S1 @ S2 - S12)) < 1e-10
        assert np.max(np.abs(np.linalg.det(S1) - np.exp(-t1))) < 1e-10


def test_apply_propagator_decay(rng):
    grid = GridSpec(1, 13, 2.0)
    v = random_state(grid, rng)
    assert np.allclose(apply_propagator(grid, v, 0.0), v)
    for alpha in (0.0, 0.5, 1.0):
        nv = sobolev_pair_norm(grid, v, alpha)
        for t in np.linspace(0.0, 10.0, 21):
            assert sobolev_pair_norm(grid, apply_propagator(grid, v, t), alpha) <= 3.0 * np.exp(-t / 2) * nv


def test_decay_constant_by_opnorm_sweep():
    # the sharpest per-mode bound: weighted matrices have spectral norm <= 3 e^{-t/2}
    grid = GridSpec(1, 17, 4.0)
    br = bracket2(grid).reshape(-1)
    for alpha in (0.0, 0.4, 1.2):
        wu = br ** (alpha / 2)
        wp = br ** ((alpha - grid.s / 2) / 2)
        worst = 0.0
        for t in np.linspace(0.0, 10.0, 101):
            S = propagator(grid, t)
            W = np.zeros_like(S)
            W[:, 0, 0] = wu
            W[:, 1, 1] = wp
            Winv = np.zeros_like(S)
            Winv[:, 0, 0] = 1 / wu
            Winv[:, 1, 1] = 1 / wp
            sig = np.linalg.svd(W @ S @ Winv, compute_uv=False)[:, 0]
            worst = max(worst, float(np.max(sig) * np.exp(t / 2)))
        assert worst <= 3.0


# ---------------------------------------------------------------------------
# covariances
# ---------------------------------------------------------------------------


def test_lyapunov_identity():
    for grid in (GridSpec(1, 9, 2.0), GridSpec(2, 7, 3.0)):
        A = generator_matrices(grid)
        C = stationary_covariance(grid)
        res = A @ C + C @ np.swapaxes(A, 1, 2)
        res[:, 1, 1] += 2.0
        assert np.max(np.abs(res)) < 1e-12


def test_step_covariance_properties():
    grid = GridSpec(1, 11, 2.0)
    for h in (1e-3, 0.1, 1.0, 50.0):
        Q = step_covariance(grid, h)
        eig = np.linalg.eigvalsh(Q)
        assert eig.min() > -1e-14
    # small h: Q = h diag(0,2) + O(h^2)
    h = 1e-5
    Q = step_covariance(grid, h)
    assert np.max(np.abs(Q[:, 1, 1] - 2 * h)) < 40 * h**2
    assert np.max(np.abs(Q[:, 0, 1])) < 40 * h**2
    assert np.max(np.abs(Q[:, 0, 0])) < 40 * h**2
    # huge h: S -> 0 and Q -> C_inf
    assert np.max(np.abs(propagator(grid, 80.0))) < 1e-15
    assert np.max(np.abs(step_covariance(grid, 80.0) - stationary_covariance(grid))) < 1e-14


def test_step_covariance_quadrature_oracle():
    # Q_h = integral_0^h S(u) diag(0,2) S(u)^T du, one mode, adaptive quadrature
    grid = GridSpec(1, 9, 3.0)
    m = flat_index(grid, (2,))
    h = 0.37
    want = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            want[i, j] = scipy.integrate.quad(
                lambda u: 2.0 * propagator(grid, u)[m][i, 1] * propagator(grid, u)[m][j, 1],
                0.0,
                h,
                epsabs=1e-12,
            )[0]
    assert np.max(np.abs(step_covariance(grid, h)[m] - want)) < 1e-10


def test_two_step_composition():
    grid = GridSpec(1, 11, 2.0)
    h = 0.05
    S, Q = propagator(grid, h), step_covariance(grid, h)
    Q2 = step_covariance(grid, 2 * h)
    assert np.max(np.abs(S @ Q @ np.swapaxes(S, 1, 2) + Q - Q2)) < 1e-12


def test_table_shift_readout():
    grid = GridSpec(1, 9, 2.0)
    h = 0.2
    table = build_table(grid, h)
    half = half_lattice(grid)
    # mhat = sqrt(2) * integral_0^h S(u) e2 du (Simpson oracle)
    u = np.linspace(0.0, h, 257)
    cols = np.stack([propagator(grid, ui)[half][:, :, 1] for ui in u])
    simp = scipy.integrate.simpson(cols, x=u, axis=0)
    assert np.max(np.abs(table.mhat - np.sqrt(2) * simp)) < 1e-10
    # w solves Q w = mhat; kappa = mhat.w ~ h for small h
    assert np.max(np.abs(np.einsum("mij,mj->mi", table.Q, table.w) - table.mhat)) < 1e-12
    small = build_table(grid, 1e-4)
    assert np.max(np.abs(small.kappa / 1e-4 - 1.0)) < 1e-3


# ---------------------------------------------------------------------------
# exact OU transition vs Euler--Maruyama oracle
# ---------------------------------------------------------------------------


def em_channel_paths(w2, v0, h, n_sub, n_paths, intensity, rng):
    """Euler--Maruyama for dv = Av dt + sqrt(intensity) e2 dW, one 2D channel."""
    A = np.array([[0.0, 1.0], [-w2, -1.0]])
    dt = h / n_sub
    v = np.tile(np.asarray(v0, dtype=float), (n_paths, 1))
    for _ in range(n_sub):
        dw = rng.standard_normal(n_paths) * np.sqrt(dt)
        v = v + dt * v @ A.T
        v[:, 1] += np.sqrt(intensity) * dw
    return v


def test_exact_step_matches_em_oracle():
    grid = GridSpec(1, 7, 2.0)
    h, n_paths = 0.1, 1000
    table = build_table(grid, h)
    rng = np.random.default_rng(7)

    # nonzero mode: real and imaginary channels, intensity 1 each
    m = flat_index(grid, (2,))
    hidx = int(np.where(half_lattice(grid) == m)[0][0])
    w2 = 1 + 2.0**2
    v0 = np.array([0.7, -0.3])
    em = em_channel_paths(w2, v0, h, 1024, n_paths, 1.0, rng)
    S = table.S[m]
    Qh = table.Q[hidx] / 2  # per channel: half covariance
    mean_exact = S @ v0
    se = em.std(axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.all(np.abs(em.mean(axis=0) - mean_exact) < 4 * se)
    cov_em = np.cov(em.T)
    # standard error of a covariance entry ~ sqrt((Qii Qjj + Qij^2)/n)
    for i in range(2):
        for j in range(2):
            se_c = np.sqrt((cov_em[i, i] * cov_em[j, j] + cov_em[i, j] ** 2) / n_paths)
            assert abs(cov_em[i, j] - Qh[i, j]) < 4 * se_c

    # zero mode: single real channel, intensity 2
    v0 = np.array([-0.2, 0.5])
    em0 = em_channel_paths(1.0, v0, h, 1024, n_paths, 2.0, rng)
    m0 = flat_index(grid, (0,))
    mean0 = table.S[m0] @ v0
    Q0 = table.Q[0]
    se = em0.std(axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.all(np.abs(em0.mean(axis=0) - mean0) < 4 * se)
    cov0 = np.cov(em0.T)
    for i in range(2):
        for j in range(2):
            se_c = np.sqrt((cov0[i, i] * cov0[j, j] + cov0[i, j] ** 2) / n_paths)
            assert abs(cov0[i, j] - Q0[i, j]) < 4 * se_c


def test_stationarity_preserved():
    # start modes at N(0, C_inf) and step; moments must stay put (3 SE)
    grid = GridSpec(1, 9, 2.0)
    table = build_table(grid, 0.3)
    rng = np.random.default_rng(11)
    n = 20000
    half = half_lattice(grid)
    nh = half.size
    w2 = np.array([1.0 + float(np.abs(k)) ** 2 for k in range(nh)])  # half reps are 0..K
    states = np.zeros((n, 2, grid.n_modes), dtype=complex)
    gu = (rng.standard_normal((n, nh)) + 1j * rng.standard_normal((n, nh))) / np.sqrt(2)
    gp = (rng.standard_normal((n, nh)) + 1j * rng.standard_normal((n, nh))) / np.sqrt(2)
    gu[:, 0] = rng.standard_normal(n)
    gp[:, 0] = rng.standard_normal(n)
    eta0 = np.stack([gu / np.sqrt(w2), gp], axis=-1)
    states += increments_to_states(grid, eta0)
    for _ in range(5):
        eta = np.stack([draw_increments(table, np.random.default_rng(rng.integers(2**63)), 1)[0] for _ in range(n)])
        states = propagate_states(table.S, states) + increments_to_states(grid, eta)
    vals = states_to_increment_form(grid, states)
    var_u = np.mean(np.abs(vals[..., 0]) ** 2, axis=0)
    var_p = np.mean(np.abs(vals[..., 1]) ** 2, axis=0)
    se_u = np.std(np.abs(vals[..., 0]) ** 2, axis=0, ddof=1) / np.sqrt(n)
    se_p = np.std(np.abs(vals[..., 1]) ** 2, axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(var_u - 1 / w2) < 3 * se_u)
    assert np.all(np.abs(var_p - 1.0) < 3 * se_p)


def test_exact_ou_step_records_increment(rng):
    grid = GridSpec(1, 9, 2.0)
    table = build_table(grid, 0.25)
    v = random_state(grid, rng)
    out, eta = exact_ou_step(v, table, np.random.default_rng(3))
    recon = propagate_states(table.S, v) + increments_to_states(grid, eta)
    assert np.max(np.abs(out - recon)) < 1e-14
    assert is_hermitian(grid, out, 1e-12)


def test_draw_increments_stream_stability():
    grid = GridSpec(1, 9, 2.0)
    table = build_table(grid, 0.1)
    one = draw_increments(table, np.random.default_rng(42), 4)
    parts = []
    gen = np.random.default_rng(42)
    for _ in range(4):
        parts.append(draw_increments(table, gen, 1)[0])
    assert np.array_equal(one, np.stack(parts))


# ---------------------------------------------------------------------------
# stochastic convolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "grid", [GridSpec(1, 9, 2.0), GridSpec(2, 7, 3.0), GridSpec(3, 5, 4.0)], ids=["d1", "d2", "d3"]
)
def test_ensemble_from_zero_is_the_stick(grid, threads):
    # the damped linear flow from zero is the stochastic convolution; the
    # decay experiment samples it through the ensemble engine, whose draws
    # consume each stream in the same order however the rows and steps are
    # blocked, and whose complex propagator multiplies like the real one
    flow = FlowConfig(grid, N=-1, gamma=0.0, h=0.1, T=0.5)
    count = 7

    def streams():
        return [stream(5, 9, i) for i in range(count)]

    want = stick_samples(flow.T, build_table(grid, flow.h / 2), streams())
    for row_chunk, time_block in ((1024, 128), (3, 2)):
        _, _, finals = evolve_ensemble(
            flow,
            np.zeros((count, 2, grid.n_modes), dtype=complex),
            streams(),
            sample_every=flow.n_steps,
            row_chunk=row_chunk,
            time_block=time_block,
            threads=threads,
        )
        assert np.array_equal(finals, want)
    assert is_hermitian(grid, want[0], 1e-14)


def test_stick_stationary_variance():
    grid = GridSpec(1, 7, 2.0)
    table = build_table(grid, 0.5)
    rng = np.random.default_rng(5)
    n = 10000
    t = 20.0  # e^{-20} transient: effectively stationary
    k = int(t / table.h)
    eta = np.stack([draw_increments(table, np.random.default_rng(rng.integers(2**63)), k) for _ in range(n)])
    states = np.zeros((n, 2, grid.n_modes), dtype=complex)
    for i in range(k):
        states = propagate_states(table.S, states) + increments_to_states(grid, eta[:, i])
    vals = states_to_increment_form(grid, states)
    w2 = np.array([1.0 + float(np.abs(kk)) ** 2 for kk in range(vals.shape[1])])
    var_u = np.mean(np.abs(vals[..., 0]) ** 2, axis=0)
    se_u = np.std(np.abs(vals[..., 0]) ** 2, axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(var_u - 1 / w2) < 3 * se_u)


def test_stick_covariance_trivial_and_single_mode():
    grid = GridSpec(1, 9, 2.0)
    f = zero_state(grid)
    f[0, flat_index(grid, (1,))] = 0.3 + 0.1j
    f[0, flat_index(grid, (-1,))] = 0.3 - 0.1j
    assert stick_covariance(grid, 0.0, 3.0, f) == 0.0
    assert stick_covariance(grid, 2.0, 0.0, f) == 0.0
    # dense-quadrature oracle on the single occupied mode
    t, s = 1.3, 0.9
    m = flat_index(grid, (1,))
    fc = f[0, m]

    def g(u, tt):
        S = propagator(grid, tt - u)[m]
        return S[0, 1] * fc

    want = 2 * 2 * scipy.integrate.quad(
        lambda u: (g(u, t) * np.conj(g(u, s))).real, 0.0, min(t, s), epsabs=1e-12
    )[0]
    got = stick_covariance(grid, t, s, f)
    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def test_stick_covariance_matches_monte_carlo(rng):
    grid = GridSpec(1, 7, 2.0)
    h = 0.1
    table = build_table(grid, h)
    f = random_state(grid, rng)
    t, s = 1.0, 0.6
    kt, ks = round(t / h), round(s / h)
    n = 20000
    prods = np.empty(n)
    for i in range(n):
        gen = np.random.default_rng(1000 + i)
        eta = draw_increments(table, gen, kt)
        state = np.zeros((2, grid.n_modes), dtype=complex)
        zs = None
        for k in range(kt):
            state = propagate_states(table.S, state) + increments_to_states(grid, eta[k])
            if k + 1 == ks:
                zs = state.copy()
        prods[i] = pair_inner(state, f) * pair_inner(zs, f)
    want = stick_covariance(grid, t, s, f)
    se = prods.std(ddof=1) / np.sqrt(n)
    assert abs(prods.mean() - want) < 4 * se


def test_stick_covariance_sobolev_bound(rng):
    # gamma(t,t)[f] <= C (|f_u|_{H^{-s/2}}^2 + |f_p|_{L2}^2)
    grid = GridSpec(1, 9, 2.0)
    br = bracket2(grid)
    worst = 0.0
    for _ in range(5):
        f = random_state(grid, rng)
        bound = float(
            np.sum(br.reshape(-1) ** (-grid.s / 2) * np.abs(f[0]) ** 2)
            + np.sum(np.abs(f[1]) ** 2)
        )
        worst = max(worst, stick_covariance(grid, 3.0, 3.0, f) / bound)
    assert worst < 10.0


# ---------------------------------------------------------------------------
# noise aggregation
# ---------------------------------------------------------------------------


def test_combine_noise_exact(rng):
    grid = GridSpec(1, 9, 2.0)
    h = 0.05
    fine = build_table(grid, h)
    gen = np.random.default_rng(99)
    eta = draw_increments(fine, gen, 8)
    path = NoisePath(grid, h, eta)
    path.check()
    state_fine = np.zeros((2, grid.n_modes), dtype=complex)
    for k in range(8):
        state_fine = propagate_states(fine.S, state_fine) + increments_to_states(grid, eta[k])
    for factor in (2, 4, 8):
        coarse = combine_noise(path, factor)
        assert coarse.h == pytest.approx(factor * h)
        table_c = build_table(grid, factor * h)
        state_c = np.zeros((2, grid.n_modes), dtype=complex)
        for k in range(8 // factor):
            state_c = propagate_states(table_c.S, state_c) + increments_to_states(
                grid, coarse.increments[k]
            )
        assert np.max(np.abs(state_c - state_fine)) < 1e-13
    with pytest.raises(ValueError):
        combine_noise(path, 3)


# ---------------------------------------------------------------------------
# decay-weighted sup norm
# ---------------------------------------------------------------------------


def test_xalpha_zero():
    grid = GridSpec(1, 9, 2.0)
    assert xalpha_norm(grid, zero_state(grid), 0.4) == 0.0


def test_xalpha_single_mode_scaling():
    grid = GridSpec(1, 19, 4.0)
    alpha = 0.4
    ratios = []
    for n in (1, 2, 4, 8):
        v = zero_state(grid)
        v[0, flat_index(grid, (n,))] = 0.5
        v[0, flat_index(grid, (-n,))] = 0.5
        ratios.append(xalpha_norm(grid, v, alpha) / (1 + n**2) ** (alpha / 2))
    assert max(ratios) <= 2.0 * min(ratios)


def test_xalpha_dominated_by_sobolev(rng):
    grid = GridSpec(1, 9, 2.0)
    for _ in range(3):
        v = random_state(grid, rng)
        assert xalpha_norm(grid, v, 0.3, horizon=10.0, dt=0.1) <= 5.0 * sobolev_pair_norm(
            grid, v, grid.s / 2 + 0.75
        )
