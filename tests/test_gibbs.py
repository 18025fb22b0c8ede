"""Base-measure sampler, quartic weights, exact samplers, estimation.

Oracles: explicit per-mode second moments for the Gaussian sampler, a
closed-form single-mode quartic mean for the interaction, tensor-grid
Gauss--Hermite quadrature of the three-coordinate interacting density for
the Metropolis chain, and the two exact samplers as mutual cross-checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_hermitian, random_hermitian_coeffs
from gibbsdyn.gibbs import (
    GibbsConfig,
    WeightedEnsemble,
    estimate,
    interaction_states,
    sample_mu_states,
    sample_rho,
)
from gibbsdyn.linear_dynamics import states_to_increment_form
from gibbsdyn.spectral import (
    GridSpec,
    coeffs_to_grid,
    flat_index,
    half_lattice,
    omega2,
)
from oracles import interaction, sample_mu, sample_rho_rejection

TWO_PI = 2.0 * np.pi


def test_config_validation():
    grid = GridSpec(1, 9, 2.0)
    GibbsConfig(grid, 4, 0.5)
    GibbsConfig(grid, -1, 0.0)
    with pytest.raises(ValueError):
        GibbsConfig(grid, 5, 0.5)  # N > K
    with pytest.raises(ValueError):
        GibbsConfig(grid, -2, 0.5)
    with pytest.raises(ValueError):
        GibbsConfig(grid, 2, -0.1)


# ---------------------------------------------------------------------------
# base measure moments
# ---------------------------------------------------------------------------


def test_mu_second_moments():
    grid = GridSpec(1, 9, 2.0)
    gen = np.random.default_rng(314)
    n = 100000
    states = sample_mu_states(grid, gen, n)
    vals = states_to_increment_form(grid, states)  # (n, n_half, 2)
    w2 = omega2(grid).reshape(-1)[half_lattice(grid)]
    for m in range(vals.shape[1]):
        uu = np.abs(vals[:, m, 0]) ** 2 * w2[m]
        pp = np.abs(vals[:, m, 1]) ** 2
        assert abs(uu.mean() - 1) < 4 * uu.std(ddof=1) / np.sqrt(n)
        assert abs(pp.mean() - 1) < 4 * pp.std(ddof=1) / np.sqrt(n)
        cross = (vals[:, m, 0] * np.conj(vals[:, m, 1])).real
        assert abs(cross.mean()) < 4 * cross.std(ddof=1) / np.sqrt(n)
    # zero mode real
    assert np.max(np.abs(vals[:, 0, :].imag)) == 0.0


def test_mu_covariance_identity(rng):
    # E <(u,p), f>^2 = sum |f_u|^2 / omega^2 + sum |f_p|^2
    grid = GridSpec(1, 9, 2.0)
    gen = np.random.default_rng(217)
    n = 100000
    states = sample_mu_states(grid, gen, n)
    fu = random_hermitian_coeffs(grid, rng).reshape(-1)
    fp = random_hermitian_coeffs(grid, rng).reshape(-1)
    pairings = (
        np.einsum("bm,m->b", states[:, 0, :], np.conj(fu))
        + np.einsum("bm,m->b", states[:, 1, :], np.conj(fp))
    ).real
    want = float(np.sum(np.abs(fu) ** 2 / omega2(grid).reshape(-1)) + np.sum(np.abs(fp) ** 2))
    sq = pairings**2
    assert abs(sq.mean() - want) < 4 * sq.std(ddof=1) / np.sqrt(n)
    assert abs(pairings.mean()) < 4 * pairings.std(ddof=1) / np.sqrt(n)


def test_sample_mu_single_is_hermitian():
    grid = GridSpec(2, 7, 3.0)
    v = sample_mu(grid, np.random.default_rng(0))
    assert v.shape == (2, grid.n_modes)
    assert is_hermitian(grid, v, 1e-12)


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------


def test_interaction_trivial_cases(rng):
    grid = GridSpec(1, 9, 2.0)
    u = random_hermitian_coeffs(grid, rng)
    assert interaction(u, GibbsConfig(grid, 3, 0.0)) == 0.0
    assert interaction(u, GibbsConfig(grid, -1, 1.0)) == 0.0
    const = np.zeros(grid.mode_shape, dtype=complex)
    const[flat_index(grid, (0,))] = 1.3
    got = interaction(const, GibbsConfig(grid, 2, 1.0))
    assert np.isclose(got, 1.3**4 / 4.0, rtol=1e-12)


def test_interaction_single_mode():
    # u = 2c cos(nx): mean of u^4 is 6 c^4
    grid = GridSpec(1, 11, 2.0)
    c = 0.7
    u = np.zeros(grid.mode_shape, dtype=complex)
    u[flat_index(grid, (2,))] = c
    u[flat_index(grid, (-2,))] = c
    gamma = 0.9
    got = interaction(u, GibbsConfig(grid, 2, gamma))
    assert np.isclose(got, gamma / 4.0 * 6 * c**4, rtol=1e-12)


def test_interaction_grid_quadrature_oracle(rng):
    grid = GridSpec(1, 11, 2.0)
    u = random_hermitian_coeffs(grid, rng)
    N = 3
    cfg = GibbsConfig(grid, N, 1.7)
    masked = u.copy()
    modes = np.arange(-grid.K, grid.K + 1)
    masked[np.abs(modes) > N] = 0.0
    vals = coeffs_to_grid(grid, masked, 4096)
    want = cfg.gamma / 4.0 * np.mean(vals**4)
    assert np.isclose(interaction(u, cfg), want, rtol=1e-10)


def test_interaction_truncation_convergence(rng):
    grid = GridSpec(1, 17, 4.0)
    u = random_hermitian_coeffs(grid, rng, decay=2.0)
    full = interaction(u, GibbsConfig(grid, grid.K, 1.0))
    errs = [abs(interaction(u, GibbsConfig(grid, N, 1.0)) - full) for N in range(grid.K + 1)]
    assert errs[-1] == 0.0
    assert errs[grid.K - 1] < errs[0]


def test_weights_nonpositive():
    grid = GridSpec(1, 9, 2.0)
    cfg = GibbsConfig(grid, 4, 0.5)
    ens = sample_rho(cfg, 512, np.random.default_rng(1))
    ens.check()
    assert np.all(ens.log_weights <= 0)
    assert np.all(np.isfinite(ens.log_weights))


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def test_estimate_unit_weights(rng):
    grid = GridSpec(1, 9, 2.0)
    n = 64
    states = sample_mu_states(grid, np.random.default_rng(5), n)
    ens = WeightedEnsemble(grid, states, np.zeros(n))
    mean, se, ess = estimate(ens, np.ones(n))
    assert mean == 1.0 and se == 0.0 and ess == pytest.approx(n)
    vals = rng.standard_normal(n)
    mean, se, ess = estimate(ens, vals)
    assert np.isclose(mean, vals.mean())
    assert np.isclose(se, vals.std() / np.sqrt(n))


def test_estimate_half_zero_weights():
    grid = GridSpec(1, 9, 2.0)
    n = 64
    states = sample_mu_states(grid, np.random.default_rng(6), n)
    lw = np.zeros(n)
    lw[n // 2 :] = -np.inf
    ens = WeightedEnsemble(grid, states, lw)
    _, _, ess = estimate(ens, np.ones(n))
    assert ess == pytest.approx(n / 2)


def test_estimate_errors():
    grid = GridSpec(1, 9, 2.0)
    states = sample_mu_states(grid, np.random.default_rng(8), 4)
    ens = WeightedEnsemble(grid, states, np.full(4, -np.inf))
    with pytest.raises(ValueError):
        estimate(ens, np.ones(4))
    with pytest.raises(ValueError):
        estimate(WeightedEnsemble(grid, states, np.zeros(4)), np.ones(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-50, 0))
def test_estimate_weight_shift_invariance(seed, shift):
    r = np.random.default_rng(seed)
    grid = GridSpec(1, 9, 2.0)
    n = 32
    states = sample_mu_states(grid, r, n)
    lw = -r.exponential(1.0, n)
    vals = r.standard_normal(n)
    a = estimate(WeightedEnsemble(grid, states, lw), vals)
    b = estimate(WeightedEnsemble(grid, states, lw + shift), vals)
    assert a == pytest.approx(b)
    ess = a[2]
    assert 1.0 <= ess <= n + 1e-9


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_rho_gamma_zero():
    grid = GridSpec(1, 9, 2.0)
    cfg = GibbsConfig(grid, 4, 0.0)
    for method in ("reweight", "imh"):
        ens = sample_rho(cfg, 128, np.random.default_rng(2), method=method, burn_in=16)
        assert np.all(ens.log_weights == 0)


def test_sample_rho_errors():
    grid = GridSpec(1, 9, 2.0)
    cfg = GibbsConfig(grid, 4, 0.1)
    with pytest.raises(ValueError):
        sample_rho(cfg, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_rho(cfg, 10, np.random.default_rng(0), method="imh", burn_in=10)
    with pytest.raises(ValueError, match="burn-in"):
        # fewer proposals than samples would return unwritten rows
        sample_rho(cfg, 64, np.random.default_rng(0), method="imh", burn_in=-5)
    with pytest.raises(ValueError):
        sample_rho(cfg, 10, np.random.default_rng(0), method="nope")


def test_reweight_vs_imh_cross_oracle():
    # the two exact samplers agree on the truncated L2 mass
    grid = GridSpec(1, 17, 2.0)
    cfg = GibbsConfig(grid, 8, 0.1)
    n = 8192
    rw = sample_rho(cfg, n, np.random.default_rng(100))
    modes = np.arange(-grid.K, grid.K + 1)
    mask = np.abs(modes) <= cfg.N

    def obs(states):
        return TWO_PI * np.sum(np.abs(states[:, 0, :] * mask) ** 2, axis=1)

    mean_rw, se_rw, ess = estimate(rw, obs(rw.states))
    assert ess > n / 4
    chains = 8
    means = []
    for c in range(chains):
        ens = sample_rho(cfg, n // chains, np.random.default_rng(200 + c), method="imh", burn_in=256)
        means.append(obs(ens.states).mean())
    mean_imh = float(np.mean(means))
    se_imh = float(np.std(means, ddof=1) / np.sqrt(chains))
    assert abs(mean_rw - mean_imh) < 4 * np.hypot(se_rw, se_imh)


def quartic_mean_three_coord(a0, r, i1):
    """Mean over the torus of (a0 + 2 r cos x - 2 i1 sin x)^4, closed form."""
    rho2 = r**2 + i1**2
    return a0**4 + 12 * a0**2 * rho2 + 6 * rho2**2


def gauss_hermite_reference(gamma, nodes=48):
    """Moments of the three-coordinate interacting measure by quadrature.

    Coordinates: a0 ~ N(0,1), r, i1 ~ N(0, 1/4) reweighted by
    exp(-gamma/4 * quartic_mean).  Returns E[a0^2], E[r^2+i1^2], E[m4].
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    a0 = x[:, None, None]
    r = (0.5 * x)[None, :, None]
    i1 = (0.5 * x)[None, None, :]
    W = w[:, None, None] * w[None, :, None] * w[None, None, :]
    m4 = quartic_mean_three_coord(a0, r, i1)
    dens = W * np.exp(-gamma / 4.0 * m4)
    Z = dens.sum()
    e_a0sq = (dens * a0**2).sum() / Z
    e_mode1 = (dens * (r**2 + i1**2)).sum() / Z
    e_m4 = (dens * m4).sum() / Z
    return e_a0sq, e_mode1, e_m4


def test_imh_matches_quadrature_oracle():
    grid = GridSpec(1, 3, 2.0)  # modes {-1, 0, 1}
    gamma = 0.8
    cfg = GibbsConfig(grid, 1, gamma)
    want_a0, want_m1, want_m4 = gauss_hermite_reference(gamma)
    chains, per = 16, 2048
    est = np.empty((chains, 3))
    for c in range(chains):
        ens = sample_rho(cfg, per, np.random.default_rng(1000 + c), method="imh", burn_in=256)
        vals = states_to_increment_form(grid, ens.states)
        a0 = vals[:, 0, 0].real
        u1 = vals[:, 1, 0]
        m4 = quartic_mean_three_coord(a0, u1.real, u1.imag)
        est[c] = [np.mean(a0**2), np.mean(np.abs(u1) ** 2), np.mean(m4)]
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / np.sqrt(chains)
    for got, want, s in zip(mean, (want_a0, want_m1, want_m4), se):
        assert abs(got - want) < 4 * s


def test_rejection_sampler_matches_reweight():
    grid = GridSpec(1, 5, 2.0)
    cfg = GibbsConfig(grid, 2, 0.5)
    n = 4096
    rej = sample_rho_rejection(cfg, n, np.random.default_rng(50))
    assert len(rej) == n
    rw = sample_rho(cfg, 4 * n, np.random.default_rng(51))
    obs_rej = interaction_states(rej.states, cfg)
    obs_rw = interaction_states(rw.states, cfg)
    m_rej = obs_rej.mean()
    se_rej = obs_rej.std(ddof=1) / np.sqrt(n)
    m_rw, se_rw, _ = estimate(rw, obs_rw)
    assert abs(m_rej - m_rw) < 4 * np.hypot(se_rej, se_rw)
