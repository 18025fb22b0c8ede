"""Splitting integrator, remainder decomposition, Picard oracle, energy.

Oracles: exact shear algebra for the kick, the exact linear transition for
the gamma = 0 flow, adaptive quadrature for the first Picard iterate, and
the Picard fixed point as an independent integrator for the remainder.
"""

import numpy as np
import pytest
import scipy.integrate

from conftest import random_field, random_hermitian_coeffs, random_pair
from gibbsdyn import rng as rngmod
from gibbsdyn.flow import (
    FlowConfig,
    Trajectory,
    energy,
    energy_monitor,
    energy_states,
    evolve,
    evolve_ensemble,
)
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    increments_to_states,
    pair_to_state,
    propagate_states,
    propagator,
    state_to_pair,
)
from gibbsdyn.spectral import (
    GridSpec,
    PairField,
    SpectralField,
    abs2_modes,
    flat_index,
    half_lattice,
    mode_tuples,
    sobolev_pair_norm,
    zero_field,
    zero_pair,
)
from oracles import (
    PicardDivergenceError,
    apply_propagator,
    nonlinear_kick,
    picard_solve,
    step,
)

TWO_PI = 2.0 * np.pi


def make_cfg(**kw) -> FlowConfig:
    base = dict(grid=GridSpec(1, 18, 2.0), N=4, gamma=0.5, h=0.05, T=1.0)
    base.update(kw)
    return FlowConfig(**base)


def test_config_validation():
    make_cfg()
    with pytest.raises(ValueError):
        make_cfg(h=-0.1)
    with pytest.raises(ValueError):
        make_cfg(T=1.03)  # not a multiple of h
    with pytest.raises(ValueError):
        make_cfg(grid=GridSpec(1, 17, 2.0))  # M < 4N+2 with gamma > 0
    make_cfg(grid=GridSpec(1, 17, 2.0), gamma=0.0)  # linear: no alias guard
    with pytest.raises(ValueError):
        make_cfg(N=99)
    assert make_cfg(T=2.0).n_steps == 40


# ---------------------------------------------------------------------------
# kick
# ---------------------------------------------------------------------------


def test_kick_identity_when_linear(rng):
    cfg = make_cfg(gamma=0.0)
    v = random_pair(cfg.grid, rng)
    out = nonlinear_kick(v, 0.3, cfg)
    assert np.array_equal(pair_to_state(out), pair_to_state(v))


def test_kick_constant_field():
    cfg = make_cfg(gamma=0.7)
    c, h = 1.2, 0.25
    v = zero_pair(cfg.grid)
    v.u.coeffs[flat_index(cfg.grid, (0,))] = c
    out = nonlinear_kick(v, h, cfg)
    assert np.array_equal(out.u.coeffs, v.u.coeffs)
    want = np.zeros(cfg.grid.mode_shape, dtype=complex)
    want[flat_index(cfg.grid, (0,))] = -h * cfg.gamma * c**3
    assert np.max(np.abs(out.p.coeffs - want)) < 1e-13


def test_kick_reverses_to_roundoff(rng):
    # shear with the identical recomputed force: p - x + x, exact up to rounding
    cfg = make_cfg()
    v = random_pair(cfg.grid, rng)
    there = nonlinear_kick(v, 0.4, cfg)
    back = nonlinear_kick(there, -0.4, cfg)
    assert np.max(np.abs(pair_to_state(back) - pair_to_state(v))) < 1e-14
    assert np.array_equal(back.u.coeffs, v.u.coeffs)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def test_step_linear_composes_to_one_ou_step(rng):
    cfg = make_cfg(gamma=0.0)
    grid = cfg.grid
    table = build_table(grid, cfg.h / 2)
    v = random_pair(grid, rng)
    out, eta = step(v, table, cfg, np.random.default_rng(4))
    half = half_lattice(grid)
    Shalf = table.S[half]
    combined = np.einsum("mij,mj->mi", Shalf, eta[0]) + eta[1]
    S_full = propagator(grid, cfg.h)
    recon = propagate_states(S_full, pair_to_state(v)) + increments_to_states(
        grid, combined
    )
    assert np.max(np.abs(pair_to_state(out) - recon)) < 1e-12


def test_step_requires_half_table(rng):
    cfg = make_cfg()
    with pytest.raises(ValueError):
        step(random_pair(cfg.grid, rng), build_table(cfg.grid, cfg.h), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_noise_linear_is_propagator(rng):
    cfg = make_cfg(gamma=0.0, h=0.1, T=1.0)
    grid = cfg.grid
    u0 = random_pair(grid, rng)
    zeros = NoisePath(grid, cfg.h / 2, np.zeros((2 * cfg.n_steps, half_lattice(grid).size, 2), dtype=complex))
    traj = evolve(u0, cfg, noise_path=zeros, thin_every=2)
    for t, s in zip(traj.times, traj.states):
        want = apply_propagator(u0, t)
        assert np.max(np.abs(pair_to_state(s) - pair_to_state(want))) < 1e-10


def test_evolve_replay_reproduces(rng):
    cfg = make_cfg(record_noise=True, T=0.5)
    u0 = random_pair(cfg.grid, rng)
    traj = evolve(u0, cfg, np.random.default_rng(8), thin_every=1)
    again = evolve(u0, cfg, noise_path=traj.noise, thin_every=1)
    assert np.array_equal(
        pair_to_state(traj.states[-1]), pair_to_state(again.states[-1])
    )


def test_evolve_linear_from_zero_matches_replayed_stick(rng):
    cfg = make_cfg(gamma=0.0, record_noise=True, T=0.4, h=0.05)
    grid = cfg.grid
    traj = evolve(zero_pair(grid), cfg, np.random.default_rng(9), thin_every=1)
    table = build_table(grid, cfg.h / 2)
    state = np.zeros((2, grid.n_modes), dtype=complex)
    for k in range(traj.noise.n_steps):
        state = propagate_states(table.S, state) + increments_to_states(
            grid, traj.noise.increments[k]
        )
    assert np.max(np.abs(state - pair_to_state(traj.states[-1]))) < 1e-13
    # gamma = 0: remainder vanishes identically
    for v in traj.v_states():
        assert np.all(pair_to_state(v) == 0)


def test_evolve_remainder_stays_in_cube(rng):
    cfg = make_cfg(record_noise=True, gamma=0.8, T=1.0)
    grid = cfg.grid
    u0 = random_pair(grid, rng)
    v0 = zero_pair(grid)
    v0.u.coeffs[flat_index(grid, (1,))] = 0.1
    v0.u.coeffs[flat_index(grid, (-1,))] = 0.1
    traj = evolve(u0, cfg, np.random.default_rng(10), initial_remainder=v0)
    vs = traj.v_states()
    assert np.max(np.abs(pair_to_state(vs[0]) - pair_to_state(v0))) < 1e-14
    outside = np.abs(mode_tuples(grid)).max(axis=1) > cfg.N
    for v in vs:
        st = pair_to_state(v)
        assert np.all(st[:, outside] == 0)


def test_evolve_sampling_grid():
    cfg = make_cfg(gamma=0.0, h=0.01, T=0.35)
    traj = evolve(zero_pair(cfg.grid), cfg, np.random.default_rng(1))
    # default thinning keeps every 10th step plus the final partial step
    assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35])


def test_evolve_blowup_detection(rng):
    cfg = make_cfg(gamma=1.0, record_noise=True, T=1.0, h=0.05)
    big = zero_pair(cfg.grid)
    big.u.coeffs[flat_index(cfg.grid, (0,))] = 3e4
    traj = evolve(zero_pair(cfg.grid), cfg, np.random.default_rng(3), initial_remainder=big)
    assert traj.blowup_time is not None
    assert traj.times[-1] == pytest.approx(traj.blowup_time)


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------


def test_ensemble_matches_single_and_is_batch_invariant(rng):
    cfg = make_cfg(T=0.5)
    grid = cfg.grid
    B = 6
    init = np.stack([pair_to_state(random_pair(grid, rng)) for _ in range(B)])
    seed = 12345

    def gens():
        return [rngmod.stream(seed, 1, i) for i in range(B)]

    obs = {"l2u": lambda g, s: np.sum(np.abs(s[:, 0, :]) ** 2, axis=1)}
    t1, s1, f1 = evolve_ensemble(cfg, init, gens(), obs)
    # single-trajectory runs on the same streams
    for i in range(B):
        traj = evolve(state_to_pair(grid, init[i]), cfg, rngmod.stream(seed, 1, i))
        assert np.array_equal(pair_to_state(traj.states[-1]), f1[i])
    # chunking/time blocking/threads never change values
    t2, s2, f2 = evolve_ensemble(cfg, init, gens(), obs, row_chunk=2, time_block=3)
    t3, s3, f3 = evolve_ensemble(cfg, init, gens(), obs, row_chunk=2, threads=3)
    assert np.array_equal(f1, f2) and np.array_equal(f1, f3)
    assert np.array_equal(s1["l2u"], s2["l2u"]) and np.array_equal(s1["l2u"], s3["l2u"])
    assert np.array_equal(t1, t2)


@pytest.mark.parametrize(
    "grid,N", [(GridSpec(2, 10, 3.0), 2), (GridSpec(3, 6, 4.0), 1)], ids=["d2", "d3"]
)
def test_ensemble_matches_single_in_higher_dimensions(grid, N, rng):
    cfg = FlowConfig(grid, N, 0.5, 0.05, 0.35)  # 7 steps
    B = 5
    init = np.stack([pair_to_state(random_pair(grid, rng)) for _ in range(B)])
    seed = 4242

    def gens():
        return [rngmod.stream(seed, 1, i) for i in range(B)]

    obs = {"quartic": lambda g, s: energy_states(g, s)}
    t1, s1, f1 = evolve_ensemble(cfg, init, gens(), obs)
    for i in range(B):
        traj = evolve(state_to_pair(grid, init[i]), cfg, rngmod.stream(seed, 1, i))
        assert np.array_equal(pair_to_state(traj.states[-1]), f1[i])
    # the recording path (linear layer alongside) steps the same states
    rec = evolve(
        state_to_pair(grid, init[0]), FlowConfig(grid, N, 0.5, 0.05, 0.35, record_noise=True),
        rngmod.stream(seed, 1, 0),
    )
    assert np.array_equal(pair_to_state(rec.states[-1]), f1[0])
    # several row chunks on two threads, time blocks that do not divide the
    # step count: the same values
    t2, s2, f2 = evolve_ensemble(cfg, init, gens(), obs, row_chunk=2, time_block=3, threads=2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(s1["quartic"], s2["quartic"])
    assert np.array_equal(t1, t2)


# ---------------------------------------------------------------------------
# Picard oracle
# ---------------------------------------------------------------------------


def test_picard_linear_is_zero(rng):
    cfg = make_cfg(gamma=0.0, h=0.1, T=0.5)
    z = [random_pair(cfg.grid, rng) for _ in range(cfg.n_steps + 1)]
    vs = picard_solve(None, z, cfg)
    assert all(np.all(pair_to_state(v) == 0) for v in vs)


def test_picard_first_iterate_quadrature_oracle():
    # constant-in-time single-mode path, tiny gamma: v is the linear response
    # -gamma c^3 * integral_0^t S(t-tau) e2 dtau + O(gamma^2)
    grid = GridSpec(1, 18, 2.0)
    gamma, c = 1e-3, 0.8
    cfg = FlowConfig(grid, 4, gamma, 0.02, 1.0)
    m0 = flat_index(grid, (0,))
    zc = np.zeros((cfg.n_steps + 1, 2, grid.n_modes), dtype=complex)
    zc[:, 0, m0] = c
    vs = picard_solve(None, zc, cfg)
    for k in (10, 25, 50):
        t = k * cfg.h
        want = np.empty(2)
        for i in range(2):
            want[i] = -gamma * c**3 * scipy.integrate.quad(
                lambda tau: propagator(grid, t - tau)[m0][i, 1], 0, t, epsabs=1e-13
            )[0]
        got = pair_to_state(vs[k])[:, m0].real
        assert np.max(np.abs(got - want)) < 2e-3 * gamma + 1e-12


def test_picard_matches_evolve_and_improves_with_h(rng):
    grid = GridSpec(1, 18, 2.0)
    u0 = random_pair(grid, rng)
    errs = {}
    for h in (1.0 / 32, 1.0 / 64):
        cfg = FlowConfig(grid, 4, 0.5, h, 1.0, record_noise=True)
        traj = evolve(u0, cfg, np.random.default_rng(77), thin_every=1)
        zs = np.stack([pair_to_state(z) for z in traj.linear_states])
        vs = picard_solve(None, zs, cfg)
        v_flow = traj.v_states()
        errs[h] = max(
            sobolev_pair_norm(
                PairField(
                    SpectralField(grid, a.u.coeffs - b.u.coeffs),
                    SpectralField(grid, a.p.coeffs - b.p.coeffs),
                ),
                grid.s / 2,
            )
            for a, b in zip(vs, v_flow)
        )
    scale = max(sobolev_pair_norm(v, grid.s / 2) for v in picard_solve(
        None,
        np.stack([pair_to_state(z) for z in evolve(u0, FlowConfig(grid, 4, 0.5, 1.0 / 32, 1.0, record_noise=True), np.random.default_rng(77), thin_every=1).linear_states]),
        FlowConfig(grid, 4, 0.5, 1.0 / 32, 1.0),
    ))
    assert errs[1.0 / 32] < 0.05 * max(scale, 0.1)
    assert errs[1.0 / 64] < 0.6 * errs[1.0 / 32]


def test_picard_divergence_reported():
    grid = GridSpec(1, 18, 2.0)
    cfg = FlowConfig(grid, 4, 300.0, 0.5, 0.5)
    z = np.zeros((2, 2, grid.n_modes), dtype=complex)
    z[:, 0, flat_index(grid, (0,))] = 2.0
    with pytest.raises(PicardDivergenceError) as info:
        picard_solve(None, z, cfg)
    assert info.value.ratio > 1.0 or np.isnan(info.value.ratio)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_zero_and_constant():
    grid3 = GridSpec(3, 5, 4.0)
    assert energy(zero_pair(grid3)) == 0.0
    c = 0.9
    v = zero_pair(grid3)
    v.u.coeffs[(grid3.K,) * 3] = c
    want = TWO_PI**3 * (c**2 / 2 + c**4 / 4 + c**2 / 8)
    assert np.isclose(energy(v), want, rtol=1e-12)


def test_energy_dominates_quadratic_part(rng):
    grid = GridSpec(1, 11, 4.0)
    v = random_pair(grid, rng)
    frac = abs2_modes(grid).reshape(-1) ** (grid.s / 2)
    st = pair_to_state(v)
    quad = 0.5 * TWO_PI * float(
        np.sum(np.abs(st[1]) ** 2)
        + np.sum(np.abs(st[0]) ** 2)
        + np.sum(frac * np.abs(st[0]) ** 2)
    )
    assert energy(v) >= quad - 1e-12
    # s = 4: fractional term is the plain Laplacian integral
    lap = 0.5 * TWO_PI * float(np.sum(abs2_modes(grid).reshape(-1) ** 2 * np.abs(st[0]) ** 2))
    assert energy(v) >= lap - 1e-12


def test_energy_batched_matches_single(rng):
    grid = GridSpec(1, 11, 2.0)
    states = np.stack([pair_to_state(random_pair(grid, rng)) for _ in range(3)])
    batched = energy_states(grid, states)
    for i in range(3):
        assert np.isclose(batched[i], energy(state_to_pair(grid, states[i])), rtol=1e-12)


def test_energy_monitor_trivial_and_decay(rng):
    cfg = make_cfg(gamma=0.0, record_noise=True, T=1.0, h=0.05)
    traj = evolve(zero_pair(cfg.grid), cfg, np.random.default_rng(2))
    rep = energy_monitor(traj, 0.4)
    assert np.all(rep.energies == 0.0) and rep.sup_energy == 0.0
    assert rep.blowup_time is None

    cfg2 = make_cfg(gamma=1.0, record_noise=True, T=30.0, h=0.05)
    v0 = zero_pair(cfg2.grid)
    v0.u.coeffs[flat_index(cfg2.grid, (0,))] = 10.0
    traj2 = evolve(zero_pair(cfg2.grid), cfg2, np.random.default_rng(21), initial_remainder=v0)
    rep2 = energy_monitor(traj2, 0.4)
    assert rep2.blowup_time is None
    assert np.isfinite(rep2.sup_energy)
    assert rep2.energies[0] > 50 * rep2.band
    assert rep2.decay_rate > 0.2


def test_continuity_in_initial_data(rng):
    cfg = make_cfg(record_noise=True, T=0.5)
    grid = cfg.grid
    u0 = random_pair(grid, rng)
    w = random_pair(grid, rng)
    base_traj = evolve(u0, cfg, np.random.default_rng(30), thin_every=1)
    base_final = pair_to_state(base_traj.states[-1])
    diffs = []
    for delta in (1e-1, 1e-2, 1e-3):
        pert = PairField(
            SpectralField(grid, u0.u.coeffs + delta * w.u.coeffs),
            SpectralField(grid, u0.p.coeffs + delta * w.p.coeffs),
        )
        traj = evolve(pert, cfg, noise_path=base_traj.noise, thin_every=1)
        d = sobolev_pair_norm(
            state_to_pair(grid, pair_to_state(traj.states[-1]) - base_final), grid.s / 2
        )
        diffs.append(d)
    assert diffs[0] > diffs[1] > diffs[2]


def test_n_stability_decreases(rng):
    grid = GridSpec(1, 66, 2.0)
    u0 = random_pair(grid, rng)
    h, T = 1.0 / 32, 1.0
    finals = {}
    for N in (4, 8, 16):
        cfg = FlowConfig(grid, N, 0.5, h, T, record_noise=True)
        traj = evolve(u0, cfg, np.random.default_rng(55), thin_every=1)
        finals[N] = np.stack([pair_to_state(v) for v in traj.v_states()])
    def gap(a, b):
        return max(
            sobolev_pair_norm(state_to_pair(grid, x - y), grid.s / 2)
            for x, y in zip(a, b)
        )
    assert gap(finals[8], finals[16]) < gap(finals[4], finals[8])
