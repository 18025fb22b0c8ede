"""Splitting integrator, remainder decomposition, Picard oracle, energy.

Oracles: exact shear algebra for the kick, the exact linear transition for
the gamma = 0 flow, adaptive quadrature for the first Picard iterate, and
the Picard fixed point as an independent integrator for the remainder.
"""

import numpy as np
import pytest
import scipy.integrate

from conftest import random_state, zero_state
from gibbsdyn import flow
from gibbsdyn import rng as rngmod
from gibbsdyn.flow import (
    FlowConfig,
    energy_monitor,
    energy_states,
    evolve,
    evolve_ensemble,
)
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    increments_to_states,
    propagate_states,
    propagator,
)
from gibbsdyn.spectral import (
    GridSpec,
    abs2_modes,
    flat_index,
    half_lattice,
    mode_tuples,
    sobolev_pair_norm,
)
from oracles import (
    PicardDivergenceError,
    apply_propagator,
    energy,
    nonlinear_kick,
    picard_solve,
    redraw_noise,
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
    v = random_state(cfg.grid, rng)
    out = nonlinear_kick(v, 0.3, cfg)
    assert np.array_equal(out, v)


def test_kick_constant_field():
    cfg = make_cfg(gamma=0.7)
    c, h = 1.2, 0.25
    v = zero_state(cfg.grid)
    v[0, flat_index(cfg.grid, (0,))] = c
    out = nonlinear_kick(v, h, cfg)
    assert np.array_equal(out[0], v[0])
    want = np.zeros(cfg.grid.n_modes, dtype=complex)
    want[flat_index(cfg.grid, (0,))] = -h * cfg.gamma * c**3
    assert np.max(np.abs(out[1] - want)) < 1e-13


def test_kick_reverses_to_roundoff(rng):
    # shear with the identical recomputed force: p - x + x, exact up to rounding
    cfg = make_cfg()
    v = random_state(cfg.grid, rng)
    there = nonlinear_kick(v, 0.4, cfg)
    back = nonlinear_kick(there, -0.4, cfg)
    assert np.max(np.abs(back - v)) < 1e-14
    assert np.array_equal(back[0], v[0])


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def test_step_linear_composes_to_one_ou_step(rng):
    cfg = make_cfg(gamma=0.0)
    grid = cfg.grid
    table = build_table(grid, cfg.h / 2)
    v = random_state(grid, rng)
    out, eta = step(v, table, cfg, np.random.default_rng(4))
    half = half_lattice(grid)
    Shalf = table.S[half]
    combined = np.einsum("mij,mj->mi", Shalf, eta[0]) + eta[1]
    S_full = propagator(grid, cfg.h)
    recon = propagate_states(S_full, v) + increments_to_states(grid, combined)
    assert np.max(np.abs(out - recon)) < 1e-12


def test_step_requires_half_table(rng):
    cfg = make_cfg()
    with pytest.raises(ValueError):
        step(random_state(cfg.grid, rng), build_table(cfg.grid, cfg.h), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_noise_linear_is_propagator(rng):
    cfg = make_cfg(gamma=0.0, h=0.1, T=1.0)
    grid = cfg.grid
    u0 = random_state(grid, rng)
    zeros = NoisePath(grid, cfg.h / 2, np.zeros((2 * cfg.n_steps, half_lattice(grid).size, 2), dtype=complex))
    traj = evolve(u0, cfg, noise_path=zeros, thin_every=2)
    assert traj.states.shape == (len(traj.times), 2, grid.n_modes)
    for t, s in zip(traj.times, traj.states):
        want = apply_propagator(grid, u0, t)
        assert np.max(np.abs(s - want)) < 1e-10


@pytest.mark.parametrize("thin", [0, -3])
def test_evolve_rejects_nonpositive_thinning(rng, thin):
    # it used to thin every step instead
    cfg = make_cfg(T=0.5)
    with pytest.raises(ValueError, match="thin_every"):
        evolve(random_state(cfg.grid, rng), cfg, np.random.default_rng(8), thin_every=thin)


def test_evolve_replay_reproduces(rng):
    cfg = make_cfg(record_noise=True, T=0.5)
    u0 = random_state(cfg.grid, rng)
    traj = evolve(u0, cfg, np.random.default_rng(8), thin_every=1)
    path = redraw_noise(cfg, np.random.default_rng(8))
    again = evolve(u0, cfg, noise_path=path, thin_every=1)
    assert np.array_equal(traj.states[-1], again.states[-1])


@pytest.mark.parametrize(
    "T, thin, size",
    [(0.5, 1, 0.0), (15.0, 200, 0.0), (15.0, 200, 3e4), (15.0, None, 3e4)],
    ids=["every-step", "sub-blocks", "blowup-in-sub-blocks", "blowup"],
)
def test_evolve_replay_reproduces_run_and_stream(rng, T, thin, size):
    # a run keeps no increment: replaying its path drawn again from a copy of
    # its stream gives the same run bit for bit, and the run's generator
    # stops where that redraw stops, after the last step run (at a blowup, the
    # sample step that saw it); 200-step samples span sub-blocks of the draw
    cfg = make_cfg(gamma=1.0, record_noise=True, T=T)
    u0 = random_state(cfg.grid, rng)
    v0 = zero_state(cfg.grid)
    v0[0, flat_index(cfg.grid, (0,))] = size
    gen = rngmod.stream(5, 8)
    with np.errstate(all="ignore"):
        traj = evolve(u0, cfg, gen, initial_remainder=v0, thin_every=thin)
    assert (traj.blowup_time is not None) == (size > 0)
    copy = rngmod.stream(5, 8)
    redraw_noise(cfg, copy, round(traj.times[-1] / cfg.h))
    # equal stream positions give equal next draws
    assert np.array_equal(gen.random(8), copy.random(8))
    with np.errstate(all="ignore"):
        again = evolve(u0, cfg, noise_path=redraw_noise(cfg, rngmod.stream(5, 8)),
                       initial_remainder=v0, thin_every=thin)
    for name in ("times", "states", "linear_states", "energies"):
        assert np.array_equal(getattr(traj, name), getattr(again, name), equal_nan=True), name
    assert again.blowup_time == traj.blowup_time


@pytest.mark.parametrize(
    "drawn, run",
    [(GridSpec(1, 18, 2.0), GridSpec(1, 18, 4.0)), (GridSpec(2, 5, 3.0), GridSpec(1, 26, 2.0))],
    ids=["other-s", "same-n-half"],
)
def test_evolve_rejects_a_path_from_another_grid(drawn, run):
    # either path has the right shape but the wrong covariance; both used to
    # replay without complaint
    cfg = FlowConfig(run, -1, 0.0, 0.05, 0.5)
    path = redraw_noise(FlowConfig(drawn, -1, 0.0, 0.05, 0.5), np.random.default_rng(0))
    assert path.increments.shape == redraw_noise(cfg, np.random.default_rng(0)).increments.shape
    with pytest.raises(ValueError) as err:
        evolve(zero_state(run), cfg, noise_path=path)
    assert str(drawn) in str(err.value) and str(run) in str(err.value)


def test_evolve_rejects_misshapen_initial_data(rng):
    cfg = make_cfg(record_noise=True, T=0.1)
    grid = cfg.grid
    good = zero_state(grid)
    for bad in (np.zeros(grid.n_modes), np.zeros((2,) + grid.mode_shape + (1,)),
                np.zeros((1, 2, grid.n_modes)), np.zeros((2, grid.n_modes + 1))):
        with pytest.raises(ValueError, match="shape"):
            evolve(bad, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            evolve(good, cfg, np.random.default_rng(0), initial_remainder=bad)


def test_evolve_leaves_its_initial_data_alone(rng):
    cfg = make_cfg(record_noise=True, T=0.2)
    u0, v0 = random_state(cfg.grid, rng), random_state(cfg.grid, rng)
    keep_u0, keep_v0 = u0.copy(), v0.copy()
    traj = evolve(u0, cfg, np.random.default_rng(8), initial_remainder=v0)
    assert np.array_equal(u0, keep_u0) and np.array_equal(v0, keep_v0)
    assert np.array_equal(traj.linear_states[0], u0)
    assert np.array_equal(traj.v_states()[0], (u0 + v0) - u0)


def test_evolve_linear_from_zero_matches_replayed_stick(rng):
    cfg = make_cfg(gamma=0.0, record_noise=True, T=0.4, h=0.05)
    grid = cfg.grid
    traj = evolve(zero_state(grid), cfg, np.random.default_rng(9), thin_every=1)
    noise = redraw_noise(cfg, np.random.default_rng(9))
    table = build_table(grid, cfg.h / 2)
    state = np.zeros((2, grid.n_modes), dtype=complex)
    for k in range(noise.n_steps):
        state = propagate_states(table.S, state) + increments_to_states(
            grid, noise.increments[k]
        )
    assert np.max(np.abs(state - traj.states[-1])) < 1e-13
    # gamma = 0: remainder vanishes identically
    assert np.all(traj.v_states() == 0)


def test_evolve_remainder_stays_in_cube(rng):
    cfg = make_cfg(record_noise=True, gamma=0.8, T=1.0)
    grid = cfg.grid
    u0 = random_state(grid, rng)
    v0 = zero_state(grid)
    v0[0, flat_index(grid, (1,))] = 0.1
    v0[0, flat_index(grid, (-1,))] = 0.1
    traj = evolve(u0, cfg, np.random.default_rng(10), initial_remainder=v0)
    vs = traj.v_states()
    assert np.max(np.abs(vs[0] - v0)) < 1e-14
    outside = np.abs(mode_tuples(grid)).max(axis=1) > cfg.N
    assert np.all(vs[:, :, outside] == 0)


def test_evolve_sampling_grid():
    cfg = make_cfg(gamma=0.0, h=0.01, T=0.35)
    traj = evolve(zero_state(cfg.grid), cfg, np.random.default_rng(1))
    # default thinning keeps every 10th step plus the final partial step
    assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35])


def test_evolve_blowup_detection(rng):
    cfg = make_cfg(gamma=1.0, record_noise=True, T=1.0, h=0.05)
    big = zero_state(cfg.grid)
    big[0, flat_index(cfg.grid, (0,))] = 3e4
    traj = evolve(zero_state(cfg.grid), cfg, np.random.default_rng(3), initial_remainder=big)
    assert traj.blowup_time is not None
    assert traj.times[-1] == pytest.approx(traj.blowup_time)
    n = len(traj.times)
    assert traj.states.shape == traj.linear_states.shape == (n, 2, cfg.grid.n_modes)
    assert traj.energies.shape == (n,)


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------


def test_ensemble_matches_single_and_is_batch_invariant(rng, monkeypatch):
    cfg = make_cfg(T=0.5)
    grid = cfg.grid
    B = 6
    init = np.stack([random_state(grid, rng) for _ in range(B)])
    seed = 12345

    def gens():
        return [rngmod.stream(seed, 1, i) for i in range(B)]

    obs = {"l2u": lambda g, s: np.sum(np.abs(s[:, 0, :]) ** 2, axis=1)}
    t1, s1, f1 = evolve_ensemble(cfg, init, gens(), obs)
    # single-trajectory runs on the same streams
    for i in range(B):
        traj = evolve(init[i], cfg, rngmod.stream(seed, 1, i))
        assert np.array_equal(traj.states[-1], f1[i])
    # chunking/time blocking/threads never change values
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", 2)
    t3, s3, f3 = evolve_ensemble(cfg, init, gens(), obs, threads=3)
    monkeypatch.setattr(flow, "MAX_TIME_BLOCK", 3)
    t2, s2, f2 = evolve_ensemble(cfg, init, gens(), obs)
    assert np.array_equal(f1, f2) and np.array_equal(f1, f3)
    assert np.array_equal(s1["l2u"], s2["l2u"]) and np.array_equal(s1["l2u"], s3["l2u"])
    assert np.array_equal(t1, t2)


@pytest.mark.parametrize(
    "grid,N", [(GridSpec(2, 10, 3.0), 2), (GridSpec(3, 6, 4.0), 1)], ids=["d2", "d3"]
)
def test_ensemble_matches_single_in_higher_dimensions(grid, N, rng, monkeypatch):
    cfg = FlowConfig(grid, N, 0.5, 0.05, 0.35)  # 7 steps
    B = 5
    init = np.stack([random_state(grid, rng) for _ in range(B)])
    seed = 4242

    def gens():
        return [rngmod.stream(seed, 1, i) for i in range(B)]

    obs = {"quartic": lambda g, s: energy_states(g, s)}
    t1, s1, f1 = evolve_ensemble(cfg, init, gens(), obs)
    for i in range(B):
        traj = evolve(init[i], cfg, rngmod.stream(seed, 1, i))
        assert np.array_equal(traj.states[-1], f1[i])
    # the recording path (linear layer alongside) steps the same states
    rec = evolve(
        init[0], FlowConfig(grid, N, 0.5, 0.05, 0.35, record_noise=True),
        rngmod.stream(seed, 1, 0),
    )
    assert np.array_equal(rec.states[-1], f1[0])
    # several row chunks on two threads, time blocks that do not divide the
    # step count: the same values
    monkeypatch.setattr(flow, "MAX_ROW_CHUNK", 2)
    monkeypatch.setattr(flow, "MAX_TIME_BLOCK", 3)
    t2, s2, f2 = evolve_ensemble(cfg, init, gens(), obs, threads=2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(s1["quartic"], s2["quartic"])
    assert np.array_equal(t1, t2)


def test_zero_horizon_returns_the_initial_states(rng):
    # at T=0 the stepper yields nothing: both drivers return their inputs
    cfg = make_cfg(T=0.0)
    grid = cfg.grid
    u0, v0 = random_state(grid, rng), random_state(grid, rng)
    traj = evolve(u0, cfg, np.random.default_rng(1))
    assert np.array_equal(traj.times, [0.0]) and np.array_equal(traj.states, u0[None])
    gen = np.random.default_rng(1)
    untouched = gen.bit_generator.state
    rec = evolve(u0, make_cfg(T=0.0, record_noise=True), gen, initial_remainder=v0)
    assert np.array_equal(rec.times, [0.0]) and rec.blowup_time is None
    assert np.array_equal(rec.states, (u0 + v0)[None])
    assert np.array_equal(rec.linear_states, u0[None])
    assert gen.bit_generator.state == untouched
    assert np.array_equal(rec.energies, [energy_states(grid, (u0 + v0 - u0)[None])[0]])

    init = np.stack([random_state(grid, rng) for _ in range(3)])
    obs = {"l2u": lambda g, s: np.sum(np.abs(s[:, 0, :]) ** 2, axis=1)}
    times, series, finals = evolve_ensemble(cfg, init, [rngmod.stream(3, 1, i) for i in range(3)], obs)
    assert np.array_equal(times, [0.0])
    assert np.array_equal(series["l2u"], obs["l2u"](grid, init)[None])
    assert np.array_equal(finals, init)


# ---------------------------------------------------------------------------
# Picard oracle
# ---------------------------------------------------------------------------


def test_picard_linear_is_zero(rng):
    cfg = make_cfg(gamma=0.0, h=0.1, T=0.5)
    z = np.stack([random_state(cfg.grid, rng) for _ in range(cfg.n_steps + 1)])
    vs = picard_solve(None, z, cfg)
    assert np.all(vs == 0)


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
        got = vs[k][:, m0].real
        assert np.max(np.abs(got - want)) < 2e-3 * gamma + 1e-12


def test_picard_matches_evolve_and_improves_with_h(rng):
    grid = GridSpec(1, 18, 2.0)
    u0 = random_state(grid, rng)
    errs = {}
    for h in (1.0 / 32, 1.0 / 64):
        cfg = FlowConfig(grid, 4, 0.5, h, 1.0, record_noise=True)
        traj = evolve(u0, cfg, np.random.default_rng(77), thin_every=1)
        vs = picard_solve(None, traj.linear_states, cfg)
        errs[h] = np.max(sobolev_pair_norm(grid, vs - traj.v_states(), grid.s / 2))
    scale = np.max(sobolev_pair_norm(grid, picard_solve(
        None,
        evolve(u0, FlowConfig(grid, 4, 0.5, 1.0 / 32, 1.0, record_noise=True), np.random.default_rng(77), thin_every=1).linear_states,
        FlowConfig(grid, 4, 0.5, 1.0 / 32, 1.0),
    ), grid.s / 2))
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
    assert energy(grid3, zero_state(grid3)) == 0.0
    c = 0.9
    v = zero_state(grid3)
    v[0, flat_index(grid3, (0, 0, 0))] = c
    want = TWO_PI**3 * (c**2 / 2 + c**4 / 4 + c**2 / 8)
    assert np.isclose(energy(grid3, v), want, rtol=1e-12)


def test_energy_dominates_quadratic_part(rng):
    grid = GridSpec(1, 11, 4.0)
    st = random_state(grid, rng)
    frac = abs2_modes(grid).reshape(-1) ** (grid.s / 2)
    quad = 0.5 * TWO_PI * float(
        np.sum(np.abs(st[1]) ** 2)
        + np.sum(np.abs(st[0]) ** 2)
        + np.sum(frac * np.abs(st[0]) ** 2)
    )
    assert energy(grid, st) >= quad - 1e-12
    # s = 4: fractional term is the plain Laplacian integral
    lap = 0.5 * TWO_PI * float(np.sum(abs2_modes(grid).reshape(-1) ** 2 * np.abs(st[0]) ** 2))
    assert energy(grid, st) >= lap - 1e-12


def test_energy_batched_matches_single(rng):
    grid = GridSpec(1, 11, 2.0)
    states = np.stack([random_state(grid, rng) for _ in range(3)])
    batched = energy_states(grid, states)
    for i in range(3):
        assert np.isclose(batched[i], energy(grid, states[i]), rtol=1e-12)


def test_energy_monitor_trivial_and_decay(rng):
    cfg = make_cfg(gamma=0.0, record_noise=True, T=1.0, h=0.05)
    traj = evolve(zero_state(cfg.grid), cfg, np.random.default_rng(2))
    rep = energy_monitor(traj, 0.4)
    assert np.all(rep.energies == 0.0) and rep.sup_energy == 0.0
    assert rep.blowup_time is None
    assert not rep.fitted and rep.decay_rate == 0.0

    cfg2 = make_cfg(gamma=1.0, record_noise=True, T=30.0, h=0.05)
    v0 = zero_state(cfg2.grid)
    v0[0, flat_index(cfg2.grid, (0,))] = 10.0
    traj2 = evolve(zero_state(cfg2.grid), cfg2, np.random.default_rng(21), initial_remainder=v0)
    rep2 = energy_monitor(traj2, 0.4)
    assert rep2.blowup_time is None
    assert np.isfinite(rep2.sup_energy)
    assert rep2.energies[0] > 50 * rep2.band
    assert rep2.fitted and rep2.decay_rate > 0.2


def test_continuity_in_initial_data(rng):
    cfg = make_cfg(record_noise=True, T=0.5)
    grid = cfg.grid
    u0 = random_state(grid, rng)
    w = random_state(grid, rng)
    base_final = evolve(u0, cfg, np.random.default_rng(30), thin_every=1).states[-1]
    noise = redraw_noise(cfg, np.random.default_rng(30))
    diffs = []
    for delta in (1e-1, 1e-2, 1e-3):
        traj = evolve(u0 + delta * w, cfg, noise_path=noise, thin_every=1)
        diffs.append(sobolev_pair_norm(grid, traj.states[-1] - base_final, grid.s / 2))
    assert diffs[0] > diffs[1] > diffs[2]


def test_n_stability_decreases(rng):
    grid = GridSpec(1, 66, 2.0)
    u0 = random_state(grid, rng)
    h, T = 1.0 / 32, 1.0
    finals = {}
    for N in (4, 8, 16):
        cfg = FlowConfig(grid, N, 0.5, h, T, record_noise=True)
        traj = evolve(u0, cfg, np.random.default_rng(55), thin_every=1)
        finals[N] = traj.v_states()

    def gap(a, b):
        return np.max(sobolev_pair_norm(grid, a - b, grid.s / 2))

    assert gap(finals[8], finals[16]) < gap(finals[4], finals[8])
