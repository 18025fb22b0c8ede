"""End-to-end acceptance runs at pinned seeds and stated tolerances.

Each test covers one verification target, prints one PASS line on success,
and enforces its own wall-clock budget.  Statistical gates run at fixed
seeds chosen by pilot runs so the suite is deterministic; the negative
controls prove the gates have the power to fail.
"""

import time

import numpy as np
import pytest

from gibbsdyn import rng
from gibbsdyn.control import (
    ControlPath,
    control_sq_norm,
    forward_map,
    girsanov_logdensity,
    gram_form,
    right_inverse,
)
from gibbsdyn.flow import FlowConfig, evolve
from gibbsdyn.gibbs import GibbsConfig, sample_mu_states
from gibbsdyn.harness import ExperimentConfig, report_to_json, run_experiment
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    combine_noise,
    draw_increments,
    increments_to_states,
    pair_to_state,
    propagate_states,
    state_to_pair,
    states_to_increment_form,
    xalpha_norm,
)
from gibbsdyn.spectral import (
    GridSpec,
    flat_index,
    half_lattice,
    omega2,
    sobolev_pair_norm,
    zero_pair,
)
from oracles import picard_solve

from dataclasses import replace

pytestmark = pytest.mark.acceptance


def _stopwatch():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. exact one-step law: stationarity and an independent integrator oracle
# ---------------------------------------------------------------------------


def euler_maruyama_ensemble(grid, horizon, n_sub, count, gen):
    """Independent oracle: direct Euler-Maruyama integration of the damped
    mode ODEs du = p dt, dp = (-omega^2 u - p) dt + sqrt(2) dW on the half
    lattice, written against the equation itself rather than the propagator.
    """
    w2 = omega2(grid).reshape(-1)[half_lattice(grid)]
    sub = horizon / n_sub
    X = np.zeros((count, w2.size, 2), dtype=complex)
    for _ in range(n_sub):
        g = gen.standard_normal((count, w2.size, 2))
        dW = (g[..., 0] + 1j * g[..., 1]) * np.sqrt(sub / 2.0)
        dW[:, 0] = g[:, 0, 0] * np.sqrt(sub)  # the zero mode stays real
        du = X[..., 1]
        dp = -w2[None, :] * X[..., 0] - X[..., 1]
        X[..., 0] += sub * du
        X[..., 1] += sub * dp + np.sqrt(2.0) * dW
    return X


def per_mode_moments(samples):
    """Mean and standard error of |u|^2, |p|^2, Re(u conj p) per half mode."""
    count = samples.shape[0]
    out = []
    for arr in (
        np.abs(samples[..., 0]) ** 2,
        np.abs(samples[..., 1]) ** 2,
        (samples[..., 0] * np.conj(samples[..., 1])).real,
    ):
        out.append((arr.mean(axis=0), arr.std(axis=0, ddof=1) / np.sqrt(count)))
    return out


def test_criterion_01_ou_exactness():
    elapsed = _stopwatch()
    grid = GridSpec(1, 10, 2.0)
    half = half_lattice(grid)
    w2 = omega2(grid).reshape(-1)[half]
    h = 0.1

    # (a) a stationary chain of 1e5 exact steps keeps the per-mode covariance
    # diag(1/omega^2, 1); batch means give the standard error
    table = build_table(grid, h)
    gen = rng.stream(5, 0)
    state = sample_mu_states(grid, gen, 1)[0]
    n_steps = 100_000
    samples = np.empty((n_steps, half.size, 2), dtype=complex)
    cur = states_to_increment_form(grid, state[None])[0]
    block = 10_000
    for lo in range(0, n_steps, block):
        etas = draw_increments(table, gen, block)
        for j in range(block):
            cur = np.einsum("mij,mj->mi", table.S[half], cur) + etas[j]
            samples[lo + j] = cur

    def batch(series):
        b = series.reshape(100, -1).mean(axis=1)
        return float(b.mean()), float(b.std(ddof=1) / 10.0)

    worst = 0.0
    for mi in range(4):  # modes |n| <= 3
        for series, target in (
            (np.abs(samples[:, mi, 0]) ** 2, 1.0 / w2[mi]),
            (np.abs(samples[:, mi, 1]) ** 2, 1.0),
            ((samples[:, mi, 0] * np.conj(samples[:, mi, 1])).real, 0.0),
        ):
            m, se = batch(series)
            z = abs(m - target) / se
            worst = max(worst, z)
            assert z <= 3.0, f"mode {mi}: covariance off by {z:.2f} SE"

    # (b) one exact macro step from zero matches the Euler-Maruyama oracle
    # at substep h/1024 within 4 SE on every per-mode second moment
    count = 8192
    oracle = euler_maruyama_ensemble(grid, h, 1024, count, rng.stream(5, 2))
    exact = draw_increments(table, rng.stream(5, 1), count)
    worst_em = 0.0
    for (a_m, a_se), (b_m, b_se) in zip(per_mode_moments(exact), per_mode_moments(oracle)):
        z = np.abs(a_m - b_m) / np.hypot(a_se, b_se)
        worst_em = max(worst_em, float(z.max()))
        assert np.all(z <= 4.0)

    took = elapsed()
    assert took < 60.0
    print(f"CRITERION 1 PASS: stationary max|z|={worst:.2f} (<=3), "
          f"oracle max|z|={worst_em:.2f} (<=4), {took:.0f}s")


# ---------------------------------------------------------------------------
# 2. linear invariance
# ---------------------------------------------------------------------------


def test_criterion_02_linear_invariance():
    elapsed = _stopwatch()
    grid = GridSpec(1, 66, 2.0)
    report = run_experiment(ExperimentConfig(
        experiment="invariance",
        grid=grid,
        flow=FlowConfig(grid=grid, N=-1, gamma=0.0, h=0.01, T=5.0),
        gibbs=GibbsConfig(grid=grid, N=-1, gamma=0.0),
        ensemble_size=4096,
        observables=("l2_u", "l2_ut", "mode_re:1"),
        ess_floor=500.0,
    ))
    assert report.verdict == "pass"
    zs = {g.name: g.value for g in report.gates if g.name.startswith("z:")}
    assert all(abs(v) <= 4.0 for v in zs.values())
    took = elapsed()
    assert took < 300.0
    print(f"CRITERION 2 PASS: max|z|={max(abs(v) for v in zs.values()):.2f} (<=4), {took:.0f}s")


# ---------------------------------------------------------------------------
# 3. nonlinear invariance plus the broken-kick negative control
# ---------------------------------------------------------------------------


def test_criterion_03_nonlinear_invariance():
    elapsed = _stopwatch()
    grid = GridSpec(1, 66, 2.0)
    cfg = ExperimentConfig(
        experiment="invariance",
        grid=grid,
        flow=FlowConfig(grid=grid, N=16, gamma=0.1, h=0.01, T=5.0),
        gibbs=GibbsConfig(grid=grid, N=16, gamma=0.1),
        ensemble_size=8192,
        observables=("l2_u", "l2_ut", "quartic", "mode_re:1"),
        ess_floor=500.0,
    )
    report = run_experiment(cfg)
    assert report.verdict == "pass"
    assert report.stats["min_ess"] >= 500.0
    zs = {g.name: g.value for g in report.gates if g.name.startswith("z:")}
    assert all(abs(v) <= 4.0 for v in zs.values())

    broken = run_experiment(replace(cfg, kick_factor=2.0))
    assert broken.verdict == "fail", "the doubled kick must break invariance"

    took = elapsed()
    assert took < 1200.0
    print(f"CRITERION 3 PASS: max|z|={max(abs(v) for v in zs.values()):.2f} (<=4), "
          f"ESS={report.stats['min_ess']:.0f} (>=500), negative control fails, {took:.0f}s")


# ---------------------------------------------------------------------------
# 4. ergodic averaging
# ---------------------------------------------------------------------------


def test_criterion_04_ergodic_averaging():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 2.0)
    report = run_experiment(ExperimentConfig(
        experiment="ergodicity",
        grid=grid,
        flow=FlowConfig(grid=grid, N=4, gamma=0.1, h=0.01, T=2000.0),
        gibbs=GibbsConfig(grid=grid, N=4, gamma=0.1),
        ensemble_size=32768,  # a large reference ensemble sharpens the target
        observables=("l2_u", "quartic"),
        burn_in=100.0,
        ess_floor=500.0,
        master_seed=2,
    ))
    assert report.verdict == "pass"
    rels = {g.name: g.value for g in report.gates if g.name != "ess"}
    assert all(v <= 0.05 for v in rels.values())
    took = elapsed()
    assert took < 1800.0
    print(f"CRITERION 4 PASS: worst relative deviation "
          f"{max(rels.values()):.3f} (<=0.05) over three initial data, {took:.0f}s")


# ---------------------------------------------------------------------------
# 5. control reconstruction and Gram eigenvalues
# ---------------------------------------------------------------------------


def test_criterion_05_control_reconstruction():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 4.0)  # K = 8: the band covers modes <= 8
    gen = rng.stream(20260819, 300)
    nh = half_lattice(grid).size
    vals = gen.standard_normal((nh, 2)) + 1j * gen.standard_normal((nh, 2))
    vals[0] = vals[0].real  # Hermitian target: real zero mode
    target = state_to_pair(grid, increments_to_states(grid, vals))

    ctrl = right_inverse(target, 1.0, steps=2048)
    image = forward_map(ctrl)
    got, want = pair_to_state(image), pair_to_state(target)
    residual = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert residual <= 1e-6

    worst = 0.0
    for n in range(4, grid.K + 1):
        eigs = gram_form((n,), 1.0, grid).eigenvalues()
        worst = max(worst, float(np.max(np.abs(eigs - 0.5))))
    assert worst <= 0.05

    took = elapsed()
    assert took < 60.0
    print(f"CRITERION 5 PASS: residual={residual:.2e} (<=1e-6), "
          f"Gram deviation {worst:.4f} (<=0.05), {took:.0f}s")


# ---------------------------------------------------------------------------
# 6. Girsanov normalization
# ---------------------------------------------------------------------------


def test_criterion_06_girsanov_unit_mean():
    elapsed = _stopwatch()
    grid = GridSpec(1, 6, 2.0)
    h, steps, n_paths = 0.05, 8, 10_000
    gen_ctrl = rng.stream(20260819, 301)
    nh = half_lattice(grid).size
    vals = 0.25 * (
        gen_ctrl.standard_normal((steps, nh)) + 1j * gen_ctrl.standard_normal((steps, nh))
    )
    vals[:, 0] = vals[:, 0].real
    ctrl = ControlPath(grid, h, vals)
    sq = control_sq_norm(ctrl)
    assert sq > 0.0, "the control must be nonzero"

    table = build_table(grid, h)
    eta = draw_increments(table, rng.stream(20260819, 302), steps * n_paths)
    eta = eta.reshape(n_paths, steps, nh, 2)
    logs = np.array([
        girsanov_logdensity(ctrl, NoisePath(grid, h, eta[p])) for p in range(n_paths)
    ])
    weights = np.exp(logs)
    mean = float(weights.mean())
    se = float(weights.std(ddof=1) / np.sqrt(n_paths))
    assert abs(mean - 1.0) <= 4.0 * se

    took = elapsed()
    assert took < 60.0
    print(f"CRITERION 6 PASS: mean={mean:.4f}, |mean-1|={abs(mean-1):.4f} "
          f"(<= {4*se:.4f} = 4 SE), {took:.0f}s")


# ---------------------------------------------------------------------------
# 7. truncation-stability rate
# ---------------------------------------------------------------------------


def test_criterion_07_nstability_rate():
    elapsed = _stopwatch()
    grid = GridSpec(1, 132, 2.0)  # dealiases the largest cutoff: 4*32+2
    report = run_experiment(ExperimentConfig(
        experiment="nstability",
        grid=grid,
        flow=FlowConfig(grid=grid, N=32, gamma=1.0, h=0.01, T=1.0),
        n_values=(4, 8, 16, 32),
        alpha=0.4,
    ))
    assert report.verdict == "pass"
    slope = report.stats["slope"]
    assert slope <= -0.4
    took = elapsed()
    assert took < 600.0
    print(f"CRITERION 7 PASS: log-log slope {slope:.3f} (<=-0.4), {took:.0f}s")


# ---------------------------------------------------------------------------
# 8. integrator order against the fixed-point oracle
# ---------------------------------------------------------------------------


def test_criterion_08_integrator_order():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 2.0)
    N, gamma, T = 4, 1.0, 1.0
    h_fine = 2.0 ** -12
    table = build_table(grid, h_fine)
    incs = draw_increments(table, rng.stream(7, 0), round(T / h_fine))
    master = NoisePath(grid, h_fine, incs)
    u0_state = sample_mu_states(grid, rng.stream(7, 1), 1)[0]
    u0 = state_to_pair(grid, u0_state)

    # reference: the exact linear path on the fine grid plus the Picard
    # remainder, so both solvers see the identical noise realization
    K = master.n_steps
    z = np.empty((K + 1, 2, grid.n_modes), dtype=complex)
    z[0] = u0_state
    for k in range(K):
        z[k + 1] = propagate_states(table.S, z[k]) + increments_to_states(grid, incs[k])
    cfg_ref = FlowConfig(grid=grid, N=N, gamma=gamma, h=h_fine, T=T)
    v_ref = picard_solve(None, z, cfg_ref)
    u_ref = pair_to_state(v_ref[-1]) + z[-1]

    errs, hs = [], []
    for k in (6, 7, 8, 9, 10):
        h = 2.0 ** -k
        coarse = combine_noise(master, 2 ** (11 - k))  # spacing h/2, exactly
        cfg = FlowConfig(grid=grid, N=N, gamma=gamma, h=h, T=T)
        traj = evolve(u0, cfg, noise_path=coarse, thin_every=cfg.n_steps)
        diff = pair_to_state(traj.states[-1]) - u_ref
        errs.append(sobolev_pair_norm(state_to_pair(grid, diff), grid.s / 2))
        hs.append(h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert slope >= 1.0

    took = elapsed()
    assert took < 600.0
    print(f"CRITERION 8 PASS: error slope {slope:.2f} (>=1) "
          f"across h=2^-6..2^-10, {took:.0f}s")


# ---------------------------------------------------------------------------
# 9. stochastic-convolution decay
# ---------------------------------------------------------------------------


def test_criterion_09_stick_decay():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 4.0)
    report = run_experiment(ExperimentConfig(
        experiment="decay",
        grid=grid,
        ensemble_size=256,
        windows=8,
        stick_time=1.0,
        alpha=0.4,
        weight_exponent=0.125,
    ))
    assert report.verdict == "pass"
    medians = np.asarray(report.stats["medians"])
    assert medians.size == 8
    assert np.all(np.diff(medians) <= 1e-9)
    took = elapsed()
    assert took < 300.0
    print(f"CRITERION 9 PASS: window medians non-increasing "
          f"({medians[0]:.3f} -> {medians[-1]:.3f}), {took:.0f}s")


# ---------------------------------------------------------------------------
# 10. energy bound on the remainder
# ---------------------------------------------------------------------------


def test_criterion_10_energy_bound():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 2.0)
    report = run_experiment(ExperimentConfig(
        experiment="coupling",
        grid=grid,
        flow=FlowConfig(grid=grid, N=4, gamma=1.0, h=0.01, T=500.0),
        target_energy=1000.0,
        alpha=0.4,
        decay_rate_gate=0.2,
    ))
    assert report.verdict == "pass"
    assert abs(report.stats["initial_energy"] - 1000.0) <= 1e-6 * 1000.0
    assert report.stats["decay_rate"] >= 0.2
    assert np.isfinite(report.stats["sup_energy"])
    assert report.stats["blowup_time"] is None
    took = elapsed()
    assert took < 900.0
    print(f"CRITERION 10 PASS: decay rate {report.stats['decay_rate']:.2f} (>=0.2), "
          f"sup energy {report.stats['sup_energy']:.0f} finite over T=500, {took:.0f}s")


# ---------------------------------------------------------------------------
# 11. weighted-norm scaling across single modes
# ---------------------------------------------------------------------------


def test_criterion_11_xalpha_scaling():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 2.0)
    alpha = 0.4
    ratios = []
    for n in (1, 2, 4, 8):
        pair = zero_pair(grid)
        c = pair.u.coeffs.reshape(-1)
        c[flat_index(grid, (n,))] = 0.5
        c[flat_index(grid, (-n,))] = 0.5
        ratios.append(xalpha_norm(pair, alpha) / (1.0 + n * n) ** (alpha / 2.0))
    spread = max(ratios) / min(ratios)
    assert spread <= 2.0
    took = elapsed()
    assert took < 60.0
    print(f"CRITERION 11 PASS: norm/bracket^alpha spread factor "
          f"{spread:.3f} (<=2) across n in {{1,2,4,8}}, {took:.0f}s")


# ---------------------------------------------------------------------------
# 12. byte-identical reports across thread counts
# ---------------------------------------------------------------------------


def test_criterion_12_reproducibility():
    elapsed = _stopwatch()
    grid = GridSpec(1, 18, 2.0)

    def smoke(experiment, threads, **kw):
        return report_to_json(run_experiment(ExperimentConfig(
            experiment=experiment, grid=grid, threads=threads, **kw,
        )))

    # 2560 members are three row chunks of evolve_ensemble (1024, 1024, 512),
    # so the thread pool runs, and a chunk smaller than the others
    inv = dict(
        flow=FlowConfig(grid=grid, N=4, gamma=0.1, h=0.01, T=0.2),
        gibbs=GibbsConfig(grid=grid, N=4, gamma=0.1),
        ensemble_size=2560,
        ess_floor=8.0,
    )
    lin = dict(
        flow=FlowConfig(grid=grid, N=-1, gamma=0.0, h=0.05, T=2.0),
        ensemble_size=2560,
    )
    docs = {}
    for name, kw in (("invariance", inv), ("linear", lin)):
        one = smoke(name, 1, **kw)
        for threads in (2, 3):
            assert smoke(name, threads, **kw) == one, (
                f"{name}: {threads} threads changed the report bytes"
            )
        assert smoke(name, 1, **kw) == one, f"{name}: re-run changed the report bytes"
        docs[name] = one
    took = elapsed()
    assert took < 120.0
    print(f"CRITERION 12 PASS: byte-identical reports across threads and "
          f"re-runs ({', '.join(docs)}), {took:.0f}s")
