"""Experiment plumbing, pass/fail verdicts, and negative controls."""

import json

import numpy as np
import pytest

import oracles
from gibbsdyn import harness
from gibbsdyn.flow import FlowConfig
from gibbsdyn.gibbs import GibbsConfig
from gibbsdyn.harness import (
    ExperimentConfig,
    Gate,
    make_gate,
    report_to_json,
    run_experiment,
    verdict_of,
)
from gibbsdyn.spectral import GridSpec

GRID10 = GridSpec(d=1, M=10, s=2.0)
GRID18 = GridSpec(d=1, M=18, s=2.0)


def linear_invariance_config(**kw) -> ExperimentConfig:
    base = dict(
        experiment="invariance",
        grid=GRID10,
        flow=FlowConfig(grid=GRID10, N=-1, gamma=0.0, h=0.05, T=0.5),
        gibbs=GibbsConfig(grid=GRID10, N=-1, gamma=0.0),
        ensemble_size=256,
        observables=("l2_u", "l2_ut", "mode_re:1"),
        ess_floor=50.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def nonlinear_invariance_config(**kw) -> ExperimentConfig:
    base = dict(
        experiment="invariance",
        grid=GRID18,
        flow=FlowConfig(grid=GRID18, N=4, gamma=0.1, h=0.05, T=0.5),
        gibbs=GibbsConfig(grid=GRID18, N=4, gamma=0.1),
        ensemble_size=256,
        observables=("l2_u", "quartic", "mode_re:1"),
        ess_floor=50.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="ensemble"):
        ExperimentConfig(experiment="invariance", grid=GRID10, ensemble_size=1)
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(experiment="invariance", grid=GRID10, z_threshold=0.0)


def test_make_gate_kinds():
    assert make_gate("a", -3.0, 4.0, "abs_le").passed
    assert not make_gate("a", -5.0, 4.0, "abs_le").passed
    assert make_gate("b", 1.0, 2.0, "le").passed
    assert not make_gate("b", 3.0, 2.0, "le").passed
    assert make_gate("c", 3.0, 2.0, "ge").passed
    assert not make_gate("c", 1.0, 2.0, "ge").passed
    assert not make_gate("d", np.nan, 2.0, "le").passed
    assert not make_gate("d", np.inf, 2.0, "le").passed
    with pytest.raises(ValueError):
        make_gate("e", 1.0, 1.0, "eq")


def test_verdict_is_pure():
    ok = Gate("x", 1.0, 2.0, "le", True)
    bad = Gate("y", 3.0, 2.0, "le", False)
    assert verdict_of([ok, ok], False) == "pass"
    assert verdict_of([ok, bad], False) == "fail"
    assert verdict_of([ok, bad], True) == "inconclusive"
    assert verdict_of([], False) == "pass"


def test_report_json_is_canonical_and_rederivable():
    cfg = linear_invariance_config(ensemble_size=64)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    j1, j2 = report_to_json(rep1), report_to_json(rep2)
    assert j1 == j2  # runtime excluded, rest deterministic
    doc = json.loads(j1)
    assert doc["schema_version"] == 1
    assert doc["verdict"] == rep1.verdict
    # verdicts are re-derivable from the recorded gates alone
    gates = [Gate(**g) for g in doc["gates"]]
    for g in gates:
        assert make_gate(g.name, g.value, g.threshold, g.kind).passed == g.passed
    assert verdict_of(gates, doc["inconclusive"]) == doc["verdict"]


def test_reports_identical_across_thread_counts():
    one = run_experiment(linear_invariance_config(ensemble_size=128, threads=1))
    four = run_experiment(linear_invariance_config(ensemble_size=128, threads=4))
    assert report_to_json(one) == report_to_json(four)


def test_unknown_experiment_rejected():
    cfg = linear_invariance_config()
    object.__setattr__(cfg, "experiment", "nope")
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def test_linear_invariance_passes():
    rep = run_experiment(linear_invariance_config())
    assert rep.verdict == "pass"
    names = {g.name for g in rep.gates}
    assert "ks:mode_re:1" in names  # distribution check active for gamma = 0
    assert rep.stats["min_ess"] == 256  # unit weights


def test_nonlinear_invariance_passes():
    rep = run_experiment(nonlinear_invariance_config())
    assert rep.verdict == "pass"
    assert rep.stats["min_ess"] < 256  # nontrivial weights


def test_broken_kick_fails_invariance():
    cfg = ExperimentConfig(
        experiment="invariance",
        grid=GRID18,
        flow=FlowConfig(grid=GRID18, N=4, gamma=0.3, h=0.05, T=3.0),
        gibbs=GibbsConfig(grid=GRID18, N=4, gamma=0.3),
        ensemble_size=1024,
        observables=("l2_u", "quartic"),
        ess_floor=50.0,
        kick_factor=2.0,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "fail"
    assert any(g.name.startswith("z:") and not g.passed for g in rep.gates)


def test_low_ess_is_inconclusive_not_fail():
    rep = run_experiment(nonlinear_invariance_config(ess_floor=1e6))
    assert rep.verdict == "inconclusive"
    assert rep.inconclusive


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------


def test_linear_ergodic_averages_match_exact_moment():
    cfg = ExperimentConfig(
        experiment="ergodicity",
        grid=GRID10,
        flow=FlowConfig(grid=GRID10, N=-1, gamma=0.0, h=0.05, T=400.0),
        gibbs=GibbsConfig(grid=GRID10, N=-1, gamma=0.0),
        ensemble_size=1024,
        observables=("one", "l2_u"),
        ess_floor=50.0,
        rel_tolerance=0.1,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "pass"
    # the constant observable averages to exactly one from every start
    ones = rep.stats["observables"]["one"]["time_averages"]
    assert all(v == pytest.approx(1.0, abs=1e-14) for v in ones.values())
    assert "exact_l2_u" in rep.stats
    assert rep.stats["exact_l2_u"] == pytest.approx(
        sum(1.0 / (1.0 + n * n) for n in range(-4, 5)), rel=1e-12
    )


def test_broken_kick_fails_ergodicity():
    cfg = ExperimentConfig(
        experiment="ergodicity",
        grid=GRID18,
        flow=FlowConfig(grid=GRID18, N=4, gamma=0.5, h=0.05, T=200.0),
        gibbs=GibbsConfig(grid=GRID18, N=4, gamma=0.5),
        ensemble_size=4096,
        observables=("quartic",),
        ess_floor=50.0,
        rel_tolerance=0.1,
        kick_factor=3.0,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "fail"
    assert any(g.name.startswith("rel:") and not g.passed for g in rep.gates)


# ---------------------------------------------------------------------------
# linear mixing
# ---------------------------------------------------------------------------


def linear_mixing_config(**kw) -> ExperimentConfig:
    base = dict(
        experiment="linear",
        grid=GRID10,
        flow=FlowConfig(grid=GRID10, N=-1, gamma=0.0, h=0.05, T=8.0),
        ensemble_size=1024,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_linear_mixing_passes_with_halved_contraction():
    rep = run_experiment(linear_mixing_config())
    assert rep.verdict == "pass"
    # coupled difference decays at the deterministic rate 1/2, above the 1/8 gate
    assert 0.4 < rep.stats["contraction_rate"] < 0.6
    assert rep.stats["coupling_residual"] < 1e-12


def test_wrong_reference_law_fails_ks():
    rep = run_experiment(linear_mixing_config(mu_scale=1.5))
    assert rep.verdict == "fail"
    assert any(g.name.startswith("ks:") and not g.passed for g in rep.gates)


# ---------------------------------------------------------------------------
# stochastic-convolution decay
# ---------------------------------------------------------------------------


def decay_config(**kw) -> ExperimentConfig:
    grid = GridSpec(d=1, M=18, s=4.0)
    base = dict(experiment="decay", grid=grid, ensemble_size=32)
    base.update(kw)
    return ExperimentConfig(**base)


def test_decay_medians_non_increasing():
    rep = run_experiment(decay_config())
    assert rep.verdict == "pass"
    medians = np.array(rep.stats["medians"])
    assert medians.shape == (8,)
    assert np.all(np.diff(medians) <= 1e-9)
    assert rep.stats["cutoff_stability"] < 0.02


def test_decay_wrong_weight_fails():
    rep = run_experiment(decay_config(weight_exponent=1.0))
    assert rep.verdict == "fail"


# ---------------------------------------------------------------------------
# truncation stability
# ---------------------------------------------------------------------------


def nstability_config(**kw) -> ExperimentConfig:
    grid = GridSpec(d=1, M=36, s=2.0)
    base = dict(
        experiment="nstability",
        grid=grid,
        flow=FlowConfig(grid=grid, N=8, gamma=1.0, h=0.05, T=0.5, record_noise=True),
        n_values=(2, 4, 8),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_nstability_slope_passes():
    rep = run_experiment(nstability_config())
    assert rep.verdict == "pass"
    assert rep.stats["slope"] <= -0.4


def test_nstability_without_coupling_fails():
    rep = run_experiment(nstability_config(shared_noise=False))
    assert rep.verdict == "fail"


def test_nstability_longer_horizon_scales_prefactor():
    short = run_experiment(nstability_config())
    long_cfg = nstability_config(
        flow=FlowConfig(
            grid=GridSpec(d=1, M=36, s=2.0), N=8, gamma=1.0, h=0.05, T=1.0, record_noise=True
        )
    )
    longer = run_experiment(long_cfg)
    ratio = longer.stats["prefactor"] / short.stats["prefactor"]
    assert 2.0 / 3.0 <= ratio <= 6.0


def test_nstability_grid_too_small_rejected():
    with pytest.raises(ValueError, match="grid too small"):
        run_experiment(nstability_config(n_values=(4, 8, 16)))


# ---------------------------------------------------------------------------
# decomposition energy
# ---------------------------------------------------------------------------


def coupling_config(**kw) -> ExperimentConfig:
    base = dict(
        experiment="coupling",
        grid=GRID18,
        flow=FlowConfig(grid=GRID18, N=4, gamma=1.0, h=0.05, T=20.0, record_noise=True),
        target_energy=200.0,
        envelope_horizon=5.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_coupling_energy_decays_and_stays_band_limited():
    rep = run_experiment(coupling_config())
    assert rep.verdict == "pass"
    assert rep.stats["band_limit_residual"] <= 1e-12
    assert rep.stats["decay_rate"] >= 0.2
    assert rep.stats["initial_energy"] == pytest.approx(200.0, rel=1e-6)


def test_coupling_past_ceiling_flags_blowup():
    rep = run_experiment(
        coupling_config(target_energy=5e12, envelope_horizon=1.0,
                        flow=FlowConfig(grid=GRID18, N=4, gamma=1.0, h=0.05, T=2.0, record_noise=True))
    )
    # a blowup leaves no transient to fit, but the run fails, not inconclusive
    assert rep.verdict == "fail" and not rep.inconclusive
    blow = {g.name: g for g in rep.gates}["no_blowup"]
    assert not blow.passed


def test_coupling_band_limit_with_the_cube_covering_the_grid():
    # gamma = 0 allows N = K: no mode lies outside the cube, so the
    # band-limit residual is 0 rather than a reduction over no modes
    rep = run_experiment(
        coupling_config(envelope_horizon=1.0,
                        flow=FlowConfig(grid=GRID18, N=GRID18.K, gamma=0.0, h=0.05, T=2.0,
                                        record_noise=True))
    )
    assert rep.stats["band_limit_residual"] == 0.0
    assert {g.name: g for g in rep.gates}["band_limited"].passed


@pytest.mark.parametrize(
    "grid", [GRID18, GridSpec(2, 10, 3.0), GridSpec(3, 6, 4.0)], ids=["d1", "d2", "d3"]
)
def test_scaled_to_energy_stops_when_bisection_stalls(grid, monkeypatch):
    # stopping once the midpoint no longer moves gives the fixed 200-step
    # bisection's bits with about a third of its energy evaluations
    calls = []
    energy_states = harness.energy_states
    monkeypatch.setattr(
        harness, "energy_states", lambda g, s: calls.append(1) or energy_states(g, s)
    )
    for target in (1e-3, 1e-1, 1.0, 200.0**0.25, 200.0, 1e3):
        calls.clear()
        got = harness._scaled_to_energy(grid, target)
        want = oracles.scaled_to_energy(grid, target)
        assert got.shape == (2, grid.n_modes)
        assert np.array_equal(got, want)
        assert len(calls) < 80
