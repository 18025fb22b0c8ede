"""Sample-time work in batches against the per-sample loops it replaced.

`tests/oracles.py` keeps the loops: every observable called once per sample
time, every remainder energy recomputed from `v_states()`, one Hoelder norm per
propagated state in the decay-weighted norm.  The batched forms perform the
same floating-point operations per row, so results are compared with
np.array_equal and ==, never with a tolerance.
"""

import numpy as np
import pytest

import oracles
from gibbsdyn import flow, linear_dynamics, rng
from gibbsdyn.flow import ENERGY_CEILING, FlowConfig, energy_monitor, evolve, evolve_ensemble
from gibbsdyn.gibbs import sample_mu_states
from gibbsdyn.linear_dynamics import pair_to_state, propagator, xalpha_norm
from gibbsdyn.observables import resolve_battery
from gibbsdyn.spectral import (
    GridSpec,
    flat_index,
    holder_batch_rows,
    holder_norm,
    holder_norm_field,
    holder_norm_states,
    next_fast_len,
    zero_pair,
)

from conftest import random_pair

BATTERY = ("l2_u", "l2_ut", "quartic", "mode_re:1", "holder:0.4")
GRIDS = {1: GridSpec(1, 18, 2.0), 2: GridSpec(2, 10, 3.0), 3: GridSpec(3, 10, 4.0)}
CUBES = {1: 4, 2: 2}
ROWS = 5


def same(a, b) -> bool:
    """Bitwise equality of floats or arrays, NaN equal to NaN."""
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# observables once per full buffer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", ["default", "small"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("row_chunk", [1, ROWS])
@pytest.mark.parametrize("time_block", [1, 3, 128])
@pytest.mark.parametrize("d", [1, 2])
def test_ensemble_series_match_per_sample_loop(d, time_block, row_chunk, threads, budget, monkeypatch):
    grid = GRIDS[d]
    cfg = FlowConfig(grid, CUBES[d], 0.5, 0.01, 0.37)
    if budget == "small":
        # one sample of ROWS rows exceeds the budget and one row does not, so
        # row_chunk=ROWS holds a single sample at a time and row_chunk=1
        # holds three, and batches cross time blocks of 1 and 3 steps
        monkeypatch.setattr(flow, "BATCH_ITEMS", 3 * 2 * grid.n_modes)
    init = sample_mu_states(grid, rng.stream(5, 0), ROWS)
    battery = resolve_battery(BATTERY, grid)

    def gens():
        return [rng.stream(5, 1, i) for i in range(ROWS)]

    want = oracles.ensemble_series(cfg, init, gens(), battery, sample_every=2)
    got = evolve_ensemble(
        cfg, init, gens(), battery,
        sample_every=2, row_chunk=row_chunk, time_block=time_block, threads=threads,
    )
    assert np.array_equal(got[0], want[0])
    assert set(got[1]) == set(BATTERY)
    for name in BATTERY:
        assert np.array_equal(got[1][name], want[1][name]), name
    assert np.array_equal(got[2], want[2])


def test_ensemble_final_sample_off_the_thinning_grid():
    # 37 steps sampled every 5: the last block ends on the extra final sample
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, 0.5, 0.01, 0.37)
    init = sample_mu_states(grid, rng.stream(6, 0), 3)
    battery = resolve_battery(BATTERY, grid)
    gens = lambda: [rng.stream(6, 1, i) for i in range(3)]  # noqa: E731
    want = oracles.ensemble_series(cfg, init, gens(), battery, sample_every=5)
    got = evolve_ensemble(cfg, init, gens(), battery, sample_every=5, time_block=8)
    assert got[0][-1] == pytest.approx(0.37) and len(got[0]) == 9
    for name in BATTERY:
        assert np.array_equal(got[1][name], want[1][name]), name


# ---------------------------------------------------------------------------
# remainder energies computed once
# ---------------------------------------------------------------------------


def assert_reports_equal(got, want) -> None:
    for field in ("times", "energies", "sup_energy", "band", "decay_rate",
                  "envelope_constant", "blowup_time", "fit_window"):
        assert same(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("d", [1, 2])
def test_energy_report_matches_per_state_loop(d):
    grid = GRIDS[d]
    cfg = FlowConfig(grid, CUBES[d], 1.0, 0.05, 6.0, record_noise=True)
    v0 = zero_pair(grid)
    tup = (1,) + (0,) * (d - 1)
    v0.u.coeffs.reshape(-1)[flat_index(grid, tup)] = 3.0
    v0.u.coeffs.reshape(-1)[flat_index(grid, tuple(-c for c in tup))] = 3.0
    u0 = random_pair(grid, np.random.default_rng(4))
    traj = evolve(u0, cfg, np.random.default_rng(11), initial_remainder=v0, thin_every=3)
    assert traj.blowup_time is None
    assert same(traj.energies, [flow.energy(v) for v in traj.v_states()])
    assert_reports_equal(energy_monitor(traj, 0.4), oracles.energy_report(traj, 0.4))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("gamma, thin, finite", [(1.0, 1, True), (1e12, 4, False)])
def test_energy_report_matches_per_state_loop_at_blowup(gamma, thin, finite):
    # the first crosses ENERGY_CEILING with a finite state; the second leaves
    # the remainder non-finite, which the blowup probe short-circuits on
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, gamma, 0.05, 3.0, record_noise=True)
    big = zero_pair(grid)
    big.u.coeffs[flat_index(grid, (0,))] = 3e4
    traj = evolve(zero_pair(grid), cfg, np.random.default_rng(3), initial_remainder=big, thin_every=thin)
    assert traj.blowup_time is not None
    last = pair_to_state(traj.v_states()[-1])
    assert bool(np.isfinite(last).all()) == finite
    if finite:
        assert traj.energies[-1] > ENERGY_CEILING
    assert same(traj.energies, [flow.energy(v) for v in traj.v_states()])
    assert_reports_equal(energy_monitor(traj, 0.4), oracles.energy_report(traj, 0.4))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_finite_remainder_with_nan_energy_is_a_blowup():
    # at t = 0.2 the remainder is still finite, but its energy overflows to
    # NaN (an infinite |u|^2 times the zero mode's zero |n|^s weight)
    grid = GRIDS[1]
    cfg = FlowConfig(grid, 4, 1.0, 0.05, 3.0, record_noise=True)
    big = zero_pair(grid)
    big.u.coeffs[flat_index(grid, (0,))] = 3e4
    traj = evolve(zero_pair(grid), cfg, np.random.default_rng(3), initial_remainder=big, thin_every=4)
    assert traj.blowup_time == 0.2
    assert np.isfinite(pair_to_state(traj.v_states()[-1])).all()
    assert np.isnan(traj.energies[-1])


def test_unrecorded_trajectory_has_no_energies():
    cfg = FlowConfig(GRIDS[1], 4, 1.0, 0.05, 0.5)
    traj = evolve(zero_pair(cfg.grid), cfg, np.random.default_rng(1))
    assert traj.energies is None
    with pytest.raises(ValueError):
        energy_monitor(traj, 0.4)


# ---------------------------------------------------------------------------
# the Hoelder norm in one transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_holder_norms_match_per_field_loop(d):
    grid = GRIDS[d]
    gen = np.random.default_rng(d)
    pairs = [random_pair(grid, gen) for _ in range(4)]
    states = np.stack([pair_to_state(v) for v in pairs])
    batched = holder_norm_states(grid, states, 0.4)
    for i, v in enumerate(pairs):
        want = oracles.holder_norm(v, 0.4)
        assert batched[i] == want
        assert holder_norm(v, 0.4) == want
        assert holder_norm_field(v.u, 0.7) == oracles.holder_norm_field(v.u, 0.7)
    values = resolve_battery(("holder:0.4",), grid)["holder:0.4"](grid, states)
    assert np.array_equal(values, [oracles.holder_norm_field(v.u, 0.4) for v in pairs])


@pytest.mark.parametrize(
    "d, horizon, dt", [(1, 20.0, 0.05), (2, 20.0, 0.05), (3, 20.0, 0.05), (3, 0.0, 0.05), (3, 1.0, 0.1)]
)
def test_xalpha_norm_matches_per_state_loop(d, horizon, dt):
    # at d=3 a batch holds holder_batch_rows(grid) = 5 states, so the
    # propagation chain crosses many batch boundaries
    grid = GRIDS[d]
    v = random_pair(grid, np.random.default_rng(10 + d))
    want = oracles.xalpha_norm(v, 0.4, horizon, dt)
    assert xalpha_norm(v, 0.4, horizon, dt) == want


@pytest.mark.parametrize("d", [1, 3])
def test_xalpha_norm_takes_every_propagated_state_once(d, monkeypatch):
    # the sweep's maximum usually sits at t = 0, so check the states it
    # hands to the batched norm: the propagation chain, in time order
    grid = GRIDS[d]
    v = random_pair(grid, np.random.default_rng(20 + d))
    seen = []

    def record(grid, states, beta):
        seen.append(states.copy())
        return holder_norm_states(grid, states, beta)

    monkeypatch.setattr(linear_dynamics, "holder_norm_states", record)
    xalpha_norm(v, 0.4, 2.0, 0.05)
    assert max(len(b) for b in seen) <= holder_batch_rows(grid)
    S = propagator(grid, 0.05)
    want = [pair_to_state(v)]
    for _ in range(40):
        want.append(oracles.propagate_states(S, want[-1]))
    assert np.array_equal(np.concatenate(seen), np.stack(want))


def test_holder_batches_hold_about_a_mebibyte():
    for grid in GRIDS.values():
        rows = holder_batch_rows(grid)
        entries = 2 * next_fast_len(2 * (2 * grid.K + 1)) ** grid.d  # per state
        assert rows * entries <= 1 << 16 < (rows + 1) * entries
