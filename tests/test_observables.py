"""Named observable registry: values against direct computations."""

import numpy as np
import pytest

from gibbsdyn import rng
from gibbsdyn.gibbs import sample_mu_states
from gibbsdyn.observables import obs_one, resolve, resolve_battery
from gibbsdyn.spectral import TWO_PI, GridSpec, coeffs_to_grid, quartic_integral_coeffs
from oracles import holder_norm_field

GRID = GridSpec(d=1, M=14, s=2.0)


def _states(count=6, seed=30):
    return sample_mu_states(GRID, rng.stream(20260819, seed), count)


def test_one_is_constant():
    states = _states()
    assert np.array_equal(obs_one(GRID, states), np.ones(len(states)))


def test_l2_values_match_physical_means():
    states = _states()
    got_u = resolve("l2_u", GRID)(GRID, states)
    got_p = resolve("l2_ut", GRID)(GRID, states)
    for i in range(len(states)):
        u_phys = coeffs_to_grid(GRID, states[i, 0].reshape(GRID.mode_shape))
        p_phys = coeffs_to_grid(GRID, states[i, 1].reshape(GRID.mode_shape))
        assert got_u[i] == pytest.approx(np.mean(u_phys**2), rel=1e-12)
        assert got_p[i] == pytest.approx(np.mean(p_phys**2), rel=1e-12)


def test_quartic_matches_field_integral():
    states = _states()
    got = resolve("quartic", GRID)(GRID, states)
    for i in range(len(states)):
        field = states[i, 0].reshape(GRID.mode_shape)
        assert got[i] == pytest.approx(quartic_integral_coeffs(GRID, field) / TWO_PI, rel=1e-12)


def test_mode_extraction():
    states = _states()
    re1 = resolve("mode_re:1", GRID)(GRID, states)
    im2 = resolve("mode_im:2", GRID)(GRID, states)
    from gibbsdyn.spectral import flat_index

    i1 = flat_index(GRID, (1,))
    i2 = flat_index(GRID, (2,))
    assert np.array_equal(re1, states[:, 0, i1].real)
    assert np.array_equal(im2, states[:, 0, i2].imag)


def test_holder_matches_field_norm():
    states = _states()
    got = resolve("holder:0.4", GRID)(GRID, states)
    for i in range(len(states)):
        assert got[i] == pytest.approx(holder_norm_field(GRID, states[i, 0], 0.4), rel=1e-12)


def test_multidimensional_mode_names():
    grid = GridSpec(d=2, M=6, s=3.0)
    states = sample_mu_states(grid, rng.stream(20260819, 31), 4)
    fn = resolve("mode_re:1,-2", grid)
    from gibbsdyn.spectral import flat_index

    idx = flat_index(grid, (1, -2))
    assert np.array_equal(fn(grid, states), states[:, 0, idx].real)
    # a single index names the mode (k, 0, ..., 0); other counts are rejected
    idx = flat_index(grid, (2, 0))
    assert np.array_equal(resolve("mode_im:2", grid)(grid, states), states[:, 0, idx].imag)
    with pytest.raises(ValueError, match="dimension"):
        resolve("mode_re:1,0,0", grid)


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="unknown"):
        resolve("energy", GRID)
    with pytest.raises(ValueError, match="dimension"):
        resolve("mode_re:1,2", GRID)
    with pytest.raises(ValueError):
        resolve("holder:not_a_number", GRID)


def test_battery_resolution():
    battery = resolve_battery(("one", "l2_u", "holder:0.4"), GRID)
    assert set(battery) == {"one", "l2_u", "holder:0.4"}
    states = _states(3)
    for fn in battery.values():
        assert fn(GRID, states).shape == (3,)
