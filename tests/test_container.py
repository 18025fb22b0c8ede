"""Binary container round-trips, byte-layout stability, and corruption guards."""

import hashlib
import struct

import numpy as np
import pytest

from gibbsdyn import container, rng
from gibbsdyn.container import load_ensemble, load_noise, save_ensemble, save_noise
from gibbsdyn.gibbs import WeightedEnsemble, sample_mu_states
from gibbsdyn.linear_dynamics import (
    NoisePath,
    build_table,
    draw_increments,
    increments_to_states,
)
from gibbsdyn.spectral import GridSpec, half_lattice

GRID = GridSpec(d=1, M=6, s=2.0)
NH = half_lattice(GRID).size


def golden_noise() -> NoisePath:
    inc = (
        np.arange(2 * NH * 2, dtype=float)
        + 1j * np.arange(2 * NH * 2, dtype=float)[::-1]
    ).reshape(2, NH, 2)
    inc[:, 0, :] = inc[:, 0, :].real
    return NoisePath(GRID, 0.25, inc, seed=7)


def golden_ensemble() -> WeightedEnsemble:
    half = np.arange(3 * NH * 2, dtype=float).reshape(3, NH, 2) * (1 + 0j)
    half[:, 1:, :] += 0.5j
    states = increments_to_states(GRID, half)
    return WeightedEnsemble(GRID, states, np.array([-0.5, -1.0, 0.0]), seed=11)


def test_noise_roundtrip(tmp_path):
    grid = GridSpec(d=2, M=8, s=3.0)
    gen = rng.stream(20260819, 60)
    table = build_table(grid, 0.1)
    noise = NoisePath(grid, 0.1, draw_increments(table, gen, 5), seed=123)
    p = tmp_path / "n.bin"
    save_noise(p, noise)
    back = load_noise(p)
    assert back.grid == grid
    assert back.h == noise.h
    assert back.seed == 123
    assert np.array_equal(back.increments, noise.increments)


def test_ensemble_roundtrip(tmp_path):
    grid = GridSpec(d=1, M=10, s=2.0)
    gen = rng.stream(20260819, 61)
    states = sample_mu_states(grid, gen, 17)
    lw = -np.abs(np.linspace(0.0, 2.0, 17))
    ens = WeightedEnsemble(grid, states, lw, seed=9)
    p = tmp_path / "e.bin"
    save_ensemble(p, ens)
    back = load_ensemble(p)
    assert back.grid == grid
    assert len(back) == 17
    assert np.array_equal(back.states, states)
    assert np.array_equal(back.log_weights, lw)
    assert back.seed == 9


def test_byte_layout_is_stable(tmp_path):
    """Golden digests pin the on-disk format; a change here breaks every
    previously written file and must be deliberate."""
    cases = [
        (golden_noise(), save_noise, "af8f88fe70889b29ccf09bc38b7272c7cf4c1f15bf6f1bb76900ee4f642fb296"),
        (golden_ensemble(), save_ensemble, "53b8c954255ae691698260d2d5a3650258d887c9f49ff5cd5e536e6e75d086a3"),
    ]
    for obj, saver, want in cases:
        p = tmp_path / "x.bin"
        saver(p, obj)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == want


def test_wrong_kind_rejected(tmp_path):
    save_noise(tmp_path / "n.bin", golden_noise())
    with pytest.raises(ValueError, match="ensemble"):
        load_ensemble(tmp_path / "n.bin")
    save_ensemble(tmp_path / "e.bin", golden_ensemble())
    with pytest.raises(ValueError, match="noise"):
        load_noise(tmp_path / "e.bin")


def test_retired_control_magic_rejected(tmp_path):
    # GDCP once tagged a control path; no payload kind carries it any more
    p = tmp_path / "c.bin"
    p.write_bytes(container._pack_header(b"GDCP", GRID, 0.5, 4, 0) + bytes(8 * 4 * NH * 2))
    for loader in (load_noise, load_ensemble):
        with pytest.raises(ValueError, match="not a recognized container"):
            loader(p)


def test_corruption_rejected(tmp_path):
    p = tmp_path / "n.bin"
    save_noise(p, golden_noise())
    blob = p.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:20])
    with pytest.raises(ValueError, match="truncated"):
        load_noise(short)

    badmagic = tmp_path / "badmagic.bin"
    badmagic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_noise(badmagic)

    badver = tmp_path / "badver.bin"
    badver.write_bytes(blob[:4] + struct.pack("<H", 99) + blob[6:])
    with pytest.raises(ValueError, match="version"):
        load_noise(badver)

    chopped = tmp_path / "chopped.bin"
    chopped.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_noise(chopped)


def test_header_mode_count_must_match(tmp_path):
    p = tmp_path / "n.bin"
    save_noise(p, golden_noise())
    blob = bytearray(p.read_bytes())
    # n_half is the last u64 of the header
    struct.pack_into("<Q", blob, container._HEADER.size - 8, 99)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="mode count"):
        load_noise(bad)
