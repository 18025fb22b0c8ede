"""Binary container for noise paths and weighted ensembles.

One fixed little-endian layout, shared by the two payload kinds and
distinguished by a four-byte magic tag:

  magic    4 bytes   GDNP noise path / GDEN weighted ensemble
  version  u16       currently 1
  d        u32       spatial dimension
  M        u32       modes per axis
  s        f64       dispersion exponent
  h        f64       step spacing (0 for ensembles)
  count    u64       steps (paths) or members (ensembles)
  seed     u64       originating seed (0 when not applicable)
  n_half   u64       stored modes per record

Records follow as packed f64 in half-lattice order (zero mode first, then
lexicographic representatives of each +-n pair):

  noise path  per step, per mode: Re eta_u, Im eta_u, Re eta_p, Im eta_p
  ensemble    per member: the state in the same 4-f64-per-mode layout,
              then its log-weight

Mirrored modes are reconstructed from Hermitian symmetry on load.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .gibbs import WeightedEnsemble
from .linear_dynamics import NoisePath, increments_to_states, states_to_increment_form
from .spectral import GridSpec, half_lattice

MAGIC_NOISE = b"GDNP"
MAGIC_ENSEMBLE = b"GDEN"
VERSION = 1

_HEADER = struct.Struct("<4sHIIddQQQ")


def _pack_header(magic: bytes, grid: GridSpec, h: float, count: int, seed: int) -> bytes:
    n_half = half_lattice(grid).size
    return _HEADER.pack(magic, VERSION, grid.d, grid.M, grid.s, h, count, seed, n_half)


def _unpack_header(blob: bytes) -> tuple[bytes, GridSpec, float, int, int, int]:
    if len(blob) < _HEADER.size:
        raise ValueError("container file truncated before the header ends")
    magic, version, d, M, s, h, count, seed, n_half = _HEADER.unpack_from(blob)
    if magic not in (MAGIC_NOISE, MAGIC_ENSEMBLE):
        raise ValueError(f"not a recognized container (magic {magic!r})")
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    grid = GridSpec(d=d, M=M, s=s)
    stored = half_lattice(grid).size
    if n_half != stored:
        raise ValueError(f"header mode count {n_half} does not match the grid ({stored})")
    return magic, grid, h, count, seed, n_half


def _complex_to_f64(values: np.ndarray) -> np.ndarray:
    """(..., c) complex -> (..., 2c) f64 with Re/Im interleaved per entry."""
    out = np.empty(values.shape + (2,))
    out[..., 0] = values.real
    out[..., 1] = values.imag
    return out.reshape(values.shape[:-1] + (2 * values.shape[-1],))


def _f64_to_complex(flat: np.ndarray) -> np.ndarray:
    pairs = flat.reshape(flat.shape[:-1] + (flat.shape[-1] // 2, 2))
    return pairs[..., 0] + 1j * pairs[..., 1]


def _payload(blob: bytes, shape: tuple[int, ...]) -> np.ndarray:
    body = blob[_HEADER.size :]
    expect = int(np.prod(shape)) * 8
    if len(body) != expect:
        raise ValueError(f"payload size {len(body)} does not match header ({expect} bytes)")
    return np.frombuffer(body, dtype="<f8").reshape(shape).astype(float)


def save_noise(path: str | Path, noise: NoisePath) -> None:
    noise.check()
    header = _pack_header(MAGIC_NOISE, noise.grid, noise.h, noise.n_steps, noise.seed)
    body = _complex_to_f64(noise.increments).astype("<f8").tobytes()
    Path(path).write_bytes(header + body)


def save_ensemble(path: str | Path, ens: WeightedEnsemble) -> None:
    ens.check()
    half = _complex_to_f64(states_to_increment_form(ens.grid, ens.states))
    rows = np.concatenate([half.reshape(len(ens), -1), ens.log_weights[:, None]], axis=1)
    header = _pack_header(MAGIC_ENSEMBLE, ens.grid, 0.0, len(ens), ens.seed)
    Path(path).write_bytes(header + rows.astype("<f8").tobytes())


def load_noise(path: str | Path) -> NoisePath:
    blob = Path(path).read_bytes()
    magic, grid, h, count, seed, n_half = _unpack_header(blob)
    if magic != MAGIC_NOISE:
        raise ValueError("container does not hold a noise path")
    flat = _payload(blob, (count, n_half, 4))
    increments = _f64_to_complex(flat)
    out = NoisePath(grid, h, increments, seed)
    out.check()
    return out


def load_ensemble(path: str | Path) -> WeightedEnsemble:
    blob = Path(path).read_bytes()
    magic, grid, _, count, seed, n_half = _unpack_header(blob)
    if magic != MAGIC_ENSEMBLE:
        raise ValueError("container does not hold an ensemble")
    rows = _payload(blob, (count, n_half * 4 + 1))
    half = _f64_to_complex(rows[:, :-1].reshape(count, n_half, 4))
    states = increments_to_states(grid, half)
    out = WeightedEnsemble(grid, states, rows[:, -1].copy(), seed)
    out.check()
    return out

