"""Splitting integrator for the truncated nonlinear flow.

One step of size h is the composition

    exact OU half-step (h/2)  .  velocity kick (h)  .  exact OU half-step (h/2)

where the OU substeps use the exact transition kernel of the damped linear
stochastic system (no discretization error) and the kick is the shear
p -> p - h * gamma * P_N (P_N u)^3 with alias-free cubing.  All error is
confined to the deterministic kick, so the scheme's weak error is O(h^2) and
the linear system's stationary law is preserved exactly.

The remainder decomposition co-evolves the linear solution on the identical
increments; outside the nonlinearity's cube the two solutions run through
bit-identical arithmetic, so their difference v is supported exactly on the
cube at all times.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .linear_dynamics import (
    NoisePath,
    PropagatePlan,
    build_table,
    draw_increments,
    increments_to_states,
    propagate_states,
    propagator_columns,
)
from .spectral import (
    BATCH_ITEMS,
    TWO_PI,
    CubePlan,
    GridSpec,
    dealiased_cube_coeffs,
    frac_modes,
    holder_norm,
    quartic_integral_coeffs,
)

ENERGY_CEILING = 1e12
# evolve_ensemble's working set per worker thread: a row chunk's states take at
# most CHUNK_ITEMS complex entries (256 KiB) and its draw block at most
# DRAW_ITEMS (2 MiB), within these caps.  A row makes one draw call per block,
# ceil(n_steps / block_steps) in all, and a block's steps grow as its rows
# shrink, so a small budget with small chunks costs no more calls per member
# (4 over 25 steps at M=66) and no more interpreter-lock hand-offs
MAX_ROW_CHUNK = 1024
MAX_TIME_BLOCK = 128
CHUNK_ITEMS = BATCH_ITEMS // 4
DRAW_ITEMS = 2 * BATCH_ITEMS


def chunk_rows(grid: GridSpec) -> int:
    """Rows per evolve_ensemble chunk: as many as keep a chunk's states within
    CHUNK_ITEMS complex entries, at least one and at most MAX_ROW_CHUNK."""
    return min(MAX_ROW_CHUNK, max(1, CHUNK_ITEMS // (2 * grid.n_modes)))


@dataclass(frozen=True)
class FlowConfig:
    """Truncation, interaction strength, and time stepping for one run.

    record_noise asks `evolve` to co-evolve the linear solution on the same
    increments and keep the remainder's energies; it keeps no increment, and
    keeps its name because every report echoes the config.
    """

    grid: GridSpec
    N: int
    gamma: float
    h: float
    T: float
    record_noise: bool = False

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size must be positive")
        if self.T < 0:
            raise ValueError("final time must be nonnegative")
        k = round(self.T / self.h)
        if abs(k * self.h - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("T must be an integer multiple of h")
        if self.N < -1 or self.N > self.grid.K:
            raise ValueError(f"truncation N={self.N} outside [-1, K={self.grid.K}]")
        if self.gamma < 0:
            raise ValueError("interaction strength must be nonnegative")
        if self.gamma > 0 and self.N >= 0 and self.grid.M < 4 * self.N + 2:
            raise ValueError(
                f"grid M={self.grid.M} cannot dealias cubing at N={self.N} "
                f"(needs M >= {4 * self.N + 2})"
            )

    @property
    def n_steps(self) -> int:
        return round(self.T / self.h)


@dataclass
class Trajectory:
    """Thinned sample-time states of one run, with optional decomposition.

    states and linear_states are flat arrays (n_samples, 2, n_modes), one
    row per entry of times.  A recorded run also keeps the remainder's energy
    at every sample time, the energy of each row of `v_states()`, as its
    blowup check computed it.
    """

    grid: GridSpec
    times: np.ndarray
    states: np.ndarray
    linear_states: np.ndarray | None = None
    blowup_time: float | None = None
    energies: np.ndarray | None = None

    def v_states(self) -> np.ndarray:
        """The remainder states - linear_states, (n_samples, 2, n_modes)."""
        if self.linear_states is None:
            raise ValueError("trajectory was run without noise recording")
        return self.states - self.linear_states


# ---------------------------------------------------------------------------
# kick and stepper
# ---------------------------------------------------------------------------


class KickPlan(CubePlan):
    """A cube plan bound to the displacement of one flat states array (...,
    2, n_modes), with the views the kick writes: the velocity's cube, the
    cube of the plan's output (the shear) and the shear's factor h * gamma.
    """

    def __init__(self, cfg: FlowConfig, states: np.ndarray, h: float):
        shape = states.shape[:-2] + cfg.grid.mode_shape
        # splitting the last axis into the mode shape always gives views
        super().__init__(cfg.grid, cfg.N, states[..., 0, :].reshape(shape))
        self.cfg, self.states, self.h = cfg, states, h
        self.velocity = states[..., 1, :].reshape(shape)[self.cube]
        self.shear = self.out[self.cube]
        # complex, as numpy would convert the float on every product
        self.scale = np.complex128(h * cfg.gamma)


def kick_states(cfg: FlowConfig, states: np.ndarray, h: float, plan: KickPlan | None = None) -> None:
    """In-place velocity shear p -= h * gamma * P_N (P_N u)^3 on flat states.

    Only the velocity modes inside the cube change; the shear is zero outside.
    A plan bound to these states (the same array object), config and h
    supplies the cube's tables, scratch and views, and one bound to anything
    else raises ValueError; without one, a throwaway plan is bound to the
    states, or nothing happens when gamma == 0 or N < 0.
    """
    if plan is None:
        if cfg.gamma == 0.0 or cfg.N < 0:
            return
        plan = KickPlan(cfg, states, h)
    elif states is not plan.states or h != plan.h or (cfg is not plan.cfg and cfg != plan.cfg):
        raise ValueError("a kick plan serves only the states array, config and step it was built for")
    # the plan's output is scratch, so the shear is scaled in place
    dealiased_cube_coeffs(cfg.grid, plan.coeffs, cfg.N, plan)
    shear, velocity = plan.shear, plan.velocity
    shear *= plan.scale
    velocity -= shear


class Stepper:
    """The splitting step for one (grid, N, gamma, h), its tables built once.

    `evolve` and `evolve_ensemble` both advance states with `run`, so one
    sequence of operations defines the scheme: propagate and add the first
    half-step increment, kick, propagate and add the second.  The half-step
    propagator is held in the layout `propagate_states` reads fastest.  Each
    `run` builds its own kick and propagation plans and buffers, so one
    stepper can serve several threads.
    """

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        self.table = build_table(cfg.grid, cfg.h / 2)
        self.S = propagator_columns(self.table.S)

    def run(self, layers: np.ndarray, blocks, every: int):
        """Advance layers (L, rows, 2, n_modes) through an iterable of half-step
        increment blocks, each (rows, 2 * steps, n_half, 2), yielding (k,
        layers) after each step k of sample_steps(cfg.n_steps, every).

        Every layer takes the same increments, and only layer 0 is kicked, so
        a recorded run carries its linear solution as layer 1 and one
        propagation and one increment add serve both.  A caller stops the run
        with break.  The caller's layers are never written: the half-steps
        alternate between two buffers of this run, and the yielded layers are
        one of them, valid until the next step.

        Every view, buffer and scalar a step uses is built here, once per
        run, so a step makes only its ufunc and FFT calls.
        """
        cfg, grid, S, h = self.cfg, self.cfg.grid, self.S, self.cfg.h
        samples = set(sample_steps(cfg.n_steps, every))
        into_first, into_second, prod = np.empty((3,) + layers.shape, dtype=complex)
        # first half-steps go from into_second into into_first and second
        # ones back (blocks hold whole steps), so a half-step never writes the
        # states it reads, and the run starts from a copy of the caller's
        # layers in into_second
        into_second[...] = layers
        halves = tuple(
            (source, target, PropagatePlan(S, source, prod))
            for source, target in ((into_second, into_first), (into_first, into_second))
        )
        # the kick follows a first half-step, so it always acts on layer 0
        # of into_first; the one place a run decides whether it kicks
        kicked = into_first[0]
        plan = KickPlan(cfg, kicked, h) if cfg.gamma != 0.0 and cfg.N >= 0 else None
        # half-steps per scatter: whole blocks for narrow batches, one at a
        # time once a half-step's increments alone exceed the budget.  The
        # scatter is steps-major, so a half-step's increments are one
        # contiguous block, and it is as wide as the widest block needs
        span = max(1, BATCH_ITEMS // (2 * layers.shape[1] * grid.n_modes))
        scatter = incs = ()
        k = 0
        for eta in blocks:
            if len(scatter) < min(span, eta.shape[1]):
                scatter = np.empty((min(span, eta.shape[1]),) + layers.shape[1:], dtype=complex)
                incs = list(scatter)
            for lo in range(0, eta.shape[1], span):
                part = eta[:, lo : lo + span]
                n = part.shape[1]
                increments_to_states(grid, part, scatter[:n].swapaxes(0, 1))
                for j in range(n):
                    second = (lo + j) % 2
                    source, target, propagation = halves[second]
                    propagate_states(S, source, target, propagation)
                    target += incs[j]
                    if not second:
                        if plan is not None:
                            kick_states(cfg, kicked, h, plan)
                        continue
                    k += 1
                    if k in samples:
                        yield k, target


def sample_steps(n_steps: int, every: int) -> list[int]:
    """The steps a run of n_steps samples after: every `every`-th step, and
    the last step."""
    steps = list(range(every, n_steps + 1, every))
    if n_steps % every:
        steps.append(n_steps)
    return steps


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def energy_states(grid: GridSpec, states: np.ndarray) -> np.ndarray:
    """Batched energy of flat states (..., 2, n_modes).

    E = 1/2 int v_t^2 + 1/2 int v^2 + 1/2 int ((-Lap)^{s/4} v)^2
        + 1/4 int v^4 + 1/8 int (v+v_t)^2, physical-space integrals.
    """
    vol = TWO_PI**grid.d
    u = states[..., 0, :]
    p = states[..., 1, :]
    u2 = np.abs(u) ** 2
    # np.sum's reduction without its wrapper
    add = np.add.reduce
    quad = (
        0.5 * add(np.abs(p) ** 2, axis=-1)
        + 0.5 * add(u2, axis=-1)
        + 0.5 * add(frac_modes(grid) * u2, axis=-1)
        + 0.125 * add(np.abs(u + p) ** 2, axis=-1)
    )
    quart = quartic_integral_coeffs(
        grid, u.reshape(states.shape[:-2] + grid.mode_shape)
    )
    return vol * quad + 0.25 * quart


# ---------------------------------------------------------------------------
# single-trajectory evolution
# ---------------------------------------------------------------------------


def default_thin(h: float) -> int:
    return max(1, math.ceil(0.1 / h - 1e-9))


def evolve(
    state0: np.ndarray,
    cfg: FlowConfig,
    gen: np.random.Generator | None = None,
    *,
    initial_remainder: np.ndarray | None = None,
    noise_path: NoisePath | None = None,
    thin_every: int | None = None,
) -> Trajectory:
    """Run the splitting flow from the flat state state0 (2, n_modes), plus an
    optional remainder of the same shape.

    When cfg.record_noise is set, the linear solution from state0 is
    co-evolved on the identical increments, so state - linear_state realizes
    the remainder with v(0) = initial_remainder, and the remainder's energy
    is kept at every sample time.  No increment is kept: the draws depend only
    on gen's stream position, so a fresh copy of the stream draws the same
    path again.
    A noise_path (at half-step spacing, on cfg's grid) replays given
    increments instead of drawing fresh ones.  Blowup (non-finite
    coefficients, or an energy that is NaN or beyond 1e12) truncates the
    trajectory and sets blowup_time.
    """
    grid = cfg.grid
    stepper = Stepper(cfg)
    table = stepper.table
    n_steps = cfg.n_steps
    if noise_path is not None:
        noise_path.check()
        if noise_path.grid != grid:
            raise ValueError(f"replay path drawn on {noise_path.grid}, run on {grid}")
        if abs(noise_path.h - cfg.h / 2) > 1e-12 * cfg.h:
            raise ValueError("replay path spacing must equal h/2")
        if noise_path.n_steps < 2 * n_steps:
            raise ValueError("replay path too short for the requested horizon")
    elif gen is None:
        raise ValueError("need a generator when no noise path is given")
    if thin_every is not None and thin_every < 1:
        raise ValueError(f"thin_every must be a positive integer, got {thin_every}")
    thin = default_thin(cfg.h) if thin_every is None else thin_every
    for name, given in (("initial state", state0), ("initial remainder", initial_remainder)):
        if given is not None and np.shape(given) != (2, grid.n_modes):
            raise ValueError(
                f"{name} has shape {np.shape(given)}, expected (2, {grid.n_modes})"
            )

    state = np.array(state0, dtype=complex)
    if initial_remainder is not None:
        state += initial_remainder
    record = cfg.record_noise
    linear = np.array(state0, dtype=complex) if record else None

    times = np.array([0.0] + [k * cfg.h for k in sample_steps(n_steps, thin)])
    # layer 0 holds the states, layer 1 the linear states of a recorded run
    layers = np.stack((state, linear)) if record else state[None]
    kept = np.empty((len(layers), len(times), 2, grid.n_modes), dtype=complex)
    kept[:, 0] = layers
    energies = [float(energy_states(grid, (state - linear)[None])[0])] if record else None
    blowup_time = None

    def blocks():
        # no block crosses a sample step, so a blowup stops the draws exactly
        # where the trajectory stops; one buffer serves every drawn block, as
        # the stepper is done with a block before it asks for the next
        block_steps = min(MAX_TIME_BLOCK, thin, n_steps)
        buf = np.empty((2 * block_steps, table.n_half, 2), dtype=complex)
        for k in range(0, n_steps, thin):
            end = min(k + thin, n_steps)
            for lo in range(k, end, block_steps):
                hi = min(lo + block_steps, end)
                if noise_path is not None:
                    eta = noise_path.increments[2 * lo : 2 * hi]
                else:
                    eta = draw_increments(table, gen, 2 * (hi - lo), buf[: 2 * (hi - lo)])
                yield eta[None]

    i = 0
    for i, (k, layers) in enumerate(stepper.run(layers[:, None], blocks(), thin), 1):
        kept[:, i] = layers[:, 0]
        probe = layers[0] - layers[1] if record else layers[0]
        finite = np.all(np.isfinite(probe.view(float)))
        # a recorded run keeps the energy of a non-finite remainder too; only
        # that case silences numpy, as errstate slows every ufunc it covers
        with nullcontext() if finite else np.errstate(all="ignore"):
            e = float(energy_states(grid, probe)[0])
        if record:
            energies.append(e)
        # a finite remainder can still overflow to a NaN energy
        if not (finite and e <= ENERGY_CEILING):
            blowup_time = k * cfg.h
            break

    return Trajectory(
        grid,
        times[: i + 1],
        kept[0, : i + 1],
        kept[1, : i + 1] if record else None,
        blowup_time,
        np.array(energies) if record else None,
    )


# ---------------------------------------------------------------------------
# batched ensemble engine
# ---------------------------------------------------------------------------


def evolve_ensemble(
    cfg: FlowConfig,
    initial_states: Sequence[np.ndarray],
    generators: Sequence[np.random.Generator],
    observables: dict[str, callable] | None = None,
    *,
    sample_every: int | None = None,
    threads: int = 1,
    out=None,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Evolve a batch of trajectories with independent per-row streams.

    initial_states holds B flat states (2, n_modes) and generators B
    generators, one per row.  Of either only the length and one slice per
    row chunk are used, the states' slice being a (rows, 2, n_modes) complex
    array, so a sequence that builds a slice when asked (a redrawn ensemble,
    a chunk's own streams) is never held whole.  observables maps names to
    vectorized functions (grid, states block) -> (rows,) values, evaluated at
    t = 0 and every sample_every steps (default: the thinning default).
    Each chunk's final states are written with out[lo:hi] = finals, into a
    fresh (B, 2, n_modes) array when out is None.  out may be an array, the
    initial states themselves (a chunk reads its initial rows before it
    writes its final ones), or any sink of length B that keeps what it needs
    of each chunk's finals.

    Rows are stepped in chunks of chunk_rows(grid), and each chunk draws its
    increments a block of steps at a time: a chunk's states fill at most
    CHUNK_ITEMS complex entries and its draw block at most DRAW_ITEMS,
    within MAX_ROW_CHUNK rows and MAX_TIME_BLOCK steps, so a worker's memory
    stays bounded whatever the ensemble size and the horizon.

    Returns (sample_times, {name: (n_samples, B)}, out).  Values depend only
    on the initial states, the generators' streams and the config; row
    chunking, time blocking, and thread count never change results, because
    each row consumes its own fixed-order stream and outputs are assembled
    by row index.
    """
    grid = cfg.grid
    stepper = Stepper(cfg)
    table = stepper.table
    n_steps = cfg.n_steps
    B = len(initial_states)
    if len(generators) != B:
        raise ValueError("one generator per trajectory row is required")
    every = default_thin(cfg.h) if sample_every is None else max(1, sample_every)
    steps = sample_steps(n_steps, every)
    sample_times = np.array([0.0] + [k * cfg.h for k in steps])
    obs = observables or {}
    series = {
        name: np.empty((len(sample_times), B)) for name in obs
    }
    if out is None:
        out = np.empty((B, 2, grid.n_modes), dtype=complex)
    elif len(out) != B:
        raise ValueError(f"out holds {len(out)} members, expected {B}")
    rows = chunk_rows(grid)
    # a block is (rows, 2 * steps, n_half, 2) complex
    per_step = max(1, min(rows, B)) * 4 * table.n_half
    block_steps = min(MAX_TIME_BLOCK, max(1, DRAW_ITEMS // per_step))

    worker = threading.local()

    def run_chunk(lo: int, hi: int) -> None:
        gens = generators[lo:hi]
        # samples are held and observed in one call per observable, as many
        # as the batch budget allows and at least one
        per_call = max(1, min(len(steps), BATCH_ITEMS // ((hi - lo) * 2 * grid.n_modes)))
        held = np.empty((per_call, hi - lo, 2, grid.n_modes), dtype=complex)

        def observe(idx: int, states: np.ndarray) -> None:
            # states (n, rows, 2, n_modes) are the samples idx .. idx + n - 1
            n = states.shape[0]
            flat = states.reshape(n * (hi - lo), 2, grid.n_modes)
            for name, fn in obs.items():
                series[name][idx : idx + n, lo:hi] = fn(grid, flat).reshape(n, hi - lo)

        def blocks():
            # one buffer per worker thread serves every block of the chunks it
            # runs, one at a time: the stepper is done with a block before it
            # asks for the next.  Allocated once, it is not freed and faulted
            # in again for every chunk as malloc trims the heap's top
            step_items = (hi - lo) * 2 * table.n_half * 2
            buf = getattr(worker, "draws", None)
            if buf is None:
                buf = worker.draws = np.empty(min(block_steps, n_steps) * per_step, dtype=complex)
            for k in range(0, n_steps, block_steps):
                nb = min(block_steps, n_steps - k)
                draws = buf[: nb * step_items].reshape(hi - lo, 2 * nb, table.n_half, 2)
                yield draw_increments(table, gens, 2 * nb, draws)

        layers = initial_states[lo:hi][None]
        observe(0, layers)
        # sample i + 1 is held at i % per_call until held is full or the run ends
        for i, (k, layers) in enumerate(stepper.run(layers, blocks(), every)):
            j = i % per_call
            held[j] = layers[0]
            if j == per_call - 1 or k == n_steps:
                observe(i - j + 1, held[: j + 1])
        out[lo:hi] = layers[0]

    chunks = [(lo, min(lo + rows, B)) for lo in range(0, B, rows)]
    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: run_chunk(*c), chunks))
    else:
        for lo, hi in chunks:
            run_chunk(lo, hi)
    return sample_times, series, out


# ---------------------------------------------------------------------------
# energy monitor
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Summary of the remainder's energy along a trajectory.

    fitted is False when the initial energy does not exceed twice the band,
    so no transient was fitted and decay_rate reads 0.
    """

    times: np.ndarray
    energies: np.ndarray
    sup_energy: float
    band: float
    decay_rate: float
    envelope_constant: float
    blowup_time: float | None = None
    fit_window: tuple[float, float] = (0.0, 0.0)
    fitted: bool = False


def energy_monitor(traj: Trajectory, alpha: float) -> EnergyReport:
    """Energy series of the remainder, transient decay fit, stationary band.

    The excess over the late-time band is fitted as exp(-rate * t) on the
    initial transient; the band is also compared against the decay-weighted
    norm of the initial linear data raised to 8/alpha (constant reported, not
    asserted).
    """
    from .linear_dynamics import xalpha_norm

    if traj.energies is None:
        raise ValueError("trajectory was run without noise recording")
    energies = traj.energies
    times = traj.times
    sup_e = float(np.nanmax(energies))
    tail = energies[len(energies) // 2 :]
    band = float(np.median(tail))
    e0 = energies[0]
    excess = energies - band
    fit_rate = 0.0
    fit_lo = fit_hi = 0.0
    fitted = bool(e0 > 2 * band and e0 > 0)
    if fitted:
        mask = excess > max(band, 1e-12 * e0)
        stop = int(np.argmin(mask)) if not mask.all() else len(mask)
        stop = max(stop, 3)
        pts_t = times[:stop]
        pts_y = np.log(np.maximum(excess[:stop], 1e-300))
        slope, _ = np.polyfit(pts_t, pts_y, 1)
        fit_rate = float(-slope)
        fit_lo, fit_hi = float(pts_t[0]), float(pts_t[-1])
    scale = xalpha_norm(traj.grid, traj.linear_states[0], alpha)
    sup_lin = float(np.max(holder_norm(traj.grid, traj.linear_states, alpha)))
    base = max(scale, sup_lin)
    envelope = band / (1.0 + base ** (8.0 / alpha)) if base > 0 else band
    return EnergyReport(
        times=times,
        energies=energies,
        sup_energy=sup_e,
        band=band,
        decay_rate=fit_rate,
        envelope_constant=float(envelope),
        blowup_time=traj.blowup_time,
        fit_window=(fit_lo, fit_hi),
        fitted=fitted,
    )
