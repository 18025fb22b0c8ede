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
from dataclasses import dataclass

import numpy as np

from .linear_dynamics import (
    NoisePath,
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
    abs2_modes,
    dealiased_cube_coeffs,
    holder_norm,
    quartic_integral_coeffs,
)

ENERGY_CEILING = 1e12
# evolve_ensemble's working set: a row chunk's states take at most BATCH_ITEMS
# complex entries and its draw block at most DRAW_ITEMS, within these caps
MAX_ROW_CHUNK = 1024
MAX_TIME_BLOCK = 128
DRAW_ITEMS = 32 * BATCH_ITEMS


@dataclass(frozen=True)
class FlowConfig:
    """Truncation, interaction strength, and time stepping for one run."""

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
    noise: NoisePath | None = None
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


def kick_states(cfg: FlowConfig, states: np.ndarray, h: float, plan: CubePlan | None = None) -> None:
    """In-place velocity shear p -= h * gamma * P_N (P_N u)^3 on flat states.

    Only the velocity modes inside the cube change; the shear is zero outside.
    A plan built for the states' batch shape supplies the cube's tables and
    scratch; without one, a throwaway plan is built, or nothing happens when
    gamma == 0 or N < 0.
    """
    grid = cfg.grid
    if plan is None:
        if cfg.gamma == 0.0 or cfg.N < 0:
            return
        plan = CubePlan(grid, cfg.N, states.shape[:-2])
    elif states.shape[:-2] != plan.batch:
        raise ValueError(f"plan for batch {plan.batch} used on states of shape {states.shape}")
    # splitting the last axis into the mode shape always gives views
    u = states[..., 0, :].reshape(plan.shape)
    p_cube = states[..., 1, :].reshape(plan.shape)[plan.cube]
    # the plan's output is scratch, so the shear is scaled in place
    shear = dealiased_cube_coeffs(grid, u, cfg.N, plan)[plan.cube]
    shear *= h * cfg.gamma
    p_cube -= shear


class Stepper:
    """The splitting step for one (grid, N, gamma, h), its tables built once.

    `evolve` and `evolve_ensemble` both advance states with `run`, so one
    sequence of operations defines the scheme: propagate and add the first
    half-step increment, kick, propagate and add the second.  The half-step
    propagator is held in the layout `propagate_states` reads fastest.  Each
    `run` builds its own cube plan and state buffers, so one stepper can
    serve several threads.
    """

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        self.table = build_table(cfg.grid, cfg.h / 2)
        self.S = propagator_columns(self.table.S)

    def run(self, layers: np.ndarray, blocks, visit_steps=(), visit=None) -> np.ndarray:
        """Advance layers (L, rows, 2, n_modes) through an iterable of half-step
        increment blocks, each (rows, 2 * steps, n_half, 2), and return them.

        Every layer takes the same increments, and only layer 0 is kicked, so
        a recorded run carries its linear solution as layer 1 and one
        propagation and one increment add serve both.  After each step k in
        the container visit_steps, visit(k, layers) runs, and the run stops
        when it returns True.  The caller's layers are never written: the
        half-steps alternate between two buffers of this run, and the
        returned layers (and those handed to visit) are one of them.
        """
        cfg, grid = self.cfg, self.cfg.grid
        # the one place a run decides whether it kicks
        plan = CubePlan(grid, cfg.N, layers.shape[1:2]) if cfg.gamma != 0.0 and cfg.N >= 0 else None
        into_first, into_second = np.empty((2,) + layers.shape, dtype=complex)
        # half-steps per scatter: whole blocks for narrow batches, one at a
        # time once a half-step's increments alone exceed the budget
        span = max(1, BATCH_ITEMS // (2 * layers.shape[1] * grid.n_modes))
        k = 0
        for eta in blocks:
            for lo in range(0, eta.shape[1], span):
                inc = increments_to_states(grid, eta[:, lo : lo + span])
                for j in range(inc.shape[1]):
                    # first half-steps go into one buffer and second ones
                    # into the other (blocks hold whole steps), so a
                    # half-step never writes the states it reads
                    first = (lo + j) % 2 == 0
                    layers = propagate_states(self.S, layers, into_first if first else into_second)
                    layers += inc[:, j]
                    if first:  # the kick sits between the half-steps
                        if plan is not None:
                            kick_states(cfg, layers[0], cfg.h, plan)
                        continue
                    k += 1
                    if k in visit_steps and visit(k, layers):
                        return layers
        return layers


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
    frac = abs2_modes(grid).reshape(-1) ** (grid.s / 2)
    quad = (
        0.5 * np.sum(np.abs(p) ** 2, axis=-1)
        + 0.5 * np.sum(np.abs(u) ** 2, axis=-1)
        + 0.5 * np.sum(frac * np.abs(u) ** 2, axis=-1)
        + 0.125 * np.sum(np.abs(u + p) ** 2, axis=-1)
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

    When cfg.record_noise is set, every half-step increment is recorded and
    the linear solution from state0 is co-evolved on the identical increments,
    so state - linear_state realizes the remainder with v(0) =
    initial_remainder.
    A noise_path (at half-step spacing) replays recorded increments instead of
    drawing fresh ones.  Blowup (non-finite coefficients, or an energy that is
    NaN or beyond 1e12) truncates the trajectory and sets blowup_time.
    """
    grid = cfg.grid
    stepper = Stepper(cfg)
    table = stepper.table
    n_steps = cfg.n_steps
    if noise_path is not None:
        noise_path.check()
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
    increments = (
        np.empty((2 * n_steps, table.n_half, 2), dtype=complex) if record else None
    )

    sample_steps = {k for k in range(1, n_steps + 1) if k % thin == 0 or k == n_steps}
    n_samples = len(sample_steps) + 1
    times = [0.0]
    # layer 0 holds the states, layer 1 the linear states of a recorded run
    kept = np.empty((2 if record else 1, n_samples, 2, grid.n_modes), dtype=complex)
    kept[0, 0] = state
    if record:
        kept[1, 0] = linear
    energies = [float(energy_states(grid, (state - linear)[None])[0])] if record else None
    blowup_time = None

    def blocks():
        # every block ends at a sample step, so a blowup stops the draws
        # exactly where the trajectory stops
        for k in range(0, n_steps, thin):
            span = slice(2 * k, 2 * min(k + thin, n_steps))
            if noise_path is not None:
                eta = noise_path.increments[span]
                if record:
                    increments[span] = eta
            else:
                # a recording run draws straight into its record
                out = increments[span] if record else None
                eta = draw_increments(table, gen, span.stop - span.start, out)
            yield eta[None]

    def visit(k: int, layers: np.ndarray) -> bool:
        nonlocal blowup_time
        t = k * cfg.h
        kept[:, len(times)] = layers[:, 0]
        times.append(t)
        probe = layers[0] - layers[1] if record else layers[0]
        finite = np.all(np.isfinite(probe.view(float)))
        if finite:
            e = float(energy_states(grid, probe)[0])
        elif record:
            # a recorded run keeps the energy of a non-finite remainder too
            with np.errstate(all="ignore"):
                e = float(energy_states(grid, probe)[0])
        if record:
            energies.append(e)
        # a finite remainder can still overflow to a NaN energy
        if not finite or not e <= ENERGY_CEILING:
            blowup_time = t
            return True
        return False

    layers = np.stack((state, linear)) if record else state[None]
    stepper.run(layers[:, None], blocks(), sample_steps, visit)

    path = None
    if record:
        drawn = increments if blowup_time is None else increments[: 2 * round(blowup_time / cfg.h)]
        path = NoisePath(grid, cfg.h / 2, drawn)
    kept = kept[:, : len(times)]
    return Trajectory(
        grid,
        np.array(times),
        kept[0],
        path,
        kept[1] if record else None,
        blowup_time,
        np.array(energies) if record else None,
    )


# ---------------------------------------------------------------------------
# batched ensemble engine
# ---------------------------------------------------------------------------


def evolve_ensemble(
    cfg: FlowConfig,
    initial_states: np.ndarray,
    generators: list[np.random.Generator],
    observables: dict[str, callable] | None = None,
    *,
    sample_every: int | None = None,
    row_chunk: int | None = None,
    time_block: int | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Evolve a batch of trajectories with independent per-row streams.

    initial_states: (B, 2, n_modes) complex.  observables maps names to
    vectorized functions (grid, states block) -> (rows,) values, evaluated at
    t = 0 and every sample_every steps (default: the thinning default).

    Rows are stepped in chunks of row_chunk rows, and each chunk draws its
    increments time_block steps at a time.  By default both follow from the
    batch budget: a chunk's states fill at most BATCH_ITEMS complex entries
    and its draw block at most DRAW_ITEMS, so memory stays bounded whatever
    the grid, the ensemble size and the horizon.

    Returns (sample_times, {name: (n_samples, B)}, final_states).  Values
    depend only on the generators' streams and the config; row chunking, time
    blocking, and thread count never change results, because each row consumes
    its own fixed-order stream and outputs are assembled by row index.
    """
    grid = cfg.grid
    stepper = Stepper(cfg)
    table = stepper.table
    n_steps = cfg.n_steps
    B = initial_states.shape[0]
    if len(generators) != B:
        raise ValueError("one generator per trajectory row is required")
    every = default_thin(cfg.h) if sample_every is None else max(1, sample_every)
    sample_steps = [k for k in range(1, n_steps + 1) if k % every == 0 or k == n_steps]
    sample_times = np.array([0.0] + [k * cfg.h for k in sample_steps])
    sample_index = {k: i + 1 for i, k in enumerate(sample_steps)}
    obs = observables or {}
    series = {
        name: np.empty((len(sample_times), B)) for name in obs
    }
    finals = np.empty_like(initial_states)
    if row_chunk is None:
        row_chunk = min(MAX_ROW_CHUNK, max(1, BATCH_ITEMS // (2 * grid.n_modes)))
    if time_block is None:
        # a block is (rows, 2 * steps, n_half, 2) complex
        per_step = max(1, min(row_chunk, B)) * 4 * table.n_half
        time_block = min(MAX_TIME_BLOCK, max(1, DRAW_ITEMS // per_step))

    def run_chunk(lo: int, hi: int) -> None:
        gens = generators[lo:hi]
        # samples are held and observed in one call per observable, as many
        # as the batch budget allows and at least one
        per_call = max(1, min(len(sample_steps), BATCH_ITEMS // ((hi - lo) * 2 * grid.n_modes)))
        held = np.empty((per_call, hi - lo, 2, grid.n_modes), dtype=complex)
        first, count = 0, 0  # series index of held[0], samples held

        def observe(idx: int, states: np.ndarray) -> None:
            # states (n, rows, 2, n_modes) are the samples idx .. idx + n - 1
            n = states.shape[0]
            flat = states.reshape(n * (hi - lo), 2, grid.n_modes)
            for name, fn in obs.items():
                series[name][idx : idx + n, lo:hi] = fn(grid, flat).reshape(n, hi - lo)

        def flush() -> None:
            nonlocal count
            if count:
                observe(first, held[:count])
                count = 0

        def visit(k: int, layers: np.ndarray) -> None:
            nonlocal first, count
            if count == per_call:
                flush()
            if not count:
                first = sample_index[k]
            held[count] = layers[0]
            count += 1

        def blocks():
            for k in range(0, n_steps, time_block):
                nb = min(time_block, n_steps - k)
                draws = np.empty((hi - lo, 2 * nb, table.n_half, 2), dtype=complex)
                for r, gen in enumerate(gens):
                    draw_increments(table, gen, 2 * nb, draws[r])
                yield draws

        observe(0, initial_states[None, lo:hi])
        layers = stepper.run(initial_states[None, lo:hi], blocks(), sample_index, visit)
        flush()
        finals[lo:hi] = layers[0]

    chunks = [(lo, min(lo + row_chunk, B)) for lo in range(0, B, row_chunk)]
    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: run_chunk(*c), chunks))
    else:
        for lo, hi in chunks:
            run_chunk(lo, hi)
    return sample_times, series, finals


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
