"""End-to-end statistical experiments: invariance of the reweighted measure,
ergodic averaging, linear mixing and contraction, stochastic-convolution
decay, truncation stability, and the decomposition's energy envelope.

Every experiment is a pure function of (config, master seed): reports are
bit-reproducible across runs and thread counts.  Verdicts are pure functions
of the recorded statistics and gates, so they can be re-derived from a report
alone.  Statistical experiments carry a negative-control knob (a deliberately
broken variant) so the test's power to fail is itself tested.

Master-seed stream registry (indices after the seed):
  0 base ensemble, (1,i) member noise, 2 initial data, (3,i) trajectory noise,
  4 reference ensemble, 5 coupled initial data, 6 coupled noise,
  (7,i) mixing ensemble noise, 8 reference draws, (9,i) convolution samples,
  10 shared initial datum, 11 shared noise, 12 remainder noise.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .flow import (
    FlowConfig,
    energy_monitor,
    energy_states,
    evolve,
    evolve_ensemble,
    chunk_rows,
    ENERGY_CEILING,
)
from .gibbs import (
    GibbsConfig,
    MuDraws,
    WeightedEnsemble,
    estimate,
    sample_mu_states,
    sample_rho,
)
from .linear_dynamics import (
    build_table,
    propagate_states,
    propagator,
    step_covariance,
    xalpha_norm,
)
from .observables import resolve, resolve_battery
from .spectral import (
    GridSpec,
    abs2_modes,
    cube_mask,
    flat_index,
    holder_norm,
    omega2,
    sobolev_pair_norm,
    state_batch_rows,
)

SCHEMA_VERSION = 1


def default_threads() -> int:
    """Worker threads when none are asked for: the cores this process may use."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# configuration and report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs; unused fields are ignored by design so
    one config type serves all experiments."""

    experiment: str
    grid: GridSpec
    flow: FlowConfig | None = None
    gibbs: GibbsConfig | None = None
    ensemble_size: int = 256
    observables: tuple[str, ...] = ("l2_u", "l2_ut", "quartic", "mode_re:1")
    z_threshold: float = 4.0
    ess_floor: float = 100.0
    rel_tolerance: float = 0.05
    ks_pvalue_floor: float = 0.01
    burn_in: float | None = None  # None: 5% of the horizon
    kick_factor: float = 1.0  # != 1: deliberately broken dynamics
    mu_scale: float = 1.0  # != 1: deliberately wrong reference law
    shared_noise: bool = True  # False: deliberately uncoupled runs
    weight_exponent: float = 0.125  # decay weight e^{s * exponent}
    n_values: tuple[int, ...] = (4, 8, 16, 32)
    windows: int = 8
    stick_time: float = 1.0
    alpha: float = 0.4
    target_energy: float = 1000.0
    decay_rate_gate: float = 0.2
    envelope_scales: tuple[float, ...] = (1.0, 2.0, 4.0)
    envelope_horizon: float = 20.0
    master_seed: int = 20260819
    threads: int = field(default_factory=default_threads)

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise ValueError("ensemble size must be at least 2")
        for name in ("z_threshold", "ess_floor", "rel_tolerance", "ks_pvalue_floor", "target_energy",
                     "stick_time", "windows", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def resolved_burn_in(self) -> float:
        if self.burn_in is not None:
            return self.burn_in
        return 0.05 * (self.flow.T if self.flow is not None else 0.0)


@dataclass
class Gate:
    """One pass/fail check: value `kind` threshold."""

    name: str
    value: float
    threshold: float
    kind: str  # abs_le | le | ge
    passed: bool


def make_gate(name: str, value: float, threshold: float, kind: str) -> Gate:
    v = float(value)
    if kind == "abs_le":
        ok = np.isfinite(v) and abs(v) <= threshold
    elif kind == "le":
        ok = np.isfinite(v) and v <= threshold
    elif kind == "ge":
        ok = np.isfinite(v) and v >= threshold
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return Gate(name, v, float(threshold), kind, bool(ok))


def verdict_of(gates: list[Gate], inconclusive: bool) -> str:
    if inconclusive:
        return "inconclusive"
    return "pass" if all(g.passed for g in gates) else "fail"


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    seed: int
    stats: dict
    gates: list[Gate]
    inconclusive: bool
    verdict: str
    series: tuple[list[str], list[list]] | None = None  # CSV header and rows; not in the JSON


def _plain(value):
    """Recursively convert to canonical JSON-encodable plain data."""
    if isinstance(value, Gate):
        return _plain(dataclasses.asdict(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if not np.isfinite(v):
            return {"nonfinite": repr(v)}
        return v
    if isinstance(value, (np.integer, int, str, bool)) or value is None:
        return int(value) if isinstance(value, np.integer) else value
    raise TypeError(f"cannot serialize {type(value)!r} into a report")


def report_to_json(report: ExperimentReport) -> str:
    """Canonical JSON: schema-versioned, sorted keys, runtime excluded so
    identical (config, seed) give byte-identical documents."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": report.experiment,
        "seed": report.seed,
        "config": report.config,
        "stats": report.stats,
        "gates": [dataclasses.asdict(g) for g in report.gates],
        "inconclusive": report.inconclusive,
        "verdict": report.verdict,
    }
    return json.dumps(_plain(doc), sort_keys=True, separators=(",", ":")) + "\n"


def make_report(
    name: str, config, seed: int, stats: dict, gates: list[Gate], inconclusive: bool,
    series: tuple[list[str], list[list]] | None = None,
) -> ExperimentReport:
    """A report echoing the full config, an ExperimentConfig or the CLI's
    resolved dict, so a report alone pins down its run."""
    echo = _plain(config)
    # the worker count affects scheduling only, never results, so it stays
    # out of the canonical echo: reports are byte-identical across thread counts
    echo.pop("threads", None)
    return ExperimentReport(
        experiment=name,
        config=echo,
        seed=seed,
        stats=stats,
        gates=gates,
        inconclusive=bool(inconclusive),
        verdict=verdict_of(gates, inconclusive),
        series=series,
    )


def _kicked_flow(cfg: ExperimentConfig, gamma: float) -> FlowConfig:
    """The flow of an experiment whose check holds only at interaction
    strength gamma, its kick scaled by kick_factor.  Any other flow.gamma is
    an error rather than silently replaced, so the echoed config is the one
    that ran."""
    if cfg.flow.gamma != gamma:
        raise ValueError(f"{cfg.experiment} needs flow.gamma = {gamma}, got {cfg.flow.gamma}")
    return replace(cfg.flow, gamma=gamma * cfg.kick_factor, grid=cfg.grid)


class MemberStreams(Sequence):
    """The generators rng.stream(seed, group, i) for i < count, built when
    asked: an index builds one and a slice the list of its own, so each
    evolve_ensemble chunk builds only the streams it draws from."""

    def __init__(self, seed: int, group: int, count: int):
        self.seed, self.group, self.members = seed, group, range(count)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index):
        picked = self.members[index]
        if isinstance(picked, range):
            return [rng.stream(self.seed, self.group, i) for i in picked]
        return rng.stream(self.seed, self.group, picked)


class BlowupError(RuntimeError):
    """A run blew up, an ensemble member broke down, or an observable went
    non-finite."""


class FinalChecks:
    """A sink for evolve_ensemble's final states that keeps of each member
    only what _require_finite reads: its energy and whether it ended finite.
    A chunk's finals go in with checks[lo:hi] = finals, from the worker that
    stepped them; a non-finite or overflowing member's energy is NaN or inf.

    Read as an array, the sink is its energies, one per member, so a tool
    that counts the non-finite rows of evolve_ensemble's finals counts the
    members whose final energy is not finite."""

    def __init__(self, grid: GridSpec, count: int):
        self.grid = grid
        self.energies = np.empty(count)
        self.finite = np.empty(count, dtype=bool)

    @classmethod
    def of(cls, grid: GridSpec, finals: np.ndarray) -> "FinalChecks":
        """The checks of a finals array, taken in row chunks of the batch
        budget, so they add no ensemble-sized temporaries."""
        checks = cls(grid, len(finals))
        rows = state_batch_rows(grid)
        for lo in range(0, len(finals), rows):
            checks[lo : lo + rows] = finals[lo : lo + rows]
        return checks

    def __len__(self) -> int:
        return len(self.energies)

    def __setitem__(self, index: slice, finals: np.ndarray) -> None:
        with np.errstate(all="ignore"):
            self.energies[index] = energy_states(self.grid, finals)
        self.finite[index] = np.isfinite(finals).reshape(len(finals), -1).all(axis=1)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.energies.shape

    def reshape(self, *shape) -> np.ndarray:
        return self.energies.reshape(*shape)


def _require_finite(
    checks: FinalChecks,
    series: dict[str, np.ndarray],
    log_weights: np.ndarray | None = None,
) -> None:
    """Raise on a breakdown in evolve_ensemble's output: a member that ended
    non-finite or with an energy above ENERGY_CEILING (the rule `evolve`
    applies to a single run), or a non-finite observable.  A blown-up member
    is a numerical failure, not a statistic to gate on, however small its
    weight.  With log_weights, the error gives the blown-up members' share of
    the normalised weight."""
    blown = ~(checks.energies <= ENERGY_CEILING)
    names = [name for name, values in series.items() if not np.isfinite(values).all()]
    if blown.any() or names:
        nonfinite = int(np.count_nonzero(~checks.finite))
        share = ""
        if log_weights is not None:
            w = np.exp(log_weights - log_weights.max())
            share = f", with {w[blown].sum() / w.sum():.3g} of the normalised weight"
        n = int(np.count_nonzero(blown))
        raise BlowupError(
            f"{n} of {len(checks)} ensemble members broke down ({nonfinite} ended non-finite, "
            f"{n - nonfinite} above energy {ENERGY_CEILING:g}){share}; "
            f"non-finite observables: {', '.join(names) or 'none'}"
        )


def ks_2samp_equal(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for two samples of one
    size n: returns (statistic, pvalue).

    The statistic is h/n, with h = max_x |#{a <= x} - #{b <= x}| counted in
    integers.  The p-value is the exact P(D_{n,n} >= h/n) under the null,
    Hodges' alternating sum in nested (Horner) form, at every n: about n + h
    loop steps.  For small h (up to 23 at n = 8192) rounding can take the sum
    a few ulps above 1; the p-value is then 1.0, which is the true value to
    double precision.  tests/test_ks.py holds both numbers to the bits of the
    reference implementation this evaluation order follows.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ValueError(f"need two non-empty 1-d samples of one size, got {a.shape} and {b.shape}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("KS samples must not contain NaN")
    n = a.size
    both = np.concatenate([a, b])
    counts = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(np.max(np.abs(counts)))
    if h == 0:
        return 0.0, 1.0
    # P = 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))), with A_k = binom(2n, n - (k+1)h) / binom(2n, n - kh)
    # built up from h ratios of simple terms, innermost k first
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return h / n, min(2 * p, 1.0)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def invariance_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Weighted observable means must agree at t = 0 and t = T when the
    ensemble starts in the base measure with interaction weights attached."""
    if cfg.flow is None or cfg.gibbs is None:
        raise ValueError("invariance requires flow and gibbs configs")
    grid = cfg.grid
    gibbs = cfg.gibbs
    flow = _kicked_flow(cfg, gibbs.gamma)
    count = cfg.ensemble_size

    # the initial states are redrawn chunk by chunk, and of the finals only
    # the checks are kept, so no states array is ever held whole
    states0 = MuDraws(gibbs, rng.stream(cfg.master_seed, 0), count, rows=chunk_rows(grid))
    battery = resolve_battery(cfg.observables, grid)
    checks = FinalChecks(grid, count)
    _, series, _ = evolve_ensemble(
        flow,
        states0,
        MemberStreams(cfg.master_seed, 1, count),
        battery,
        sample_every=flow.n_steps,
        threads=cfg.threads,
        out=checks,
    )
    _require_finite(checks, series, states0.log_weights)
    ens = WeightedEnsemble(grid, states0, states0.log_weights, cfg.master_seed)

    gates: list[Gate] = []
    stats: dict = {"observables": {}}
    rows = []
    min_ess = np.inf
    for name in cfg.observables:
        m0, se0, ess = estimate(ens, series[name][0])
        mT, seT, _ = estimate(ens, series[name][-1])
        spread = float(np.hypot(se0, seT))
        # a constant observable has no spread, and equal means are no evidence
        # against invariance
        z = (mT - m0) / spread if spread > 0 else (0.0 if mT == m0 else np.inf)
        stats["observables"][name] = {
            "mean_initial": m0,
            "mean_final": mT,
            "se_initial": se0,
            "se_final": seT,
            "z": z,
            "ess": ess,
        }
        rows.append([name, m0, se0, mT, seT, z, ess])
        gates.append(make_gate(f"z:{name}", z, cfg.z_threshold, "abs_le"))
        min_ess = min(min_ess, ess)

    # supplementary distribution check on a low-mode marginal (exact for the
    # unweighted linear case, reported otherwise)
    ks_name = next((n for n in cfg.observables if n.startswith("mode_re:")), None)
    if ks_name is not None:
        statistic, pvalue = ks_2samp_equal(series[ks_name][0], series[ks_name][-1])
        stats["ks"] = {"observable": ks_name, "statistic": statistic, "pvalue": pvalue}
        if gibbs.gamma == 0.0:
            gates.append(make_gate(f"ks:{ks_name}", pvalue, cfg.ks_pvalue_floor, "ge"))

    stats["min_ess"] = float(min_ess)
    inconclusive = min_ess < cfg.ess_floor
    gates.append(make_gate("ess", min_ess, cfg.ess_floor, "ge"))
    series = (["observable", "mean_initial", "se_initial", "mean_final", "se_final", "z", "ess"], rows)
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, inconclusive, series)


# ---------------------------------------------------------------------------
# ergodic averaging
# ---------------------------------------------------------------------------


def _cosine_mode(grid: GridSpec, n: int) -> np.ndarray:
    """The state u = cos(n x_1), u_t = 0, as flat coefficients (2, n_modes)."""
    state = np.zeros((2, grid.n_modes), dtype=complex)
    tup = (n,) + (0,) * (grid.d - 1)
    state[0, flat_index(grid, tup)] = 0.5
    state[0, flat_index(grid, tuple(-c for c in tup))] = 0.5
    return state


def _default_initial_states(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    grid = cfg.grid
    n_hi = cfg.flow.N if (cfg.flow is not None and cfg.flow.N >= 1) else max(1, grid.K // 2)
    return {
        "zero": np.zeros((2, grid.n_modes), dtype=complex),
        "high_mode": _cosine_mode(grid, n_hi),
        "mu_sample": sample_mu_states(grid, rng.stream(cfg.master_seed, 2), 1)[0],
    }


def ergodicity_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Single-trajectory time averages against the weighted ensemble answer,
    from several initial data; the limits must agree with the ensemble and
    with one another."""
    if cfg.flow is None or cfg.gibbs is None:
        raise ValueError("ergodicity requires flow and gibbs configs")
    grid = cfg.grid
    gibbs = cfg.gibbs
    flow = _kicked_flow(cfg, gibbs.gamma)
    burn = cfg.resolved_burn_in()
    # the late window starts at 2 * burn_in, and both windows must hold samples
    if not 0 <= 2 * burn < flow.T:
        raise ValueError(f"burn_in {burn} outside [0, T/2) for T = {flow.T}")
    battery = resolve_battery(cfg.observables, grid)

    initials = _default_initial_states(cfg)
    names = list(initials)
    states0 = np.stack([initials[k] for k in names])
    checks = FinalChecks(grid, len(names))
    times, series, _ = evolve_ensemble(
        flow,
        states0,
        MemberStreams(cfg.master_seed, 3, len(names)),
        battery,
        threads=cfg.threads,
        out=checks,
    )
    _require_finite(checks, series)
    keep = times > burn
    keep_late = times > 2 * burn if burn > 0 else keep

    reference = sample_rho(gibbs, cfg.ensemble_size, rng.stream(cfg.master_seed, 4))
    gates: list[Gate] = []
    stats: dict = {"burn_in": burn, "observables": {}, "initial_data": names}
    rows = []
    min_ess = np.inf
    for name in cfg.observables:
        ref_vals = resolve(name, grid)(grid, reference.states)
        ref_mean, ref_se, ess = estimate(reference, ref_vals)
        min_ess = min(min_ess, ess)
        averages = {k: float(np.mean(series[name][keep, i])) for i, k in enumerate(names)}
        late = {k: float(np.mean(series[name][keep_late, i])) for i, k in enumerate(names)}
        scale = max(abs(ref_mean), 1e-12)
        stats["observables"][name] = {
            "reference_mean": ref_mean,
            "reference_se": ref_se,
            "reference_ess": ess,
            "time_averages": averages,
            "burn_in_shift": max(
                abs(late[k] - averages[k]) / max(abs(averages[k]), 1e-12) for k in names
            ),
        }
        rows.append([name, ref_mean, ref_se] + [averages[k] for k in names])
        for k in names:
            rel = abs(averages[k] - ref_mean) / scale
            gates.append(make_gate(f"rel:{name}:{k}", rel, cfg.rel_tolerance, "le"))
        vals = list(averages.values())
        pair = max(
            abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]
        ) / max(max(abs(v) for v in vals), 1e-12)
        gates.append(make_gate(f"pairwise:{name}", pair, cfg.rel_tolerance, "le"))

    if gibbs.gamma == 0.0 and "l2_u" in cfg.observables:
        exact = float(np.sum(1.0 / omega2(grid)))
        rel = abs(stats["observables"]["l2_u"]["time_averages"]["zero"] - exact) / exact
        stats["exact_l2_u"] = exact
        gates.append(make_gate("exact:l2_u:zero", rel, cfg.rel_tolerance, "le"))

    stats["min_ess"] = float(min_ess)
    inconclusive = min_ess < cfg.ess_floor
    gates.append(make_gate("ess", min_ess, cfg.ess_floor, "ge"))
    series = (["observable", "reference_mean", "reference_se", *names], rows)
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, inconclusive, series)


# ---------------------------------------------------------------------------
# linear mixing and contraction
# ---------------------------------------------------------------------------


def linear_ergodicity_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Coupled linear trajectories contract pathwise; the time-T law of the
    zero-mode pair matches the base measure."""
    if cfg.flow is None:
        raise ValueError("linear mixing requires a flow config")
    grid = cfg.grid
    flow = _kicked_flow(cfg, 0.0)

    pair0 = sample_mu_states(grid, rng.stream(cfg.master_seed, 5), 2)
    # a fresh copy of stream 6 draws the same increments again
    traj0 = evolve(pair0[0], flow, rng.stream(cfg.master_seed, 6))
    traj1 = evolve(pair0[1], flow, rng.stream(cfg.master_seed, 6))

    got = traj0.states - traj1.states
    diffs = holder_norm(grid, got, cfg.alpha)
    times = traj0.times
    positive = diffs > 1e-300
    slope, intercept = np.polyfit(times[positive], np.log(diffs[positive]), 1)
    rate = float(-slope)

    # coupling is exact: the difference is the deterministic propagation of
    # the initial difference, independent of the noise
    table = build_table(grid, flow.h / 2)
    want = np.empty_like(got)
    state = pair0[0] - pair0[1]
    done = 0
    for k, t in enumerate(times):
        steps = int(round(t / (flow.h / 2)))
        for _ in range(steps - done):
            state = propagate_states(table.S, state)
        done = steps
        want[k] = state
    denom = np.maximum(np.max(np.abs(want), axis=(1, 2)), 1e-14)
    worst = float(np.max(np.max(np.abs(got - want), axis=(1, 2)) / denom))

    # law of the zero-mode pair at the horizon vs fresh base-measure draws
    count = cfg.ensemble_size
    zeros = np.zeros((count, 2, grid.n_modes), dtype=complex)
    _, series, finals = evolve_ensemble(
        flow,
        zeros,
        MemberStreams(cfg.master_seed, 7, count),
        sample_every=flow.n_steps,
        threads=cfg.threads,
        out=zeros,
    )
    _require_finite(FinalChecks.of(grid, finals), series)
    mu_draws = sample_mu_states(grid, rng.stream(cfg.master_seed, 8), count)
    scale = cfg.mu_scale
    idx0 = flat_index(grid, (0,) * grid.d)
    u_stat, u_p = ks_2samp_equal(finals[:, 0, idx0].real, scale * mu_draws[:, 0, idx0].real)
    ut_stat, ut_p = ks_2samp_equal(finals[:, 1, idx0].real, scale * mu_draws[:, 1, idx0].real)

    gates = [
        make_gate("contraction_rate", rate, 0.125, "ge"),
        make_gate("coupling_exactness", worst, 1e-10, "le"),
        make_gate("ks:u0", u_p, cfg.ks_pvalue_floor, "ge"),
        make_gate("ks:ut0", ut_p, cfg.ks_pvalue_floor, "ge"),
    ]
    stats = {
        "contraction_rate": rate,
        "log_intercept": float(intercept),
        "coupling_residual": worst,
        "ks_u0": {"statistic": u_stat, "pvalue": u_p},
        "ks_ut0": {"statistic": ut_stat, "pvalue": ut_p},
        "difference_norms": diffs,
        "times": times,
    }
    series = (["t", "difference_norm"], [[t, v] for t, v in zip(times, diffs)])
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, False, series)


# ---------------------------------------------------------------------------
# stochastic-convolution decay
# ---------------------------------------------------------------------------


def stick_decay_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Window sups of the decay-weighted propagated convolution must have
    non-increasing medians; the weighted Sobolev second moment must be stable
    under doubling the mode cutoff."""
    grid = cfg.grid
    alpha = cfg.alpha
    h = 0.1  # two exact half-steps of 0.05
    if abs(round(cfg.stick_time / h) * h - cfg.stick_time) > 1e-9 * max(1.0, cfg.stick_time):
        raise ValueError(f"stick_time must be a multiple of {h}, got {cfg.stick_time}")

    # the convolution is the linear flow from zero, drawn for every member at once
    count = cfg.ensemble_size
    linear = FlowConfig(grid, N=-1, gamma=0.0, h=h, T=cfg.stick_time)
    zeros = np.zeros((count, 2, grid.n_modes), dtype=complex)
    streams = MemberStreams(cfg.master_seed, 9, count)
    _, _, node = evolve_ensemble(
        linear, zeros, streams, sample_every=linear.n_steps, threads=cfg.threads, out=zeros
    )

    n_windows = cfg.windows
    per_window = 4  # quarter-unit sampling inside each window
    n_nodes = n_windows * per_window + 1
    weights = np.array([np.exp(cfg.weight_exponent * (0.25 * j)) for j in range(n_nodes)])
    quarter = propagator(grid, 0.25)
    window_vals = [weights[0] * holder_norm(grid, node, alpha)]  # (count,) per node
    for w in weights[1:]:
        node = propagate_states(quarter, node)
        window_vals.append(w * holder_norm(grid, node, alpha))
    sups = np.stack(
        [np.max(window_vals[k * per_window : (k + 1) * per_window + 1], axis=0) for k in range(n_windows)],
        axis=1,
    )

    medians = np.median(sups, axis=0)
    monotone = float(np.max(np.diff(medians))) if n_windows > 1 else 0.0

    # cutoff stability of E || . ||_{H^alpha}^2 via the exact mode covariance
    def halpha_second_moment(g: GridSpec) -> float:
        cov = step_covariance(g, cfg.stick_time)
        return float(np.sum((1.0 + abs2_modes(g).reshape(-1)) ** alpha * cov[:, 0, 0]))

    grid2 = GridSpec(d=grid.d, M=4 * grid.K + 2, s=grid.s)
    m1 = halpha_second_moment(grid)
    m2 = halpha_second_moment(grid2)
    stability = abs(m2 / m1 - 1.0)

    gates = [
        make_gate("finite_medians", float(np.max(medians)), 1e300, "le"),
        make_gate("median_monotone", monotone, 1e-9, "le"),
        make_gate("cutoff_stability", stability, 0.02, "le"),
    ]
    means = np.mean(sups, axis=0)
    stats = {
        "medians": medians,
        "window_sups_mean": means,
        "second_moment": m1,
        "second_moment_refined": m2,
        "cutoff_stability": stability,
    }
    rows = [[k, m, s] for k, (m, s) in enumerate(zip(medians, means))]
    series = (["window", "median_sup", "mean_sup"], rows)
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, False, series)


# ---------------------------------------------------------------------------
# truncation stability
# ---------------------------------------------------------------------------


def nstability_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Consecutive truncation differences decay like N^{-alpha} on shared
    noise and initial data."""
    if cfg.flow is None:
        raise ValueError("truncation stability requires a flow config")
    grid = cfg.grid
    n_values = tuple(cfg.n_values)
    if any(4 * n + 2 > grid.M for n in n_values):
        raise ValueError("grid too small for dealiased runs at the largest cutoff")
    pairs = [(n, 2 * n) for n in n_values if 2 * n in n_values]
    if len(pairs) < 2:
        raise ValueError("n_values must hold at least two (n, 2n) pairs to fit a slope")

    u0 = sample_mu_states(grid, rng.stream(cfg.master_seed, 10), 1)[0]

    flow = replace(cfg.flow, grid=grid, record_noise=True)
    v_series: dict[int, np.ndarray] = {}
    # with shared noise every cutoff runs on a fresh copy of one stream, so
    # all draw the same increments; the largest cutoff runs first
    for n in sorted(n_values, reverse=True):
        key = (11,) if cfg.shared_noise else (11, n)
        traj = evolve(u0, replace(flow, N=n), rng.stream(cfg.master_seed, *key), thin_every=1)
        # a blown-up run has no remainder to compare
        if traj.blowup_time is not None:
            raise BlowupError(f"nstability run at N={n} blew up at t={traj.blowup_time:g}")
        v_series[n] = traj.v_states()

    diffs = []
    for n, n2 in pairs:
        gap = v_series[n] - v_series[n2]
        diffs.append(float(np.max(sobolev_pair_norm(grid, gap, grid.s / 2))))
    logs_n = np.log([n for n, _ in pairs])
    slope, intercept = np.polyfit(logs_n, np.log(diffs), 1)

    gates = [make_gate("slope", float(slope), -cfg.alpha, "le")]
    stats = {
        "n_pairs": [[n, n2] for n, n2 in pairs],
        "sup_differences": diffs,
        "slope": float(slope),
        "prefactor": float(np.exp(intercept)),
    }
    series = (["n", "n_double", "sup_difference"], [[n, n2, d] for (n, n2), d in zip(pairs, diffs)])
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, False, series)


# ---------------------------------------------------------------------------
# decomposition energy envelope
# ---------------------------------------------------------------------------


def _scaled_to_energy(grid: GridSpec, target: float) -> np.ndarray:
    """A single-mode displacement state scaled so its energy hits the target."""
    base = _cosine_mode(grid, 1)

    def energy(a: float) -> float:
        return float(energy_states(grid, (a * base)[None])[0])

    lo, hi = 0.0, 1.0
    while energy(hi) < target:
        hi *= 2
        if hi > 1e9:
            raise ValueError("target energy out of reach")
    # stop once the midpoint no longer moves, after about 60 steps; the cap
    # binds only for a target <= 0, where lo stays at 0 and hi halves toward
    # the smallest subnormal
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if energy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * base


def coupling_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """The remainder stays band-limited, its energy stays finite over the
    horizon, the big-excess transient decays, and sup-energy grows with the
    initial size at a rate compatible with the envelope exponent."""
    if cfg.flow is None:
        raise ValueError("the decomposition experiment requires a flow config")
    if len(set(cfg.envelope_scales)) < 2 or min(cfg.envelope_scales) <= 0:
        raise ValueError("envelope_scales needs two or more distinct positive scales to fit a slope")
    grid = cfg.grid
    flow = replace(cfg.flow, grid=grid, record_noise=True)
    v0 = _scaled_to_energy(grid, cfg.target_energy)

    zero = np.zeros((2, grid.n_modes), dtype=complex)
    traj = evolve(zero, flow, rng.stream(cfg.master_seed, 12), initial_remainder=v0)
    monitor = energy_monitor(traj, cfg.alpha)

    inside = cube_mask(grid, flow.N).reshape(-1)
    size = np.abs(traj.v_states())
    scale = np.maximum(np.max(size, axis=(1, 2)), 1e-14)
    worst_outside = float(np.max(np.max(size[:, :, ~inside], axis=(1, 2), initial=0.0) / scale))

    # envelope exponent: scale a moderate initial remainder and regress
    small = _scaled_to_energy(grid, cfg.target_energy ** 0.25)
    sups, sizes = [], []
    env_flow = replace(flow, T=min(cfg.envelope_horizon, flow.T))
    for j, a in enumerate(cfg.envelope_scales):
        va = a * small
        tr = evolve(zero, env_flow, rng.stream(cfg.master_seed, 12, j), initial_remainder=va)
        rep = energy_monitor(tr, cfg.alpha)
        sups.append(rep.sup_energy)
        sizes.append(xalpha_norm(grid, va, cfg.alpha))
    env_slope, _ = np.polyfit(np.log(sizes), np.log(sups), 1)
    slope_cap = (8.0 / cfg.alpha) * 1.2

    gates = [
        make_gate("band_limited", worst_outside, 1e-12, "le"),
        make_gate("sup_energy", monitor.sup_energy, ENERGY_CEILING, "le"),
        make_gate("no_blowup", 0.0 if monitor.blowup_time is None else 1.0, 0.5, "le"),
        make_gate("decay_rate", monitor.decay_rate, cfg.decay_rate_gate, "ge"),
        make_gate("envelope_slope", float(env_slope), slope_cap, "le"),
    ]
    stats = {
        "initial_energy": float(monitor.energies[0]),
        "sup_energy": monitor.sup_energy,
        "stationary_band": monitor.band,
        "decay_rate": monitor.decay_rate,
        "envelope_constant": monitor.envelope_constant,
        "fit_window": list(monitor.fit_window),
        "band_limit_residual": worst_outside,
        "envelope_slope": float(env_slope),
        "envelope_slope_cap": slope_cap,
        "envelope_sup_energies": sups,
        "envelope_sizes": sizes,
        "blowup_time": monitor.blowup_time,
        "times": monitor.times,
        "energies": monitor.energies,
    }
    # with no transient to fit (initial energy within twice the band) the
    # decay gate reads 0 and says nothing about the flow; that makes the run
    # inconclusive, unless another gate has failed it already
    inconclusive = not monitor.fitted and all(g.passed for g in gates if g.name != "decay_rate")
    series = (["t", "energy"], [[t, e] for t, e in zip(monitor.times, monitor.energies)])
    return make_report(cfg.experiment, cfg, cfg.master_seed, stats, gates, inconclusive, series)


EXPERIMENTS = {
    "invariance": invariance_experiment,
    "ergodicity": ergodicity_experiment,
    "linear": linear_ergodicity_experiment,
    "decay": stick_decay_experiment,
    "nstability": nstability_experiment,
    "coupling": coupling_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    return EXPERIMENTS[cfg.experiment](cfg)
