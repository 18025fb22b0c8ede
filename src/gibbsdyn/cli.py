"""Command-line entry point: configuration, seeding, experiment orchestration,
and report/artifact output.

One binary, subcommand style.  `sample` writes measure draws to container
files, `simulate` runs a single trajectory to CSV, the six experiment names
run the statistical harness, `control` reports a reconstruction residual, and
`selftest` composes a quick run of every experiment.  Reports are canonical
JSON (schema-versioned, runtime in a sidecar file so identical (config, seed)
give byte-identical documents); time series go to RFC-4180 CSV.

Exit codes: 0 all gates pass, 2 any gate fails, 3 inconclusive (effective
sample size under the floor, or no energy transient for `coupling` to fit),
64 configuration/usage errors, 70 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import rng
from .container import save_ensemble, save_noise
from .control import NumericalError, forward_map, gram_form, right_inverse
from .flow import FlowConfig, evolve
from .gibbs import GibbsConfig, WeightedEnsemble, estimate, sample_mu_states, sample_rho
from .harness import (
    EnsembleBlowupError,
    ExperimentConfig,
    ExperimentReport,
    Gate,
    _plain,
    default_threads,
    make_gate,
    report_to_json,
    run_experiment,
    verdict_of,
)
from .spectral import GridSpec, hermitianize, holder_norm, mode_tuples


class ConfigError(ValueError):
    """A configuration problem the caller must fix (exit code 64)."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# per-subcommand defaults; every key below, with the seed, is echoed into the
# report so a report alone pins down the run completely
DEFAULTS: dict[str, dict] = {
    "sample": {
        "grid": {"d": 1, "M": 66, "s": 2.0},
        "gibbs": {"N": 16, "gamma": 0.1},
        "sample": {"measure": "rho", "count": 1024, "method": "reweight", "burn_in": 0},
    },
    "simulate": {
        "grid": {"d": 1, "M": 18, "s": 2.0},
        "flow": {"N": 4, "gamma": 0.1, "h": 0.01, "T": 10.0, "record_noise": True},
        "experiment": {"alpha": 0.4},
        "simulate": {"initial": "zero", "thin_every": None, "dump_states": False, "dump_noise": False},
    },
    "invariance": {
        "grid": {"d": 1, "M": 18, "s": 2.0},
        "flow": {"N": 4, "gamma": 0.1, "h": 0.01, "T": 1.0},
        "gibbs": {"N": 4, "gamma": 0.1},
        "experiment": {"ensemble_size": 512, "ess_floor": 64.0},
    },
    "ergodicity": {
        "grid": {"d": 1, "M": 18, "s": 2.0},
        "flow": {"N": 4, "gamma": 0.1, "h": 0.01, "T": 2000.0},
        "gibbs": {"N": 4, "gamma": 0.1},
        "experiment": {
            "ensemble_size": 8192,
            "ess_floor": 500.0,
            # relative gates need observables with nonzero means; odd-moment
            # observables like mode_re:n average to zero here
            "observables": ["l2_u", "l2_ut", "quartic"],
        },
    },
    "linear": {
        "grid": {"d": 1, "M": 10, "s": 2.0},
        "flow": {"N": -1, "gamma": 0.0, "h": 0.05, "T": 8.0},
        "experiment": {"ensemble_size": 1024},
    },
    "decay": {
        "grid": {"d": 1, "M": 18, "s": 4.0},
        "experiment": {"ensemble_size": 64, "windows": 8, "stick_time": 1.0, "alpha": 0.4},
    },
    "nstability": {
        "grid": {"d": 1, "M": 36, "s": 2.0},
        "flow": {"N": 8, "gamma": 1.0, "h": 0.05, "T": 0.5},
        "experiment": {"n_values": [2, 4, 8], "alpha": 0.4},
    },
    "coupling": {
        "grid": {"d": 1, "M": 18, "s": 2.0},
        "flow": {"N": 4, "gamma": 1.0, "h": 0.01, "T": 20.0},
        "experiment": {
            "alpha": 0.4,
            "target_energy": 200.0,
            "envelope_scales": [1.0, 2.0, 4.0],
            "envelope_horizon": 5.0,
        },
    },
    "control": {
        "grid": {"d": 1, "M": 18, "s": 4.0},
        "control": {"band": 8, "t": 1.0, "steps": 2048, "amplitude": 1.0},
    },
    "selftest": {},
}


def _field_names(cls, *skip: str) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)} - set(skip)


# every config key is a dataclass field or a key of the subcommand's DEFAULTS;
# the CLI fills the experiment name, sections, seed and threads itself
_SECTION_KEYS = {
    "grid": _field_names(GridSpec),
    "flow": _field_names(FlowConfig, "grid"),
    "gibbs": _field_names(GibbsConfig, "grid"),
    "experiment": _field_names(
        ExperimentConfig, "experiment", "grid", "flow", "gibbs", "master_seed", "threads"
    ),
    **{name: set(DEFAULTS[name][name]) for name in ("sample", "simulate", "control")},
}
_TOP_KEYS = set(_SECTION_KEYS) | {"seed", "threads"}

# --set overrides that shrink each experiment to smoke scale, in the order
# selftest runs them; `scripts/run_experiments.py --quick` uses the same table.
# Floats are written as floats so the report echo keeps the defaults' types.
# Short averaging windows need loose tolerances: time-average noise decays
# like T^{-1/2}.
SMOKE: dict[str, list[str]] = {
    "invariance": ["experiment.ensemble_size=256", "experiment.ess_floor=50.0", "flow.T=0.5"],
    "ergodicity": [
        "flow.T=400.0",
        "flow.h=0.02",
        "experiment.ensemble_size=4096",
        "experiment.ess_floor=64.0",
        "experiment.rel_tolerance=0.25",
    ],
    "linear": [],
    "decay": ["experiment.ensemble_size=32"],
    "nstability": [],
    "coupling": ["flow.T=10.0", "experiment.envelope_horizon=2.0"],
}


def _reject_unknown(section: str, given: dict, allowed: set[str]) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")
    _reject_unknown("top-level", cfg, _TOP_KEYS)
    for name, keys in _SECTION_KEYS.items():
        if name in cfg:
            if not isinstance(cfg[name], dict):
                raise ConfigError(f"section {name!r} must be a JSON object")
            _reject_unknown(name, cfg[name], keys)


def load_config(subcommand: str, path: str | None, overrides: list[str], seed=None, threads=None) -> dict:
    """Resolve the run configuration.

    Precedence: --seed/--threads flags beat --set overrides beat the config
    file beat GIBBSDYN_THREADS beat the built-in defaults; threads defaults to
    every core the process may run on.  The result always carries every key,
    so the report echo has no hidden defaults.
    """
    cfg = json.loads(json.dumps(DEFAULTS[subcommand]))  # deep copy
    # the default s is filled in after the user's keys, because it follows d
    default_s = cfg["grid"].pop("s") if "grid" in cfg else None
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("configuration root must be a JSON object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for item in overrides:
        _apply_override(cfg, item)
    grid = cfg.get("grid")
    if default_s is not None and isinstance(grid, dict) and "s" not in grid:
        # s must exceed d: the beam equation's s = 4 when d > 1 is asked for
        d = grid.get("d")
        grid["s"] = 4.0 if isinstance(d, int) and d > 1 else default_s
    if seed is not None:
        cfg["seed"] = seed
    if threads is not None:
        cfg["threads"] = threads
    cfg.setdefault("seed", ExperimentConfig.master_seed)
    if "threads" not in cfg:
        try:
            cfg["threads"] = int(os.environ.get("GIBBSDYN_THREADS") or default_threads())
        except ValueError as e:
            raise ConfigError(f"GIBBSDYN_THREADS is not an integer: {e}") from e
    _validate_config(cfg)
    if not isinstance(cfg.get("seed"), int) or isinstance(cfg.get("seed"), bool):
        raise ConfigError("seed must be an integer")
    if cfg["seed"] < 0 or cfg["seed"] >= 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    if not isinstance(cfg.get("threads"), int) or cfg["threads"] < 1:
        raise ConfigError("threads must be a positive integer")
    return cfg


def _apply_override(cfg: dict, item: str) -> None:
    """Apply one --set key=value with a dotted key path; values parse as JSON
    when possible and fall back to bare strings."""
    if "=" not in item:
        raise ConfigError(f"--set needs key=value, got {item!r}")
    key, raw = item.split("=", 1)
    parts = [p for p in key.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"--set needs a nonempty key, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# config -> dataclasses
# ---------------------------------------------------------------------------


def _build_grid(cfg: dict) -> GridSpec:
    if "grid" not in cfg:
        raise ConfigError("this subcommand needs a grid section")
    try:
        return GridSpec(**cfg["grid"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad grid: {e}") from e


def _build_flow(cfg: dict, grid: GridSpec) -> FlowConfig | None:
    if "flow" not in cfg:
        return None
    try:
        return FlowConfig(grid=grid, **cfg["flow"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad flow: {e}") from e


def _build_gibbs(cfg: dict, grid: GridSpec) -> GibbsConfig | None:
    if "gibbs" not in cfg:
        return None
    try:
        return GibbsConfig(grid=grid, **cfg["gibbs"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad gibbs: {e}") from e


def build_experiment_config(subcommand: str, cfg: dict) -> ExperimentConfig:
    grid = _build_grid(cfg)
    flow = _build_flow(cfg, grid)
    gibbs = _build_gibbs(cfg, grid)
    kwargs = dict(cfg.get("experiment", {}))
    for key in ("observables", "n_values", "envelope_scales"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    try:
        return ExperimentConfig(
            experiment=subcommand,
            grid=grid,
            flow=flow,
            gibbs=gibbs,
            master_seed=cfg["seed"],
            threads=cfg["threads"],
            **kwargs,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad experiment config: {e}") from e


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _write_report(report: ExperimentReport, out: Path, name: str) -> Path:
    """Canonical report to <name>_report.json; wall-clock to a sidecar so the
    canonical document stays byte-identical across runs and thread counts."""
    path = out / f"{name}_report.json"
    path.write_text(report_to_json(report))
    sidecar = {"runtime_seconds": report.runtime_seconds, "written_at": time.time()}
    (out / f"{name}_runtime.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    return path


def _print_gates(report: ExperimentReport, stream=None) -> None:
    stream = stream or sys.stdout
    for g in report.gates:
        mark = "PASS" if g.passed else "FAIL"
        rel = {"abs_le": "|value| <=", "le": "value <=", "ge": "value >="}[g.kind]
        print(f"{mark} {g.name}: value={g.value:.6g} ({rel} {g.threshold:g})", file=stream)
    print(f"verdict: {report.verdict}", file=stream)


def _exit_code(report: ExperimentReport) -> int:
    if report.verdict == "inconclusive":
        return 3
    return 0 if report.verdict == "pass" else 2


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC-4180: CRLF line endings, minimal quoting
        writer.writerow(header)
        writer.writerows(rows)


def _series_csv(report: ExperimentReport, out: Path, name: str) -> Path | None:
    """Emit the natural CSV time series for each experiment's statistics."""
    stats = report.stats
    path = out / f"{name}_series.csv"
    if report.experiment in ("invariance",):
        rows = [
            [obs, d["mean_initial"], d["se_initial"], d["mean_final"], d["se_final"], d["z"], d["ess"]]
            for obs, d in stats["observables"].items()
        ]
        _write_csv(path, ["observable", "mean_initial", "se_initial", "mean_final", "se_final", "z", "ess"], rows)
        return path
    if report.experiment == "ergodicity":
        names = stats["initial_data"]
        rows = [
            [obs, d["reference_mean"], d["reference_se"]] + [d["time_averages"][k] for k in names]
            for obs, d in stats["observables"].items()
        ]
        _write_csv(path, ["observable", "reference_mean", "reference_se", *names], rows)
        return path
    if report.experiment == "linear":
        rows = [[t, v] for t, v in zip(stats["times"], stats["difference_norms"])]
        _write_csv(path, ["t", "difference_norm"], rows)
        return path
    if report.experiment == "decay":
        rows = [
            [k, m, s]
            for k, (m, s) in enumerate(zip(stats["medians"], stats["window_sups_mean"]))
        ]
        _write_csv(path, ["window", "median_sup", "mean_sup"], rows)
        return path
    if report.experiment == "nstability":
        rows = [
            [n, n2, d]
            for (n, n2), d in zip(stats["n_pairs"], stats["sup_differences"])
        ]
        _write_csv(path, ["n", "n_double", "sup_difference"], rows)
        return path
    if report.experiment == "coupling":
        rows = [[t, e] for t, e in zip(stats["times"], stats["energies"])]
        _write_csv(path, ["t", "energy"], rows)
        return path
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_experiment_command(subcommand: str, cfg: dict, out: Path) -> int:
    experiment_cfg = build_experiment_config(subcommand, cfg)
    try:
        report = run_experiment(experiment_cfg)
    except ValueError as e:
        # precondition violations surface as ValueError throughout the library
        raise ConfigError(str(e)) from e
    _write_report(report, out, subcommand)
    _series_csv(report, out, subcommand)
    _print_gates(report)
    return _exit_code(report)


def _cmd_sample(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    section = cfg.get("sample", {})
    measure = section.get("measure", "rho")
    count = section.get("count", 1024)
    if not isinstance(count, int) or count < 1:
        raise ConfigError("sample.count must be a positive integer")
    gen = rng.stream(cfg["seed"], 0)

    if measure == "mu":
        states = sample_mu_states(grid, gen, count)
        ens = WeightedEnsemble(grid, states, np.zeros(count), seed=cfg["seed"])
    elif measure == "rho":
        gibbs = _build_gibbs(cfg, grid)
        if gibbs is None:
            raise ConfigError("sampling the interacting measure needs a gibbs section")
        method = section.get("method", "reweight")
        burn_in = section.get("burn_in", 0)
        try:
            ens = sample_rho(gibbs, count, gen, method=method, burn_in=burn_in)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        ens.seed = cfg["seed"]
    else:
        raise ConfigError(f"unknown measure {measure!r} (expected 'mu' or 'rho')")

    path = out / f"ensemble_{measure}.bin"
    save_ensemble(path, ens)

    # the effective sample size depends on the weights alone, not on the values
    _, _, ess = estimate(ens, np.zeros(count))
    gates = [make_gate("ess", ess, 2.0, "ge")]
    stats = {
        "measure": measure,
        "count": count,
        "ess": ess,
        "mean_log_weight": float(np.mean(ens.log_weights)),
        "file": path.name,
    }
    report = _assemble_report("sample", cfg, stats, gates, inconclusive=False, t0=t0)
    _write_report(report, out, "sample")
    _print_gates(report)
    return _exit_code(report)


def _assemble_report(
    name: str, cfg: dict, stats: dict, gates: list[Gate], inconclusive: bool, t0: float
) -> ExperimentReport:
    """A report for non-harness subcommands, echoing the full resolved config.

    The worker count stays out of the echo for the same reason as in the
    harness: reports must be byte-identical across thread counts.  The
    runtime since t0 goes only to the sidecar.
    """
    echo = _plain({k: v for k, v in cfg.items() if k != "threads"})
    return ExperimentReport(
        experiment=name,
        config=echo,
        seed=cfg["seed"],
        stats=stats,
        gates=gates,
        inconclusive=inconclusive,
        verdict=verdict_of(gates, inconclusive),
        runtime_seconds=time.perf_counter() - t0,
    )


def _cmd_simulate(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    flow = _build_flow(cfg, grid)
    if flow is None:
        raise ConfigError("simulate needs a flow section")
    section = cfg.get("simulate", {})
    alpha = cfg.get("experiment", {}).get("alpha", 0.4)
    initial = section.get("initial", "zero")
    if initial == "zero":
        u0 = np.zeros((2, grid.n_modes), dtype=complex)
    elif initial == "mu":
        u0 = sample_mu_states(grid, rng.stream(cfg["seed"], 100), 1)[0]
    else:
        raise ConfigError(f"unknown initial {initial!r} (expected 'zero' or 'mu')")

    traj = evolve(
        u0,
        flow,
        rng.stream(cfg["seed"], 101),
        thin_every=section.get("thin_every"),
    )

    header = ["t", "E_v", "l2_u", "l2_ut", "holder_alpha", "xalpha_proxy"]
    l2 = np.sum(np.abs(traj.states) ** 2, axis=-1)  # (n_samples, 2)
    hol = holder_norm(grid, traj.states, alpha)
    if traj.energies is not None:
        e_v = traj.energies
        proxy_norm = holder_norm(grid, traj.linear_states, alpha)
    else:
        e_v = np.full(len(traj.times), np.nan)
        proxy_norm = hol
    rows = []
    for k, t in enumerate(traj.times):
        proxy = float(np.exp(0.125 * t)) * float(proxy_norm[k])
        rows.append([float(t), float(e_v[k]), float(l2[k, 0]), float(l2[k, 1]), float(hol[k]), proxy])
    csv_path = out / "trajectory.csv"
    _write_csv(csv_path, header, rows)

    artifacts = {"csv": csv_path.name}
    if section.get("dump_states"):
        dump = WeightedEnsemble(grid, traj.states, np.zeros(len(traj.states)), seed=cfg["seed"])
        save_ensemble(out / "trajectory_states.bin", dump)
        artifacts["states"] = "trajectory_states.bin"
    if section.get("dump_noise"):
        if traj.noise is None:
            raise ConfigError("dump_noise requires flow.record_noise")
        save_noise(out / "trajectory_noise.bin", traj.noise)
        artifacts["noise"] = "trajectory_noise.bin"

    last = rows[-1]
    gates = [make_gate("no_blowup", 0.0 if traj.blowup_time is None else 1.0, 0.5, "le")]
    stats = {
        "n_samples": len(rows),
        "final_time": float(traj.times[-1]),
        "final_l2_u": last[2],
        "final_l2_ut": last[3],
        "mean_l2_u": float(np.mean([r[2] for r in rows])),
        "blowup_time": traj.blowup_time,
        "artifacts": artifacts,
    }
    report = _assemble_report("simulate", cfg, stats, gates, inconclusive=False, t0=t0)
    _write_report(report, out, "simulate")
    _print_gates(report)
    return _exit_code(report)


def _cmd_control(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    section = cfg.get("control", {})
    band = section.get("band", 8)
    t = section.get("t", 1.0)
    steps = section.get("steps", 2048)
    amplitude = section.get("amplitude", 1.0)
    if not isinstance(band, int) or band < 0 or band > grid.K:
        raise ConfigError(f"control.band must be an integer in [0, K={grid.K}]")

    # a random band-limited Hermitian target, reproducible from the seed
    gen = rng.stream(cfg["seed"], 200)
    tuples = mode_tuples(grid).reshape(-1, grid.d)
    inside = np.max(np.abs(tuples), axis=1) <= band
    g = gen.standard_normal((2, grid.n_modes, 2))
    coeffs = amplitude * (g[..., 0] + 1j * g[..., 1])
    state = np.where(inside[None, :], coeffs, 0.0)
    # Hermitian symmetrization keeps the fields real-valued
    target = hermitianize(grid, state.reshape((2,) + grid.mode_shape)).reshape(2, grid.n_modes)

    try:
        ctrl = right_inverse(grid, target, t, steps=steps)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    got = forward_map(ctrl)
    denom = max(float(np.max(np.abs(target))), 1e-300)
    residual = float(np.max(np.abs(got - target))) / denom

    # worst Gram eigenvalue deviation from t/2 over well-separated modes
    worst_dev = 0.0
    gram_rows = []
    for n in range(4, grid.K + 1):
        eigs = gram_form((n,) + (0,) * (grid.d - 1), t, grid).eigenvalues()
        dev = float(np.max(np.abs(eigs - 0.5 * t)))
        worst_dev = max(worst_dev, dev)
        gram_rows.append([n, float(eigs.min()), float(eigs.max())])
    _write_csv(out / "control_gram.csv", ["n", "eig_min", "eig_max"], gram_rows)

    gates = [
        make_gate("reconstruction_residual", residual, 1e-6, "le"),
        make_gate("gram_deviation", worst_dev, 0.05 * t, "le"),
    ]
    stats = {
        "band": band,
        "horizon": t,
        "steps": steps,
        "residual": residual,
        "gram_worst_deviation": worst_dev,
        "control_norm_sq": float(np.sum(np.abs(ctrl.values) ** 2)),
    }
    report = _assemble_report("control", cfg, stats, gates, inconclusive=False, t0=t0)
    _write_report(report, out, "control")
    _print_gates(report)
    return _exit_code(report)


def _cmd_selftest(cfg: dict, out: Path) -> int:
    """Quick composed run of every experiment at smoke scale."""
    codes = []
    for name, overrides in SMOKE.items():
        sub = load_config(name, None, overrides, cfg["seed"], cfg["threads"])
        report = run_experiment(build_experiment_config(name, sub))
        _write_report(report, out, f"selftest_{name}")
        print(f"[{name}]")
        _print_gates(report)
        codes.append(_exit_code(report))
    if any(c == 2 for c in codes):
        return 2
    if any(c == 3 for c in codes):
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsdyn",
        description="Spectral simulation of damped stochastic wave dynamics "
        "with statistical verification experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, blurb in [
        ("sample", "draw measure samples into a container file"),
        ("simulate", "run one trajectory and write a CSV summary"),
        ("invariance", "weighted-ensemble invariance experiment"),
        ("ergodicity", "time-average vs ensemble-average experiment"),
        ("linear", "linear contraction and mixing experiment"),
        ("decay", "stochastic-convolution decay experiment"),
        ("nstability", "truncation-stability experiment"),
        ("coupling", "remainder energy and envelope experiment"),
        ("control", "control reconstruction residual report"),
        ("selftest", "smoke-run every experiment"),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
        p.add_argument("--threads", type=int, help="worker threads (default: GIBBSDYN_THREADS, else every core)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override one config key (dotted path, JSON value); repeatable",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap to the config-error code
        return 64 if (e.code not in (0, None)) else 0

    try:
        cfg = load_config(args.subcommand, args.config, args.overrides, args.seed, args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "sample":
            return _cmd_sample(cfg, out)
        if args.subcommand == "simulate":
            return _cmd_simulate(cfg, out)
        if args.subcommand == "control":
            return _cmd_control(cfg, out)
        if args.subcommand == "selftest":
            return _cmd_selftest(cfg, out)
        return _run_experiment_command(args.subcommand, cfg, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 64
    except (NumericalError, EnsembleBlowupError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
