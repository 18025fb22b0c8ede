"""Command-line entry point: configuration, seeding, experiment orchestration,
and report/artifact output.

One binary, subcommand style.  `sample` writes measure draws to container
files, `simulate` runs a single trajectory to CSV, the six experiment names
run the statistical harness, `control` reports a reconstruction residual, and
`selftest` composes a quick run of every experiment.  Each subcommand
returns its report, and `main` alone times, writes and scores it.  Reports
are canonical JSON (schema-versioned, runtime in a sidecar file so identical
(config, seed) give byte-identical documents); time series go to RFC-4180 CSV.

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
    BlowupError,
    ExperimentConfig,
    ExperimentReport,
    default_threads,
    make_gate,
    make_report,
    report_to_json,
    run_experiment,
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
}


def _field_defaults(cls, *skip: str) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


# every config key is a dataclass field or a key of the subcommand's DEFAULTS;
# the CLI fills the experiment name, sections, seed and threads itself.  A
# key's default, from DEFAULTS or else the field's, fixes the kind of value it
# takes (MISSING: a field with no default, left to the constructor)
_SECTION_DEFAULTS = {
    "grid": _field_defaults(GridSpec),
    "flow": _field_defaults(FlowConfig, "grid"),
    "gibbs": _field_defaults(GibbsConfig, "grid"),
    "experiment": _field_defaults(
        ExperimentConfig, "experiment", "grid", "flow", "gibbs", "master_seed", "threads"
    ),
    **{name: DEFAULTS[name][name] for name in ("sample", "simulate", "control")},
}
_TOP_KEYS = set(_SECTION_DEFAULTS) | {"seed", "threads"}

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


def _reject_unknown(section: str, given: dict, allowed) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _kind(value) -> str:
    """The JSON kind of a value; a bool is never a number."""
    if value is None:
        return "null"
    for kind, types in (("a boolean", bool), ("an integer", int), ("a number", float),
                        ("a string", str), ("a list", (list, tuple))):
        if isinstance(value, types):
            return kind
    return "an object"


# an int is accepted where a float is expected, and a key whose default is
# null (meaning "derive it") takes a number
_TAKES = {"a number": {"a number", "an integer"}, "null": {"null", "a number", "an integer"}}


def _fits(value, default) -> bool:
    kind = _kind(default)
    if _kind(value) not in _TAKES.get(kind, {kind}):
        return False
    return kind != "a list" or not default or all(_fits(v, default[0]) for v in value)


def _validate_config(subcommand: str, cfg: dict) -> None:
    _reject_unknown("top-level", cfg, _TOP_KEYS)
    for name, fields in _SECTION_DEFAULTS.items():
        if name not in cfg:
            continue
        if not isinstance(cfg[name], dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        _reject_unknown(name, cfg[name], fields)
        defaults = {**fields, **DEFAULTS.get(subcommand, {}).get(name, {})}
        for key, value in cfg[name].items():
            default = defaults[key]
            if default is not dataclasses.MISSING and not _fits(value, default):
                want = "a number or null" if default is None else _kind(default)
                raise ConfigError(
                    f"{name}.{key} must be {want} (default {json.dumps(default)}), got {json.dumps(value)}"
                )


def load_config(subcommand: str, path: str | None, overrides: list[str], seed=None, threads=None) -> dict:
    """Resolve the run configuration.

    Precedence: --seed/--threads flags beat --set overrides beat the config
    file beat GIBBSDYN_THREADS beat the built-in defaults; threads defaults to
    every core the process may run on.  The result always carries every key,
    so the report echo has no hidden defaults.
    """
    cfg = json.loads(json.dumps(DEFAULTS.get(subcommand, {})))  # deep copy
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
    _validate_config(subcommand, cfg)
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


def _build(cls, cfg: dict, section: str, **fixed):
    try:
        return cls(**fixed, **cfg[section])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {section}: {e}") from e


def build_experiment_config(subcommand: str, cfg: dict) -> ExperimentConfig:
    grid = _build(GridSpec, cfg, "grid")
    flow = _build(FlowConfig, cfg, "flow", grid=grid) if "flow" in cfg else None
    gibbs = _build(GibbsConfig, cfg, "gibbs", grid=grid) if "gibbs" in cfg else None
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.get("experiment", {}).items()}
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


def _write_report(report: ExperimentReport, out: Path, name: str, runtime: float) -> None:
    """Canonical report to <name>_report.json; wall-clock to a sidecar so the
    canonical document stays byte-identical across runs and thread counts."""
    (out / f"{name}_report.json").write_text(report_to_json(report))
    sidecar = {"runtime_seconds": runtime, "written_at": time.time()}
    (out / f"{name}_runtime.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _print_gates(report: ExperimentReport) -> None:
    for g in report.gates:
        mark = "PASS" if g.passed else "FAIL"
        rel = {"abs_le": "|value| <=", "le": "value <=", "ge": "value >="}[g.kind]
        print(f"{mark} {g.name}: value={g.value:.6g} ({rel} {g.threshold:g})")
    print(f"verdict: {report.verdict}")


def _exit_code(report: ExperimentReport) -> int:
    return {"pass": 0, "fail": 2, "inconclusive": 3}[report.verdict]


def combined_exit_code(codes) -> int:
    """The exit code of several runs: a configuration error (64) outranks a
    numerical failure (70), then a failed gate (2), then an inconclusive run (3)."""
    return next((c for c in (64, 70, 2, 3) if c in codes), 0)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC-4180: CRLF line endings, minimal quoting
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands: each returns its report, and `main` writes and scores it
# ---------------------------------------------------------------------------


def _cmd_experiment(name: str, cfg: dict, out: Path) -> ExperimentReport:
    return run_experiment(build_experiment_config(name, cfg))


def _cmd_sample(name: str, cfg: dict, out: Path) -> ExperimentReport:
    grid = _build(GridSpec, cfg, "grid")
    section = cfg["sample"]
    measure, count = section["measure"], section["count"]
    if count < 1:
        raise ConfigError("sample.count must be a positive integer")
    gen = rng.stream(cfg["seed"], 0)

    if measure == "mu":
        states = sample_mu_states(grid, gen, count)
        ens = WeightedEnsemble(grid, states, np.zeros(count), seed=cfg["seed"])
    elif measure == "rho":
        gibbs = _build(GibbsConfig, cfg, "gibbs", grid=grid)
        ens = sample_rho(gibbs, count, gen, method=section["method"], burn_in=section["burn_in"])
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
    return make_report(name, cfg, cfg["seed"], stats, gates, False)


def _cmd_simulate(name: str, cfg: dict, out: Path) -> ExperimentReport:
    grid = _build(GridSpec, cfg, "grid")
    flow = _build(FlowConfig, cfg, "flow", grid=grid)
    section = cfg["simulate"]
    alpha = cfg["experiment"]["alpha"]
    thin = section["thin_every"]
    if thin is not None and not isinstance(thin, int):
        raise ConfigError(f"simulate.thin_every must be an integer or null, got {thin!r}")
    initial = section["initial"]
    if initial == "zero":
        u0 = np.zeros((2, grid.n_modes), dtype=complex)
    elif initial == "mu":
        u0 = sample_mu_states(grid, rng.stream(cfg["seed"], 100), 1)[0]
    else:
        raise ConfigError(f"unknown initial {initial!r} (expected 'zero' or 'mu')")

    traj = evolve(u0, flow, rng.stream(cfg["seed"], 101), thin_every=thin)

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
    if section["dump_states"]:
        dump = WeightedEnsemble(grid, traj.states, np.zeros(len(traj.states)), seed=cfg["seed"])
        save_ensemble(out / "trajectory_states.bin", dump)
        artifacts["states"] = "trajectory_states.bin"
    if section["dump_noise"]:
        if traj.noise is None:
            raise ConfigError("dump_noise requires flow.record_noise")
        save_noise(out / "trajectory_noise.bin", dataclasses.replace(traj.noise, seed=cfg["seed"]))
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
    return make_report(name, cfg, cfg["seed"], stats, gates, False)


def _cmd_control(name: str, cfg: dict, out: Path) -> ExperimentReport:
    grid = _build(GridSpec, cfg, "grid")
    section = cfg["control"]
    band, t, steps, amplitude = (section[k] for k in ("band", "t", "steps", "amplitude"))
    if not 0 <= band <= grid.K:
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

    ctrl = right_inverse(grid, target, t, steps=steps)
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
    return make_report(name, cfg, cfg["seed"], stats, gates, False)


def _cmd_selftest(cfg: dict, out: Path) -> int:
    """Quick composed run of every experiment at smoke scale; writes one
    report per experiment, and no series, and returns their combined exit code."""
    codes = []
    for name, overrides in SMOKE.items():
        sub = load_config(name, None, overrides, cfg["seed"], cfg["threads"])
        t0 = time.perf_counter()
        report = _cmd_experiment(name, sub, out)
        _write_report(report, out, f"selftest_{name}", time.perf_counter() - t0)
        print(f"[{name}]")
        _print_gates(report)
        codes.append(_exit_code(report))
    return combined_exit_code(codes)


# subcommand -> (help, command); selftest writes and scores its own reports
COMMANDS = {
    "sample": ("draw measure samples into a container file", _cmd_sample),
    "simulate": ("run one trajectory and write a CSV summary", _cmd_simulate),
    "invariance": ("weighted-ensemble invariance experiment", _cmd_experiment),
    "ergodicity": ("time-average vs ensemble-average experiment", _cmd_experiment),
    "linear": ("linear contraction and mixing experiment", _cmd_experiment),
    "decay": ("stochastic-convolution decay experiment", _cmd_experiment),
    "nstability": ("truncation-stability experiment", _cmd_experiment),
    "coupling": ("remainder energy and envelope experiment", _cmd_experiment),
    "control": ("control reconstruction residual report", _cmd_control),
    "selftest": ("smoke-run every experiment", _cmd_selftest),
}


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
    for name, (blurb, _) in COMMANDS.items():
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

    name = args.subcommand
    try:
        cfg = load_config(name, args.config, args.overrides, args.seed, args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if name == "selftest":
            return _cmd_selftest(cfg, out)
        t0 = time.perf_counter()
        report = COMMANDS[name][1](name, cfg, out)
        runtime = time.perf_counter() - t0
    except (NumericalError, BlowupError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 70
    except ValueError as e:
        # ConfigError, and the precondition violations the library raises as
        # ValueError throughout
        print(f"error: {e}", file=sys.stderr)
        return 64
    _write_report(report, out, name, runtime)
    if report.series is not None:
        _write_csv(out / f"{name}_series.csv", *report.series)
    _print_gates(report)
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
