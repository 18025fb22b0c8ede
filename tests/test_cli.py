"""Command-line behavior: config resolution, exit codes, artifacts."""

import csv
import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from gibbsdyn import cli
from gibbsdyn.cli import (
    DEFAULTS,
    SMOKE,
    ConfigError,
    _apply_override,
    build_experiment_config,
    combined_exit_code,
    load_config,
    main,
)
from gibbsdyn.container import load_ensemble, load_noise
from gibbsdyn.flow import FlowConfig
from gibbsdyn.gibbs import GibbsConfig, estimate
from gibbsdyn.harness import ExperimentConfig, make_gate, make_report
from gibbsdyn.spectral import GridSpec, omega2


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def smoke_args(name):
    return [name, *(x for item in SMOKE[name] for x in ("--set", item))]


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_64(tmp_path, capsys):
    rc = run(tmp_path, "invariance", "--config", str(tmp_path / "absent.json"))
    assert rc == 64
    assert "not found" in capsys.readouterr().err


def test_unknown_top_level_key_exits_64(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"grid": {"d": 1, "M": 18, "s": 2.0}, "bogus": 1}')
    rc = run(tmp_path, "invariance", "--config", str(cfg))
    assert rc == 64
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section", ["grid", "flow", "gibbs", "experiment", "sample", "simulate", "control"]
)
def test_unknown_section_key_exits_64(tmp_path, capsys, section):
    # each section is checked on a subcommand whose defaults have it
    subcommand = section if section in ("sample", "simulate", "control") else "invariance"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: {"wavenumber": 7}}))
    rc = run(tmp_path, subcommand, "--config", str(cfg))
    assert rc == 64
    err = capsys.readouterr().err
    assert f"unknown {section} key(s): wavenumber" in err


def test_every_config_field_is_accepted_at_its_default():
    # the key sets come from the dataclass fields, less those the CLI fills
    filled = {"experiment", "grid", "flow", "gibbs", "master_seed", "threads"}
    classes = {
        "grid": GridSpec, "flow": FlowConfig, "gibbs": GibbsConfig, "experiment": ExperimentConfig,
    }
    for section, cls in classes.items():
        for field in dataclasses.fields(cls):
            if field.name in filled:
                continue
            default = DEFAULTS["invariance"][section].get(field.name, field.default)
            item = f"{section}.{field.name}={json.dumps(default)}"
            cfg = load_config("invariance", None, [item])
            build_experiment_config("invariance", cfg)
    for name in ("sample", "simulate", "control"):
        for key, value in DEFAULTS[name][name].items():
            load_config(name, None, [f"{name}.{key}={json.dumps(value)}"])


def test_value_kinds_follow_the_defaults():
    # an int where a float is expected, and a number or null where the default
    # is null, are accepted
    load_config("invariance", None, ["flow.T=2", "experiment.burn_in=1", "experiment.envelope_scales=[1,2]"])
    load_config("invariance", None, ["experiment.burn_in=null"])
    load_config("simulate", None, ["simulate.thin_every=5"])
    for item in [
        "grid.M=18.0", "experiment.ensemble_size=true", "experiment.shared_noise=1",
        "experiment.observables=[1]", "experiment.burn_in=false", "flow.gamma=[0.1]",
    ]:
        with pytest.raises(ConfigError, match=item.split("=")[0]):
            load_config("invariance", None, [item])


@pytest.mark.parametrize(
    "args",
    [
        ("control", "--set", 'control.t="abc"'),
        ("control", "--set", "control.steps=100.5"),
        ("sample", "--set", "sample.method=imh", "--set", 'sample.burn_in="abc"'),
        ("sample", "--set", "sample.count=true"),
        ("simulate", "--set", 'simulate.thin_every="abc"'),
        ("simulate", "--set", "simulate.thin_every=2.5"),
        ("simulate", "--set", "flow.T=0.5", "--set", "simulate.thin_every=0"),
        ("simulate", "--set", "flow.T=0.5", "--set", "simulate.thin_every=-3"),
        ("decay", "--set", 'experiment.alpha="abc"'),
        ("nstability", "--set", "experiment.n_values=[2,3]"),
        ("nstability", "--set", "experiment.n_values=[2,4]"),
        ("coupling", "--set", "experiment.envelope_scales=[1.0]"),
        ("coupling", "--set", "experiment.envelope_scales=[0.0,1.0]"),
        ("decay", "--set", "experiment.stick_time=0.0"),
        ("decay", "--set", "experiment.windows=0"),
        ("decay", "--set", "experiment.stick_time=0.05"),
        ("invariance", "--set", "experiment.observables=[]", "--set", "flow.T=0.1"),
        ("ergodicity", "--set", "experiment.observables=[]"),
        ("sample", "--set", "sample.method=imh", "--set", "sample.burn_in=-5"),
        ("invariance", "--set", "flow.gamma=5.0"),
        ("ergodicity", "--set", "flow.gamma=0.2"),
        ("linear", "--set", "flow.gamma=0.1"),
        ("ergodicity", "--set", "flow.T=20.0", "--set", "experiment.burn_in=100.0"),
        ("ergodicity", "--set", "flow.T=20.0", "--set", "experiment.burn_in=10.0"),
        ("ergodicity", "--set", "flow.T=20.0", "--set", "experiment.burn_in=-1.0"),
        ("coupling", "--set", "experiment.alpha=0.0", "--set", "flow.T=1.0"),
        ("nstability", "--set", "experiment.alpha=-0.4"),
        ("sample", "--set", "sample.burn_in=5"),
        ("sample", "--set", "sample.measure=mu", "--set", "sample.burn_in=5"),
        ("sample", "--set", "sample.measure=mu", "--set", "sample.method=bogus"),
        ("sample", "--set", "sample.measure=mu", "--set", "sample.method=imh"),
    ],
    ids=[
        "control-t-string", "control-steps-float", "sample-burn_in-string", "sample-count-bool",
        "simulate-thin-string", "simulate-thin-float", "simulate-thin-zero",
        "simulate-thin-negative", "decay-alpha-string",
        "nstability-no-pair", "nstability-one-pair", "coupling-one-scale", "coupling-zero-scale",
        "decay-zero-time", "decay-no-window", "decay-half-step", "invariance-no-observable",
        "ergodicity-no-observable", "sample-burn_in-negative", "invariance-flow-gamma",
        "ergodicity-flow-gamma", "linear-flow-gamma", "ergodicity-burn_in-late",
        "ergodicity-burn_in-half", "ergodicity-burn_in-negative", "coupling-alpha-zero",
        "nstability-alpha-negative", "sample-burn_in-reweight", "sample-mu-burn_in",
        "sample-mu-method-unknown", "sample-mu-method-imh",
    ],
)
def test_malformed_values_exit_64(tmp_path, capsys, args):
    # each of these ended in a traceback, in a slope fitted through fewer than
    # two points, in a message naming no key, or in a verdict on no observable
    assert run(tmp_path, *args) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    key = next((a.split("=")[0].split(".")[1] for a in args if a.startswith("experiment.")), None)
    if key is not None:
        assert key in err
    assert not (tmp_path / f"{args[0]}_report.json").exists()


def test_malformed_json_exits_64(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    rc = run(tmp_path, "simulate", "--config", str(cfg))
    assert rc == 64
    assert "JSON" in capsys.readouterr().err


def test_bad_set_syntax_exits_64(tmp_path, capsys):
    assert run(tmp_path, "invariance", "--set", "novalue") == 64
    assert "key=value" in capsys.readouterr().err


def test_bad_seed_and_threads_exit_64(tmp_path):
    assert run(tmp_path, "invariance", "--seed", "-3") == 64
    assert run(tmp_path, "invariance", "--threads", "0") == 64


def test_usage_errors_exit_64(capsys):
    assert main([]) == 64
    assert main(["not-a-subcommand"]) == 64
    capsys.readouterr()


def test_override_precedence_and_echo(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": {"z_threshold": 9.0}, "seed": 5}))
    resolved = load_config("invariance", str(cfg), ["experiment.z_threshold=7.5"], seed=777)
    assert resolved["experiment"]["z_threshold"] == 7.5  # --set beats the file
    assert resolved["seed"] == 777  # the flag beats the file
    # defaults for untouched keys survive so the echo is complete
    assert resolved["flow"]["h"] == DEFAULTS["invariance"]["flow"]["h"]


def test_set_values_parse_as_json():
    cfg = {"a": {}}
    _apply_override(cfg, "a.flag=false")
    _apply_override(cfg, "a.nums=[1,2]")
    _apply_override(cfg, "a.word=hello")
    assert cfg["a"] == {"flag": False, "nums": [1, 2], "word": "hello"}


def test_env_threads_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GIBBSDYN_THREADS", "3")
    assert load_config("invariance", None, [])["threads"] == 3
    # the flag beats the environment
    assert load_config("invariance", None, [], threads=2)["threads"] == 2
    # an explicit config value beats the environment
    assert load_config("invariance", None, ["threads=4"])["threads"] == 4
    monkeypatch.setenv("GIBBSDYN_THREADS", "zzz")
    with pytest.raises(ConfigError):
        load_config("invariance", None, [])


def test_default_threads_is_the_affinity_count(monkeypatch):
    monkeypatch.delenv("GIBBSDYN_THREADS", raising=False)
    cores = len(os.sched_getaffinity(0))
    assert load_config("invariance", None, [])["threads"] == cores
    assert ExperimentConfig("invariance", GridSpec(1, 18, 2.0)).threads == cores


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def small_invariance(*extra):
    return [
        "invariance",
        "--set", "experiment.ensemble_size=64",
        "--set", "experiment.ess_floor=8.0",
        "--set", "flow.T=0.2",
        *extra,
    ]


def test_invariance_pass_writes_artifacts(tmp_path, capsys):
    rc = run(tmp_path, *small_invariance())
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: pass" in out
    assert out.count("PASS") >= 4  # one line per gate
    doc = json.loads((tmp_path / "invariance_report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "pass"
    # full resolved config echoed, including untouched defaults
    assert doc["config"]["z_threshold"] == 4.0
    assert doc["config"]["flow"]["h"] == 0.01
    assert "threads" not in doc["config"]
    assert (tmp_path / "invariance_runtime.json").exists()
    assert (tmp_path / "invariance_series.csv").exists()


def test_default_battery_runs_at_d2(tmp_path, capsys):
    # the default mode_re:1 means the mode (1, 0) on the 2-torus
    rc = run(
        tmp_path,
        *small_invariance(
            "--set", "grid.d=2", "--set", "grid.s=4", "--set", "grid.M=18",
            "--set", "flow.N=4", "--set", "gibbs.N=4",
        ),
    )
    capsys.readouterr()
    assert rc != 64
    doc = json.loads((tmp_path / "invariance_report.json").read_text())
    assert doc["stats"]["ks"]["observable"] == "mode_re:1"
    assert "z:mode_re:1" in [g["name"] for g in doc["gates"]]


def test_default_s_follows_d(tmp_path, capsys):
    # s must exceed d: CLI-default invariance at d=2 used to exit 64
    rc = run(tmp_path, *small_invariance("--set", "grid.d=2"))
    capsys.readouterr()
    assert rc != 64
    doc = json.loads((tmp_path / "invariance_report.json").read_text())
    assert doc["config"]["grid"] == {"M": 18, "d": 2, "s": 4.0}
    assert run(tmp_path, *small_invariance("--set", "grid.d=2", "--set", "grid.s=2.0")) == 64
    assert "s must exceed d" in capsys.readouterr().err


def test_default_s_resolution(tmp_path):
    assert load_config("invariance", None, [])["grid"]["s"] == 2.0
    assert load_config("invariance", None, ["grid.d=3"])["grid"]["s"] == 4.0
    assert load_config("decay", None, [])["grid"]["s"] == 4.0
    assert load_config("invariance", None, ["grid.d=2", "grid.s=5"])["grid"]["s"] == 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"d": 2, "s": 3.0}}))
    assert load_config("coupling", str(cfg), [])["grid"]["s"] == 3.0
    cfg.write_text(json.dumps({"grid": {"d": 2}}))
    assert load_config("coupling", str(cfg), [])["grid"]["s"] == 4.0


@pytest.mark.parametrize("target", [0, -1])
def test_nonpositive_target_energy_exits_64(tmp_path, capsys, target):
    rc = run(tmp_path, "coupling", "--set", f"experiment.target_energy={target}", "--set", "flow.T=2")
    assert rc == 64
    assert "target_energy must be strictly positive" in capsys.readouterr().err


def test_constant_observable_passes_invariance(tmp_path, capsys):
    # "one" has equal means and no spread: z reads 0, not inf
    rc = run(
        tmp_path, "invariance", "--set", 'experiment.observables=["one","l2_u"]',
        "--set", "experiment.ensemble_size=64", "--set", "experiment.ess_floor=10.0",
        "--set", "flow.T=0.1",
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "invariance_report.json").read_text())
    gate = {g["name"]: g for g in doc["gates"]}["z:one"]
    assert gate["value"] == 0.0 and gate["passed"]


def test_invariance_passes_at_d3(tmp_path, capsys):
    rc = run(
        tmp_path, "invariance", "--set", "grid.d=3", "--set", "grid.M=10", "--set", "flow.N=2",
        "--set", "gibbs.N=2", "--set", "experiment.ensemble_size=256",
        "--set", "experiment.ess_floor=32.0", "--set", "flow.T=0.5",
    )
    assert rc == 0
    assert "verdict: pass" in capsys.readouterr().out


# each experiment's series: its CSV header, and the rows it holds as read
# from the report's stats (observables in config order; the report sorts keys)
Z_COLUMNS = ["mean_initial", "se_initial", "mean_final", "se_final", "z", "ess"]
SERIES = {
    "invariance": (
        ["observable", *Z_COLUMNS],
        lambda s, names: [[k, *(s["observables"][k][c] for c in Z_COLUMNS)] for k in names],
    ),
    "ergodicity": (
        ["observable", "reference_mean", "reference_se", "zero", "high_mode", "mu_sample"],
        lambda s, names: [
            [k, s["observables"][k]["reference_mean"], s["observables"][k]["reference_se"],
             *(s["observables"][k]["time_averages"][n] for n in s["initial_data"])]
            for k in names
        ],
    ),
    "linear": (["t", "difference_norm"], lambda s, _: list(zip(s["times"], s["difference_norms"]))),
    "decay": (
        ["window", "median_sup", "mean_sup"],
        lambda s, _: [[k, *mw] for k, mw in enumerate(zip(s["medians"], s["window_sups_mean"]))],
    ),
    "nstability": (
        ["n", "n_double", "sup_difference"],
        lambda s, _: [[*pair, d] for pair, d in zip(s["n_pairs"], s["sup_differences"])],
    ),
    "coupling": (["t", "energy"], lambda s, _: list(zip(s["times"], s["energies"]))),
}


@pytest.mark.parametrize("name", list(SMOKE))
def test_series_csv_matches_the_report(tmp_path, capsys, name):
    assert run(tmp_path, *smoke_args(name)) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / f"{name}_report.json").read_text())
    header, rows_of = SERIES[name]
    want = rows_of(doc["stats"], doc["config"]["observables"])
    with open(tmp_path / f"{name}_series.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == header
    assert len(got) - 1 == len(want) > 0
    for row, expected in zip(got[1:], want):
        assert len(row) == len(expected)
        for cell, value in zip(row, expected):
            assert cell == value if isinstance(value, str) else float(cell) == value


def test_gate_failure_exits_2(tmp_path, capsys):
    # independent noise across truncations destroys the pathwise decay rate
    rc = run(tmp_path, "nstability", "--set", "experiment.shared_noise=false")
    assert rc == 2
    assert "verdict: fail" in capsys.readouterr().out


def test_inconclusive_exits_3(tmp_path, capsys):
    rc = run(tmp_path, *small_invariance("--set", "experiment.ess_floor=1e6"))
    assert rc == 3
    assert "verdict: inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides",
    [
        # initial energy 200 against a band of about 950
        ["grid.d=2", "grid.M=10", "flow.N=2", "grid.s=3.0"],
        ["grid.d=3", "grid.M=10", "flow.N=2", "flow.T=5.0", "experiment.envelope_horizon=2.0"],
    ],
    ids=["d2", "d3"],
)
def test_coupling_without_a_decay_fit_is_inconclusive(tmp_path, capsys, overrides):
    # with the initial energy inside twice the band there is no transient to
    # fit: decay_rate reads 0 and fails its gate, and the run says so
    args = [x for item in overrides for x in ("--set", item)]
    rc = run(tmp_path, "coupling", *args)
    assert rc == 3
    assert "verdict: inconclusive" in capsys.readouterr().out
    doc = json.loads((tmp_path / "coupling_report.json").read_text())
    gates = {g["name"]: g for g in doc["gates"]}
    assert set(gates) == {"band_limited", "sup_energy", "no_blowup", "decay_rate", "envelope_slope"}
    assert gates["decay_rate"]["value"] == 0.0 and not gates["decay_rate"]["passed"]
    assert gates["decay_rate"]["threshold"] == 0.2
    assert all(g["passed"] for name, g in gates.items() if name != "decay_rate")
    assert doc["stats"]["initial_energy"] <= 2 * doc["stats"]["stationary_band"]
    assert doc["stats"]["fit_window"] == [0.0, 0.0]
    assert doc["inconclusive"] is True


def test_linear_passes_at_d3(tmp_path, capsys):
    rc = run(tmp_path, "linear", "--set", "grid.d=3", "--set", "grid.M=10",
             "--set", "experiment.ensemble_size=256")
    assert rc == 0
    assert "verdict: pass" in capsys.readouterr().out
    doc = json.loads((tmp_path / "linear_report.json").read_text())
    assert np.all(np.isfinite(doc["stats"]["difference_norms"]))


def test_simulate_at_d3_writes_one_finite_row_per_sample(tmp_path, capsys):
    rc = run(tmp_path, "simulate", "--set", "grid.d=3", "--set", "grid.M=10",
             "--set", "flow.N=2", "--set", "flow.T=1.0")
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "simulate_report.json").read_text())
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == doc["stats"]["n_samples"] == 11  # t = 0, 0.1, ..., 1
    values = np.array([[float(v) for v in row.values()] for row in rows])
    assert np.all(np.isfinite(values))
    assert np.allclose(values[:, 0], np.linspace(0.0, 1.0, 11))


def test_numerical_failure_exits_70(tmp_path, capsys):
    rc = run(tmp_path, "control", "--set", "control.t=1e-6", "--set", "control.steps=64")
    assert rc == 70
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ensemble_blowup_exits_70(tmp_path, capsys):
    # a huge step and interaction drive members to inf: a numerical failure,
    # not an inconclusive or failed verdict
    rc = run(
        tmp_path,
        *small_invariance(
            "--set", "flow.h=0.5", "--set", "flow.T=10",
            "--set", "flow.gamma=10", "--set", "gibbs.gamma=10",
        ),
    )
    assert rc == 70
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err
    assert not (tmp_path / "invariance_report.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "overrides, message",
    [
        # one member of 8192 ends at energy 4e115 while staying finite; with
        # a normalised weight of 1.65e-9 it still carries every weighted mean,
        # so each z reads 0.99993 and the run passed before the energy check
        (("flow.h=0.8",), "1 of 8192 ensemble members broke down (0 ended non-finite, 1 above"),
        # 21 members end non-finite, with a weight share of 7e-23
        (("flow.h=0.2", "flow.gamma=1.0", "gibbs.gamma=1.0"), "21 of 8192 ensemble members broke down (21"),
    ],
)
def test_ensemble_breakdown_exits_70_whatever_its_weight(tmp_path, capsys, overrides, message):
    sets = [x for item in (*overrides, "flow.T=4.8", "experiment.ensemble_size=8192") for x in ("--set", item)]
    rc = run(tmp_path, "invariance", *sets)
    assert rc == 70
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: " + message) and "of the normalised weight" in err
    assert not (tmp_path / "invariance_report.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("shared", ["true", "false"])
def test_nstability_blowup_exits_70(tmp_path, capsys, shared):
    # with shared noise the largest cutoff runs first and the others replay
    # its path, so its blowup used to surface as a path too short to replay
    rc = run(tmp_path, "nstability", "--set", "flow.h=0.5", "--set", "flow.T=20.0",
             "--set", "flow.gamma=50.0", "--set", f"experiment.shared_noise={shared}")
    assert rc == 70
    err = capsys.readouterr().err
    assert err == "numerical failure: nstability run at N=8 blew up at t=1\n"
    assert not (tmp_path / "nstability_report.json").exists()


def test_decay_report_byte_identical_across_threads(tmp_path, capsys):
    # more members than one row chunk, so two threads step two chunks at once
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["decay", "--set", "experiment.ensemble_size=1100",
                     "--threads", threads, "--out", str(out)]) == 0
        reports.append((out / "decay_report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_reports_byte_identical_across_threads(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main([*small_invariance(), "--threads", "1", "--out", str(a)]) == 0
    assert main([*small_invariance(), "--threads", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    ra = (a / "invariance_report.json").read_bytes()
    rb = (b / "invariance_report.json").read_bytes()
    assert ra == rb


def test_sample_mu_roundtrip(tmp_path, capsys):
    rc = run(
        tmp_path, "sample",
        "--set", "sample.measure=mu", "--set", "sample.count=32",
        "--set", "grid.M=10", "--seed", "3",
    )
    assert rc == 0
    capsys.readouterr()
    ens = load_ensemble(tmp_path / "ensemble_mu.bin")
    assert ens.states.shape == (32, 2, 9)
    assert np.all(ens.log_weights == 0.0)


def test_sample_rho_reports_ess(tmp_path, capsys):
    rc = run(
        tmp_path, "sample",
        "--set", "sample.count=64", "--set", "grid.M=18", "--set", "gibbs.N=4",
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "sample_report.json").read_text())
    assert 2.0 <= doc["stats"]["ess"] <= 64.0
    ens = load_ensemble(tmp_path / "ensemble_rho.bin")
    assert np.all(ens.log_weights <= 0.0)
    # the report's ESS is the estimator's
    assert doc["stats"]["ess"] == estimate(ens, np.zeros(len(ens)))[2]


def test_sample_imh_applies_its_burn_in(tmp_path, capsys):
    def draw(burn_in):
        out = tmp_path / str(burn_in)
        args = ("--set", "sample.method=imh", "--set", f"sample.burn_in={burn_in}")
        assert run(out, "sample", "--set", "sample.count=16", "--set", "grid.M=10", "--set", "gibbs.N=4", *args) == 0
        doc = json.loads((out / "sample_report.json").read_text())
        assert doc["config"]["sample"]["burn_in"] == burn_in
        return load_ensemble(out / "ensemble_rho.bin").states

    assert not np.array_equal(draw(0), draw(8))
    capsys.readouterr()


def test_sample_rejects_unknown_measure(tmp_path, capsys):
    rc = run(tmp_path, "sample", "--set", "sample.measure=nu")
    assert rc == 64
    capsys.readouterr()


def test_simulate_long_run_matches_gaussian_moment(tmp_path, capsys):
    rc = run(
        tmp_path, "simulate", "--seed", "11",
        "--set", "grid.M=10",
        "--set", "flow.N=-1", "--set", "flow.gamma=0.0",
        "--set", "flow.h=0.05", "--set", "flow.T=800.0",
        "--set", "flow.record_noise=false",
    )
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    l2 = np.array([float(r["l2_u"]) for r in rows])
    exact = float(np.sum(1.0 / omega2(GridSpec(1, 10, 2.0))))
    tail_mean = float(np.mean(l2[t > 40.0]))
    assert abs(tail_mean - exact) / exact < 0.10
    # the run starts from zero, so the first row is exactly zero
    assert l2[0] == 0.0 and t[0] == 0.0


def test_simulate_csv_is_rfc4180(tmp_path, capsys):
    rc = run(tmp_path, "simulate", "--set", "flow.T=0.5")
    assert rc == 0
    capsys.readouterr()
    raw = (tmp_path / "trajectory.csv").read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n", 1)[0].decode()
    assert header == "t,E_v,l2_u,l2_ut,holder_alpha,xalpha_proxy"


def test_simulate_dumps_containers(tmp_path, capsys):
    rc = run(
        tmp_path, "simulate",
        "--set", "flow.T=0.5",
        "--set", "simulate.dump_states=true", "--set", "simulate.dump_noise=true",
    )
    assert rc == 0
    capsys.readouterr()
    states = load_ensemble(tmp_path / "trajectory_states.bin")
    noise = load_noise(tmp_path / "trajectory_noise.bin")
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        n_rows = len(list(csv.DictReader(fh)))
    assert states.states.shape[0] == n_rows
    assert noise.n_steps == 2 * round(0.5 / 0.01)  # half-step spacing


def test_simulate_dumps_record_the_seed(tmp_path, capsys):
    rc = run(
        tmp_path, "simulate", "--seed", "77", "--set", "flow.T=0.1",
        "--set", "simulate.dump_states=true", "--set", "simulate.dump_noise=true",
    )
    assert rc == 0
    capsys.readouterr()
    assert load_ensemble(tmp_path / "trajectory_states.bin").seed == 77
    assert load_noise(tmp_path / "trajectory_noise.bin").seed == 77


def test_simulate_dump_noise_requires_recording(tmp_path, capsys):
    rc = run(
        tmp_path, "simulate",
        "--set", "flow.T=0.5",
        "--set", "flow.record_noise=false", "--set", "simulate.dump_noise=true",
    )
    assert rc == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "--set", "flow.T=0.5"), ("sample", "--set", "sample.count=64"), ("control",),
        *(smoke_args(name) for name in SMOKE),
    ],
    ids=["simulate", "sample", "control", *SMOKE],
)
def test_utility_runtime_goes_to_sidecar_only(tmp_path, capsys, args):
    # the sidecar carries the runtime `main` measures for every subcommand;
    # the canonical report holds no timing, so it stays byte-identical from
    # run to run
    reports = []
    for sub, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / sub
        assert main([*args, "--threads", threads, "--out", str(out)]) == 0
        sidecar = json.loads((out / f"{args[0]}_runtime.json").read_text())
        assert sidecar["runtime_seconds"] > 0.0
        reports.append((out / f"{args[0]}_report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert b"runtime" not in reports[0]


def test_control_report_and_gram_csv(tmp_path, capsys):
    rc = run(tmp_path, "control")
    assert rc == 0
    out = capsys.readouterr().out
    assert "reconstruction_residual" in out
    doc = json.loads((tmp_path / "control_report.json").read_text())
    assert doc["stats"]["residual"] <= 1e-6
    with open(tmp_path / "control_gram.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == [str(n) for n in range(4, 9)]
    for r in rows:
        assert abs(float(r["eig_min"]) - 0.5) <= 0.05
        assert abs(float(r["eig_max"]) - 0.5) <= 0.05


def load_run_experiments():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_combined_exit_code_precedence():
    assert combined_exit_code([]) == 0
    assert combined_exit_code([0, 3, 2]) == 2
    assert combined_exit_code([3, 0]) == 3
    assert combined_exit_code([2, 70, 3]) == 70
    assert combined_exit_code([70, 64, 2]) == 64


def test_smoke_runs_share_one_exit_code_rule(tmp_path, capsys, monkeypatch):
    # a failed run outranks an inconclusive one in both the script and selftest
    script = load_run_experiments()
    codes, calls = iter([2, 3, 0, 0, 0, 0]), []
    monkeypatch.setattr(script, "cli_main", lambda argv: calls.append(argv[0]) or next(codes))
    assert script.main(["--out", str(tmp_path)]) == 2
    assert calls == list(SMOKE)
    # a configuration error stops the run
    codes, calls = iter([3, 64]), []
    assert script.main(["--out", str(tmp_path)]) == 64
    assert calls == list(SMOKE)[:2]

    verdicts = iter([(False, False), (True, True), (True, False)] + [(True, False)] * 3)

    def fake_run(cfg):
        passed, inconclusive = next(verdicts)
        return make_report(cfg.experiment, cfg, 0, {}, [make_gate("g", 0.0 if passed else 1.0, 0.5, "le")],
                           inconclusive)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert main(["selftest", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_selftest_passes_on_defaults(tmp_path, capsys):
    rc = run(tmp_path, "selftest")
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("verdict: pass") == 6
    for name in ("invariance", "ergodicity", "linear", "decay", "nstability", "coupling"):
        assert (tmp_path / f"selftest_{name}_report.json").exists()
        assert json.loads((tmp_path / f"selftest_{name}_runtime.json").read_text())["runtime_seconds"] > 0.0
    assert not list(tmp_path.glob("*.csv"))
    # `run_experiments.py --quick` runs at selftest's scale, so it writes the
    # same reports
    rc = load_run_experiments().main(["--quick", "--only", "linear", "nstability", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    for name in ("linear", "nstability"):
        quick = (tmp_path / f"{name}_report.json").read_bytes()
        assert quick == (tmp_path / f"selftest_{name}_report.json").read_bytes()
