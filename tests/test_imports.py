"""Import hygiene: no subcommand loads scipy.

scipy.stats costs about 1 s and 70 MB to import, most of a default-scale run,
and the runtime depends on numpy alone (the KS steps use
`harness.ks_2samp_equal`).  Each check runs in a fresh interpreter, because
this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import contextlib, io, json, sys
import gibbsdyn.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, "--out", OUT])

def report(name):
    with open(f"{OUT}/{name}_report.json") as fh:
        return json.load(fh)
"""


def run_fresh(tmp_path, body: str) -> dict:
    """Run PRELUDE + body in a fresh interpreter; body prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"OUT = {str(tmp_path)!r}\n{PRELUDE}\n{body}"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    got = run_fresh(tmp_path, "print(json.dumps(scipy_loaded()))")
    assert got == []


def test_experiments_without_ks_load_no_scipy(tmp_path):
    got = run_fresh(tmp_path, """
codes = [
    run("coupling", "--set", "flow.T=2", "--set", "experiment.envelope_horizon=1"),
    run("ergodicity", "--set", "flow.T=2", "--set", "experiment.ensemble_size=64",
        "--set", "experiment.ess_floor=8"),
]
print(json.dumps({"codes": codes, "scipy": scipy_loaded()}))
""")
    assert all(c in (0, 2, 3) for c in got["codes"]), got["codes"]
    assert got["scipy"] == []


def test_ks_steps_still_run(tmp_path):
    got = run_fresh(tmp_path, """
small = ["--set", "experiment.ensemble_size=64", "--set", "experiment.ess_floor=8", "--set", "flow.T=0.2"]
out = {"codes": [run("invariance", *small)]}
out["ks"] = report("invariance")["stats"].get("ks")
out["codes"].append(run("invariance", *small, "--set", "gibbs.gamma=0", "--set", "flow.gamma=0.0"))
out["gates_gamma0"] = [g["name"] for g in report("invariance")["gates"]]
out["codes"].append(run("linear", "--set", "experiment.ensemble_size=64", "--set", "flow.T=2"))
out["gates_linear"] = [g["name"] for g in report("linear")["gates"]]
out["ks_linear"] = {k: report("linear")["stats"][k] for k in ("ks_u0", "ks_ut0")}
out["scipy"] = scipy_loaded()
print(json.dumps(out))
""")
    assert all(c in (0, 2, 3) for c in got["codes"]), got["codes"]
    assert got["ks"]["observable"] == "mode_re:1"
    assert {"statistic", "pvalue"} <= set(got["ks"])
    assert "ks:mode_re:1" in got["gates_gamma0"]
    assert {"ks:u0", "ks:ut0"} <= set(got["gates_linear"])
    for ks in got["ks_linear"].values():
        assert {"statistic", "pvalue"} <= set(ks)
    assert got["scipy"] == []


# a small run of every subcommand that the two tests above do not reach
OTHER_SUBCOMMANDS = {
    "sample": ["--set", "sample.count=64"],
    "simulate": ["--set", "flow.T=1"],
    "decay": ["--set", "experiment.ensemble_size=32"],
    "nstability": [],
    "control": ["--set", "control.steps=256"],
    "selftest": [],
}


def test_every_subcommand_is_checked():
    from gibbsdyn.cli import COMMANDS

    assert set(OTHER_SUBCOMMANDS) | {"coupling", "ergodicity", "invariance", "linear"} == set(COMMANDS)


@pytest.mark.parametrize("name", OTHER_SUBCOMMANDS)
def test_subcommand_loads_no_scipy(tmp_path, name):
    got = run_fresh(tmp_path, f"""
code = run({name!r}, *{OTHER_SUBCOMMANDS[name]!r})
print(json.dumps({{"code": code, "scipy": scipy_loaded()}}))
""")
    assert got["code"] in (0, 2, 3), got["code"]
    assert got["scipy"] == []
