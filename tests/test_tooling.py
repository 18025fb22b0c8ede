"""The repository's tools still find the library: the benchmark's layer
tracer names and the calls it needs, the quickstart and report-digest
scripts, the CLI's subcommand tables, and the CI workflow's command and
numpy floor."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gibbsdyn import cli, harness
from gibbsdyn.flow import Trajectory, evolve
from gibbsdyn.observables import resolve
from gibbsdyn.spectral import GridSpec

ROOT = Path(__file__).resolve().parents[1]


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # the tracer wraps each LAYERS name by attribute; a rename must fail here,
    # not only in a traced benchmark run
    layers = _layertrace().LAYERS
    assert layers
    for qual in layers:
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module(f"gibbsdyn.{mod_name}")
        if qual == "observables.eval":
            # not an attribute: the callables `resolve` returns
            assert callable(resolve("l2_u", GridSpec(1, 9, 2.0)))
            continue
        assert callable(getattr(module, fn_name, None)), qual


# installs the benchmark's tracer in a fresh process, runs one smoke
# experiment and prints the tracer's summary as the last stdout line
TRACED_SMOKE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
tracer = layertrace.Tracer()
tracer.install()
from gibbsdyn import cli
name = sys.argv[3]
cli.main([name, "--out", sys.argv[2], *(x for item in cli.SMOKE[name] for x in ("--set", item))])
print(json.dumps(tracer.summary()))
"""

# the stepping layers a traced benchmark run requires on every workload
STEP_LAYERS = (
    "flow.kick_states",
    "spectral.dealiased_cube_coeffs",
    "linear_dynamics.propagate_states",
    "linear_dynamics.increments_to_states",
    "linear_dynamics.draw_increments",
)


@pytest.mark.parametrize("name", ["ergodicity", "coupling", "invariance"])
def test_traced_smoke_calls_every_stepping_layer(tmp_path, name):
    # a kernel change that stops calling a traced layer (say, a kick that no
    # longer goes through kick_states and dealiased_cube_coeffs) must fail
    # here, not only in a traced benchmark run; invariance hands
    # evolve_ensemble redrawn states and a sink, which the tracer's work
    # counter reads as arrays
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SMOKE, str(ROOT / "perfbench" / "layertrace.py"), str(tmp_path), name],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    for layer in STEP_LAYERS:
        assert summary[layer]["calls"] > 0, layer
    cube = summary["spectral.dealiased_cube_coeffs"]
    assert cube["fft_points"] > 0
    # every kick goes through one dealiased cube
    assert cube["calls"] == summary["flow.kick_states"]["calls"]
    if name == "invariance":
        for layer in ("gibbs.sample_mu_states", "gibbs.interaction_states", "flow.evolve_ensemble"):
            assert summary[layer]["calls"] > 0, layer
        assert summary["flow.evolve_ensemble"]["member_steps"] > 0
        assert summary["flow.evolve_ensemble"]["blowups"] == 0


def test_evolve_work_counter_inputs():
    # the tracer's counter for flow.evolve reads cfg as the second positional
    # argument and blowup_time on the result
    params = list(inspect.signature(evolve).parameters)
    assert params[1] == "cfg"
    assert "blowup_time" in {f.name for f in Trajectory.__dataclass_fields__.values()}


def test_quickstart_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "quickstart.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "trajectory to T=20.0: 201 samples, no blowup: True" in proc.stdout


def test_report_digests_repeat(tmp_path):
    # a report that changed from one run to the next would make every
    # parent/change comparison through the script fail
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_digests.py"), "--only", "simulate", "coupling"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    names = [line.split("  ", 1)[1] for line in lines]
    assert names == [
        "simulate/simulate_report.json", "simulate/trajectory.csv", "simulate",
        "coupling/coupling_report.json", "coupling/coupling_series.csv", "coupling",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split("  ")[0]) for line in lines if "/" in line)
    assert lines[2].startswith("exit 0  ") and lines[5].startswith("exit 0  ")
    assert list(tmp_path.iterdir()) == []


def test_report_digests_check(tmp_path):
    # --check names the output whose saved digest differs, and each output
    # only one side has, and exits 1; against its own lines it exits 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = [sys.executable, str(ROOT / "scripts" / "report_digests.py"), "--only", "simulate"]

    def run(*args):
        return subprocess.run(
            script + list(args), cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )

    saved = run().stdout.splitlines()
    good = tmp_path / "good.txt"
    good.write_text("\n".join(saved + ["0" * 64 + "  coupling/coupling_report.json"]) + "\n")
    proc = run("--check", str(good))
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert proc.stdout.splitlines() == saved + ["all 3 outputs match"]
    digest, name = saved[0].split("  ")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["f" * 64 + "  " + name, "0" * 64 + "  simulate/noise.bin"] + saved[2:]) + "\n")
    proc = run("--check", str(bad))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[len(saved):] == [
        "missing  simulate/noise.bin",
        f"differs  {name}: {'f' * 64} -> {digest}",
        f"new      {saved[1].split('  ')[1]}",
        "3 of 4 outputs differ",
    ]


def test_subcommand_tables_agree():
    # a subcommand missing from one table must fail here, not at run time
    assert set(cli.COMMANDS) - {"selftest"} == set(cli.DEFAULTS)
    assert set(harness.EXPERIMENTS) == set(cli.SMOKE)
    experiments = {name for name, (_, command) in cli.COMMANDS.items() if command is cli._cmd_experiment}
    assert experiments == set(harness.EXPERIMENTS)


def test_workflow_runs_tier1_at_the_numpy_floor():
    # the workflow cannot run offline, so it is checked as text (PyYAML may be
    # missing): ROADMAP's tier-1 command verbatim, at pyproject's numpy floor
    # and at the latest numpy
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1, "ROADMAP.md states no tier-1 command"
    assert f"run: {tier1.group(1)}\n" in workflow
    floor = re.search(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml states no numpy floor"
    matrix = re.search(r"^\s*numpy: \[(.*)\]$", workflow, re.MULTILINE)
    assert matrix, "the workflow has no numpy matrix"
    entries = [e.strip() for e in matrix.group(1).split(",")]
    assert entries == [f'"numpy=={floor.group(1)}.*"', '"numpy"']


def test_workflow_runs_a_traced_call_of_every_workload():
    # only a traced benchmark run checks that every layer is still called
    # (tier-1 checks the names), and only an untraced one makes several calls
    # in one process, which must all write one report; so the workflow runs
    # both for each workload, and fails unless each is correct
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    for trace in ("1", "0"):
        loop = re.search(
            r"for w in ([a-z_ ]+); do\n\s*last=\$\(python perfbench/run.py --workload \"\$w\" "
            rf"--seconds 1 --trace {trace} \| tail -n 1\)\n(.*?)\n\s*done\n",
            workflow,
            re.DOTALL,
        )
        assert loop, f"the workflow runs no --trace {trace} benchmark loop"
        assert set(loop.group(1).split()) == _layertrace().ALL
        assert "'{\"correct\": true'*) ;;" in loop.group(2)
        assert "exit 1" in loop.group(2)
