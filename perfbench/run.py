"""gibbsdyn benchmark: time to verdict of three CLI experiments, split by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the benchmark imports `src/gibbsdyn`;
nothing is installed).  Each process is a fresh `perfbench/worker.py` that
times its own import of `gibbsdyn.cli`, calls `gibbsdyn.cli.main([...])` at
the given seed and checks every report.

--trace 0 starts SETUP_SAMPLES import-only processes, then one workload
process that repeats the call for about --seconds (at least MIN_CALLS
times).  It reports the end-to-end metrics of BENCHMARK.json: the medians of
wall_s and cpu_s over the calls, the process's peak_rss_mb, and setup_s, the
median import time over all processes.
--trace 1 alternates fresh untraced and traced single-call processes for
about --seconds and reports the per-layer metrics: medians over the traced
calls, plus the tracing overhead.

Earlier stdout lines carry the machine, the per-metric sample counts and
quartiles, the error rate and the report digests; the last line is the
result object.  See NOTES.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 20260819
SETUP_SAMPLES = 3
MIN_CALLS = 3  # untraced calls per --trace 0 run, whatever --seconds says
WORKER_TIMEOUT_S = 120  # beyond --seconds


def worker_env() -> dict[str, str]:
    """Single-threaded BLAS, no GIBBSDYN_THREADS: the only extra threads are
    the ones a workload asks for with --threads."""
    env = dict(os.environ)
    env.pop("GIBBSDYN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def spawn(env: dict, timeout: float, *args: str) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"ok": False, "error": f"worker exceeded {timeout:g} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exit {proc.returncode}: {proc.stderr[-600:]}"}
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            break
    return out


def layer_metrics(layers: dict, call: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced call, named as in BENCHMARK.json."""
    out: dict[str, float] = {}
    for name, agg in layers.items():
        for key, value in agg.items():
            out[f"{name}.{key}"] = value
    for name in names:
        layer = name.rpartition(".")[0]
        if name not in out and layers.get(layer, {}).get("calls") == 0:
            out[name] = 0  # work count of a layer this workload never calls
    out["rng.normals"] = sum(agg.get("normals", 0) for agg in layers.values())
    evolve, ensemble = layers["flow.evolve"], layers["flow.evolve_ensemble"]
    steps = evolve.get("member_steps", 0) + ensemble.get("member_steps", 0)
    out["flow.member_steps"] = steps
    stepping_s = evolve["s"] + ensemble["s"]
    out["flow.member_steps_per_s"] = steps / stepping_s if stepping_s else 0.0
    out["flow.blowups"] = evolve.get("blowups", 0) + ensemble.get("blowups", 0)
    # 0 where nothing is estimated (trajectory_recorded)
    out["gibbs.min_ess"] = layers["gibbs.estimate"].get("min_ess", 0.0)
    out["harness.gates_failed"] = call.get("gates_failed", 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gibbsdyn" / "cli.py").is_file():
        print(f"error: no gibbsdyn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    env = worker_env()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    run_dir.mkdir(parents=True, exist_ok=True)
    imports = [spawn(env, WORKER_TIMEOUT_S, "--import-only").get("import_s")
               for _ in range(SETUP_SAMPLES)]
    procs: list[dict] = []

    def workload_process(traced: bool, *extra: str) -> None:
        out_dir = run_dir / f"p{len(procs)}"
        proc = spawn(env, args.seconds + WORKER_TIMEOUT_S, "--workload", args.workload,
                     "--seed", str(args.seed), "--out", str(out_dir), *extra)
        shutil.rmtree(out_dir, ignore_errors=True)
        proc.setdefault("calls", [{"ok": False, "error": proc.get("error")}])
        proc["traced"] = traced
        procs.append(proc)
        imports.append(proc.get("import_s"))

    if args.trace == 0:
        workload_process(False, "--seconds", str(args.seconds), "--min-calls", str(MIN_CALLS))
    else:  # fresh single-call processes, untraced and traced in turn
        started, longest = time.perf_counter(), 0.0
        while True:
            for extra in ((), ("--spans", str(spans_file))):
                t0 = time.perf_counter()
                workload_process(bool(extra), *extra)
                longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - started + 2 * longest > args.seconds:
                break
    shutil.rmtree(run_dir, ignore_errors=True)

    calls = [c for p in procs for c in p["calls"]]
    want_verdict = expected["verdict"][args.workload]
    for call in calls:
        if call["ok"] and call["verdict"] != want_verdict:
            call.update(ok=False, error=f"verdict {call['verdict']!r}, expected {want_verdict!r}")
    failed = sum(1 for c in calls if not c["ok"])
    digests = {c.get("digest") for c in calls}
    # every call at one seed, traced or not, must write the same report
    reproducible = len(digests) == 1 and None not in digests
    pinned = expected["report_sha256"].get(str(args.seed), {}).get(args.workload)
    reference = pinned or calls[0].get("digest")
    digest_match = float(all(c.get("digest") == reference for c in calls))
    correct = failed == 0 and reproducible and None not in imports

    plain = [p for p in procs if not p["traced"] and "peak_rss_mb" in p]
    plain_calls = [c for p in plain for c in p["calls"] if "wall_s" in c]
    traced = [p for p in procs if p["traced"] and "layers" in p]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "attempted": len(calls),
        "failed": failed,
        "error_rate": failed / len(calls),
        "errors": sorted({c["error"] for c in calls if c.get("error")}),
        "reproducible": reproducible,
        "report_sha256": sorted(d for d in digests if d),
        "digest_reference": "pinned" if pinned else "first call (no pin for this seed)",
        "samples": {"setup_s": summarize([i for i in imports if i is not None] or [0.0])},
    }
    if plain_calls:
        info["samples"].update(
            wall_s=summarize([c["wall_s"] for c in plain_calls]),
            cpu_s=summarize([c["cpu_s"] for c in plain_calls]),
            peak_rss_mb=summarize([p["peak_rss_mb"] for p in plain]),
        )
    print(json.dumps(info), flush=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace == 0:
        values = {k: info["samples"][k]["median"] if k in info["samples"] else 0.0
                  for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        names = [m["name"] for m in bench["per_layer"]]
        per_run = [layer_metrics(p["layers"], p["calls"][0], names) for p in traced]
        values = {k: statistics.median(v[k] for v in per_run) for k in (per_run[0] if per_run else {})}
        traced_wall = statistics.median(p["calls"][0]["wall_s"] for p in traced) if traced else 0.0
        plain_wall = info["samples"]["wall_s"]["median"] if plain_calls else 0.0
        values["trace.traced_wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = plain_wall
        values["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
        values["harness.report_digest_match"] = digest_match
    metrics = {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names}
    missing = [n for n in names if n not in values]
    if missing:
        print(json.dumps({"error": f"metrics not produced: {missing}"}), flush=True)
        correct = False
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
