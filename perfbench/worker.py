"""One benchmark process: time a fresh import of gibbsdyn.cli, call one
workload through `gibbsdyn.cli.main`, check each report, print one JSON line.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py --workload W --seed S --out DIR [--seconds T] [--min-calls N]
    python3 perfbench/worker.py --workload W --seed S --out DIR --spans FILE

Without --seconds the workload is called once.  With --spans the layer tracer
(layertrace.py) is installed first, its per-layer summary is added to the
JSON line and every span is written to FILE at the end.  run.py starts this
script with the environment it builds; run by hand it needs `src` on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> CLI arguments (seed and output directory are appended)
WORKLOADS = {
    "ensemble_wide": [
        "invariance", "--threads", "2", "--set", "grid.M=66", "--set", "flow.N=16",
        "--set", "gibbs.N=16", "--set", "flow.T=0.25", "--set", "experiment.ensemble_size=8192",
    ],
    "trajectory_long": [
        "ergodicity", "--set", "flow.T=400", "--set", "flow.h=0.02",
        "--set", "experiment.ensemble_size=4096", "--set", "experiment.ess_floor=64",
        "--set", "experiment.rel_tolerance=0.25",
    ],
    "trajectory_recorded": ["coupling", "--set", "flow.T=200"],
}


def _nonfinite(value) -> int:
    """Count the non-finite numbers a canonical report encodes as {"nonfinite": ...}."""
    if isinstance(value, dict):
        if set(value) == {"nonfinite"}:
            return 1
        return sum(_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return sum(_nonfinite(v) for v in value)
    return 0


def call_once(cli, argv: list[str], out: Path) -> dict:
    """One timed `cli.main` call and the check of the report it writes."""
    call: dict = {"ok": False}
    report_path = out / f"{argv[0]}_report.json"
    report_path.unlink(missing_ok=True)
    cli_stdout = io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(cli_stdout):
            code = cli.main(argv)
    except Exception as e:  # a crashing call is a failed call, not a crashed benchmark
        call["error"] = "".join(traceback.format_exception_only(e)).strip()
        return call
    finally:
        call["wall_s"] = time.perf_counter() - wall0
        call["cpu_s"] = time.process_time() - cpu0
    if code != 0 or not report_path.is_file():
        call["error"] = f"exit code {code}; stdout tail: {cli_stdout.getvalue()[-400:]!r}"
        return call
    raw = report_path.read_bytes()
    report = json.loads(raw)
    call["digest"] = hashlib.sha256(raw).hexdigest()
    call["verdict"] = report["verdict"]
    call["gates_failed"] = sum(1 for g in report["gates"] if not g["passed"])
    nonfinite = _nonfinite(report["stats"]) + _nonfinite(report["gates"])
    if nonfinite:
        call["error"] = f"{nonfinite} non-finite statistic(s) in the report"
    else:
        call["ok"] = True
    return call


def run_workload(workload: str, seed: int, out: Path, seconds: float, min_calls: int,
                 spans: Path | None) -> dict:
    """Call the workload at least min_calls times, and more while the next
    call is expected to end within `seconds`; trace the calls when `spans` is set."""
    import gibbsdyn.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"gibbsdyn imported from {cli.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if spans is not None:
        from layertrace import LAYERS, Tracer  # next to this script

        tracer = Tracer()
        tracer.install()

    argv = WORKLOADS[workload] + ["--seed", str(seed), "--out", str(out)]
    calls: list[dict] = []
    started = time.perf_counter()
    while True:
        calls.append(call_once(cli, argv, out))
        if not calls[-1]["ok"]:
            break
        longest = max(c["wall_s"] for c in calls)
        if len(calls) >= min_calls and time.perf_counter() - started + longest > seconds:
            break
    result = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summary = tracer.summary()
        missing = sorted(n for n, on in LAYERS.items() if workload in on and summary[n]["calls"] == 0)
        if missing and calls[-1]["ok"]:
            calls[-1].update(ok=False, error=f"traced layer(s) never called on {workload}: {', '.join(missing)}")
        result["layers"] = summary
        tracer.write_spans(spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import gibbsdyn.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if args.import_only:
        result = {"import_s": import_s}
    else:
        if args.workload is None or args.seed is None or args.out is None:
            parser.error("--workload, --seed and --out are required")
        args.out.mkdir(parents=True, exist_ok=True)
        result = run_workload(args.workload, args.seed, args.out, args.seconds, args.min_calls,
                              args.spans)
        result["import_s"] = import_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
