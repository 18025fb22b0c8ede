"""Regenerate expected.json: the verdict every workload must reach and the
sha256 of its canonical report at each pinned seed.

    python3 perfbench/pin.py 20260819 0 1 2 ...

Run from the root of a source checkout.  Writes nothing when any run fails or
does not reach verdict `pass`.  Re-pin only for a deliberate change of
floating-point order that re-passes every acceptance gate; the benchmark
then reports harness.report_digest_match = 0 until it is re-pinned.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, WORKER_TIMEOUT_S, spawn, worker_env
from worker import WORKLOADS


def main(seeds: list[int]) -> int:
    env = worker_env()
    pins: dict[str, dict[str, str]] = {}
    failures = 0
    for seed in seeds:
        for workload in WORKLOADS:
            out_dir = OUT / f"pin-{workload}-{seed}"
            proc = spawn(env, WORKER_TIMEOUT_S, "--workload", workload, "--seed", str(seed),
                         "--out", str(out_dir))
            shutil.rmtree(out_dir, ignore_errors=True)
            call = proc.get("calls", [proc])[0]
            if not call.get("ok") or call.get("verdict") != "pass":
                print(f"{workload} seed {seed}: {call.get('error') or call.get('verdict')}", file=sys.stderr)
                failures += 1
                continue
            pins.setdefault(str(seed), {})[workload] = call["digest"]
            print(f"{workload} seed {seed}: pass {call['digest']}", flush=True)
    if failures:
        print(f"{failures} run(s) failed; expected.json left unchanged", file=sys.stderr)
        return 1
    expected = {"verdict": {w: "pass" for w in WORKLOADS}, "report_sha256": pins}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main([int(s) for s in sys.argv[1:]]))
