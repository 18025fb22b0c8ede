"""Run the full verification battery through the command-line interface.

Writes one report (plus runtime sidecar and CSV series) per experiment
into the output directory and prints each verdict. The default scale
matches the documented gates and takes tens of minutes; --quick shrinks
every run to the smoke scale of `gibbsdyn selftest` (`cli.SMOKE`, about
1 min total) for a wiring check.

    python3 scripts/run_experiments.py --out results/
    python3 scripts/run_experiments.py --out smoke/ --quick
"""

import argparse
import sys

from gibbsdyn.cli import SMOKE, combined_exit_code
from gibbsdyn.cli import main as cli_main

EXPERIMENTS = list(SMOKE)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="report directory")
    ap.add_argument("--seed", type=int, default=None, help="master seed")
    ap.add_argument("--quick", action="store_true", help="smoke scale")
    ap.add_argument(
        "--only", nargs="*", choices=EXPERIMENTS, default=None,
        help="subset of experiments to run",
    )
    args = ap.parse_args(argv)

    codes = []
    for name in args.only or EXPERIMENTS:
        cli_argv = [name, "--out", args.out]
        if args.seed is not None:
            cli_argv += ["--seed", str(args.seed)]
        if args.quick:
            for kv in SMOKE[name]:
                cli_argv += ["--set", kv]
        print(f"== {name} ==", flush=True)
        code = cli_main(cli_argv)
        print(f"   exit {code}", flush=True)
        codes.append(code)
        if code == 64:
            break
    return combined_exit_code(codes)


if __name__ == "__main__":
    sys.exit(main())
