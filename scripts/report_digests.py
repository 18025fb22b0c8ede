"""Print a digest of every output the CLI subcommands write.

Runs each subcommand at its CLI defaults, or the --only subset, into its own
folder of a temporary directory, and prints one `sha256  <subcommand>/<file>`
line per file it wrote, then `exit <code>  <subcommand>`.  The runtime
sidecars (`*_runtime.json`) hold wall-clock times, so they are skipped.  Two
checkouts that compute the same outputs print the same lines, so a change
that must keep every report byte-identical is checked with diff:

    PYTHONPATH=src python3 scripts/report_digests.py > after.txt
    PYTHONPATH=src python3 scripts/report_digests.py --only simulate \\
        --set simulate.dump_noise=true > after_simulate.txt

Every --set override goes to every subcommand run.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from gibbsdyn.cli import COMMANDS
from gibbsdyn.cli import main as cli_main

SUBCOMMANDS = list(COMMANDS)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--only", nargs="*", choices=SUBCOMMANDS, default=None,
        help="subset of subcommands to run",
    )
    ap.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="config override passed to every subcommand; repeatable",
    )
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        for name in args.only or SUBCOMMANDS:
            out = Path(tmp) / name
            cli_argv = [name, "--out", str(out)]
            for item in args.overrides:
                cli_argv += ["--set", item]
            # the gate lines carry no byte the reports do not
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(cli_argv)
            for path in sorted(out.rglob("*")):
                if path.is_file() and not path.name.endswith("_runtime.json"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {path.relative_to(tmp).as_posix()}")
            print(f"exit {code}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
