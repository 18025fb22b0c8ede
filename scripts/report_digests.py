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

or in one command against a saved list, with --check:

    PYTHONPATH=src python3 scripts/report_digests.py > before.txt   # in one checkout
    PYTHONPATH=src python3 scripts/report_digests.py --check before.txt   # in the other

--check compares the lines of the subcommands it runs with the saved ones,
names each output that differs, is missing or is new, and exits 1 on any
mismatch.  Every --set override goes to every subcommand run.
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
    ap.add_argument(
        "--check", type=Path, metavar="FILE",
        help="compare with the lines saved in FILE; exit 1 on any mismatch",
    )
    args = ap.parse_args(argv)

    names = args.only or SUBCOMMANDS
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
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
                    lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
                    print(lines[-1])
            lines.append(f"exit {code}  {name}")
            print(lines[-1], flush=True)
    if args.check is None:
        return 0
    return check(lines, args.check.read_text().splitlines(), names)


def check(lines: list[str], saved: list[str], names: list[str]) -> int:
    """Print a line for each output of the run subcommands whose digest or
    exit code differs from the saved one, or that only one side has; return
    1 when any does, 0 otherwise."""

    def by_output(rows):
        # "<digest>  <subcommand>/<file>" or "exit <code>  <subcommand>"
        pairs = (row.split("  ", 1) for row in rows if row)
        return {key: value for value, key in pairs if key.split("/")[0] in names}

    got, want = by_output(lines), by_output(saved)
    bad = 0
    for key in sorted(got.keys() | want.keys()):
        if key not in want:
            print(f"new      {key}")
        elif key not in got:
            print(f"missing  {key}")
        elif got[key] != want[key]:
            print(f"differs  {key}: {want[key]} -> {got[key]}")
        else:
            continue
        bad += 1
    print(f"{bad} of {len(got.keys() | want.keys())} outputs differ" if bad else f"all {len(got)} outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
