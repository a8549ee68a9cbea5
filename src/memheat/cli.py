"""Command-line entry point.

Subcommands map one-to-one onto the functions in `experiments`; every run
reads an optional JSON config, which alone sets the run, computes the
command's files, and only then writes them, after the resolved config echo,
into the output directory. Exit codes: 0 success, 2 configuration
error (a bad `--out` included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_from_dict, load_config
from .errors import ConfigError, NumericalError
from .experiments import (
    cmd_biorth,
    cmd_control,
    cmd_moment,
    cmd_resolvent,
    cmd_simulate,
)
from .output import write_outputs

COMMANDS = {
    "resolvent": (cmd_resolvent, "tabulate the memory kernel's resolvent"),
    "simulate": (cmd_simulate, "solve the modal dynamics on both routes"),
    "moment": (cmd_moment, "assemble the end-state constraint family"),
    "biorth": (cmd_biorth, "minimal biorthogonal norms and their growth"),
    "control": (cmd_control, "minimal-norm control sweep, memory vs none"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memheat",
        description="boundary control experiments for heat flow with memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument(
            "--out", type=Path, default=Path("out"), help="output directory"
        )
        if name == "simulate":
            p.add_argument(
                "--refine",
                action="store_true",
                help="also emit a grid-refinement table",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else config_from_dict({})
        runner = COMMANDS[args.command][0]
        options = {"refine": args.refine} if args.command == "simulate" else {}
        files = runner(config, **options)
        write_outputs(args.out, {"config_echo.json": config.echo(), **files})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
