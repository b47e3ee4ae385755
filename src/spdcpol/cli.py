"""Command-line interface.

    spdcpol run <spec> [--out DIR] [--format csv|json] [--seed N]
    spdcpol bell-angles <spec> --state psi+|psi- [--out DIR] [--format csv|json]
    spdcpol materials list

``<spec>`` is a scenario file path or a preset name (fig2a, fig2b, fig2c,
fig3). ``bell-angles`` without ``--out`` prints the table to stdout in the
chosen format and any note to stderr. Exit codes: 0 success, 2 configuration
error (an unreadable scenario or an unwritable ``--out`` included),
3 any other spdcpol error, all of them numerical.
"""

from __future__ import annotations

import argparse
import sys

from .biphoton import BellState
from .errors import ConfigError, SpdcpolError
from .materials import builtin_materials
from .output import _serialize, write_table
from .scenario import PRESETS, list_bell_angles, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcpol",
        description="Type-II collinear SPDC polarization-entanglement "
                    "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit its tables")
    run.add_argument("spec", help=f"scenario file or preset "
                                  f"({', '.join(PRESETS)})")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")

    bell = sub.add_parser("bell-angles",
                          help="list the angles where Bell states appear")
    bell.add_argument("spec", help="scenario file or preset")
    bell.add_argument("--state", choices=("psi+", "psi-"), required=True)
    bell.add_argument("--out", default=None,
                      help="write the table here instead of stdout")
    bell.add_argument("--format", choices=("csv", "json"), default="csv")

    materials = sub.add_parser("materials", help="material catalogue")
    materials.add_argument("action", choices=("list",))
    return parser


def _write(table, args) -> None:
    try:
        path = write_table(table, args.out, fmt=args.format)
    except OSError as exc:
        raise ConfigError(f"cannot write '{exc.filename or args.out}': "
                          f"{exc.strerror or exc}")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"cannot write table '{table.name}' to "
                          f"'{args.out}': the name is not {exc.encoding}")
    print(f"wrote {path}")


def _cmd_run(args) -> int:
    spec = load_scenario(args.spec, seed=args.seed)
    for table in run_scenario(spec):
        _write(table, args)
    return EXIT_OK


def _cmd_bell_angles(args) -> int:
    spec = load_scenario(args.spec)
    table = list_bell_angles(spec, BellState(args.state))
    if table.note:
        # stdout stays a clean table when the table itself goes there
        print(f"note: {table.note}",
              file=sys.stderr if args.out is None else sys.stdout)
    if args.out is None:
        sys.stdout.write(_serialize(table, args.format))
    else:
        _write(table, args)
    return EXIT_OK


def _cmd_materials(args) -> int:
    for name, record in sorted(builtin_materials().items()):
        lo, hi = record.band
        print(f"{name}: band {lo * 1e6:g}-{hi * 1e6:g} um")
        for kind, s in (("ordinary", record.ordinary),
                        ("extraordinary", record.extraordinary)):
            print(f"  {kind + ':':<15}a={s.a:g} b={s.b:g} c={s.c:g} d={s.d:g}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bell-angles":
            return _cmd_bell_angles(args)
        return _cmd_materials(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpdcpolError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
