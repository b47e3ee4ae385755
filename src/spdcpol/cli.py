"""Command-line interface.

    spdcpol run <spec> [--out DIR] [--format csv|json] [--seed N]
    spdcpol bell-angles <spec> --state psi+|psi- [--out DIR] [--format csv|json]
    spdcpol materials list

``<spec>`` is a scenario file path or a preset name (fig2a, fig2b, fig2c,
fig3). Each command returns its text and ``main`` writes it to stdout once,
after the command's work: the tables of ``bell-angles`` without ``--out`` and
of ``materials list``, the ``wrote <path>`` lines of ``--out`` and, with
``--out``, the note of ``bell-angles``. ``--help`` is written the same way.
Without ``--out`` that note goes to stderr, as do the error lines and a usage
error with its usage; a stderr that cannot take a line drops it. Exit codes:
0 success, 2 configuration error (an unreadable scenario, an unwritable
``--out``, a usage error and a stdout that is closed, full or cannot encode
the output, the help's included), 3 any other spdcpol error, all of them
numerical.
"""

from __future__ import annotations

import argparse
import os
import sys

from .biphoton import BellState
from .errors import ConfigError, SpdcpolError
from .materials import builtin_materials
from .output import _serialize, write_table
from .scenario import PRESETS, list_bell_angles, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


class _ParserExit(Exception):
    """argparse's exit; its args: the status and the text it would write."""


class _Parser(argparse.ArgumentParser):
    """A parser that hands its help and usage errors to ``main``.

    argparse writes them itself and exits inside ``parse_args``; this one
    keeps the text and raises it with the status, so help goes out through
    ``main``'s one stdout write and a usage error through ``_err``.
    Subparsers are built of the same class.
    """

    _text = ""

    def _print_message(self, message, file=None):
        self._text += message or ""

    def exit(self, status=0, message=None):
        raise _ParserExit(status, self._text + (message or ""))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _err(text: str) -> None:
    """Write one line to stderr; a closed or full stderr drops it."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(f"{text}\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point a stream that failed at devnull, so exit flushes it quietly."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _write(table, args) -> str:
    try:
        path = write_table(table, args.out, fmt=args.format)
    except OSError as exc:
        raise ConfigError(f"cannot write '{exc.filename or args.out}': "
                          f"{exc.strerror or exc}")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"cannot write table '{table.name}' to "
                          f"'{args.out}': the name is not {exc.encoding}")
    return f"wrote {path}\n"


def _cmd_run(args) -> str:
    spec = load_scenario(args.spec, seed=args.seed)
    return "".join(_write(table, args) for table in run_scenario(spec))


def _cmd_bell_angles(args) -> str:
    spec = load_scenario(args.spec)
    table = list_bell_angles(spec, BellState(args.state))
    if args.out is None:
        if table.note:  # stdout stays a clean table
            _err(f"note: {table.note}")
        return _serialize(table, args.format)
    note = f"note: {table.note}\n" if table.note else ""
    return note + _write(table, args)


def _cmd_materials(args) -> str:
    lines = []
    for name, record in sorted(builtin_materials().items()):
        lo, hi = record.band
        lines.append(f"{name}: band {lo * 1e6:g}-{hi * 1e6:g} um\n")
        for kind, s in (("ordinary", record.ordinary),
                        ("extraordinary", record.extraordinary)):
            lines.append(f"  {kind + ':':<15}"
                         f"a={s.a:g} b={s.b:g} c={s.c:g} d={s.d:g}\n")
    return "".join(lines)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as stop:
        status, text = stop.args
        if status:  # a usage error: the usage and the error line
            _err(text.rstrip("\n"))
            return EXIT_CONFIG
        args = None  # --help: the help is the output
    try:
        if sys.stdout is None:  # closed before Python started
            raise ConfigError("cannot write to stdout: it is closed")
        if args is not None:
            text = {"run": _cmd_run, "bell-angles": _cmd_bell_angles,
                    "materials": _cmd_materials}[args.command](args)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:  # raised before any byte is written
            raise ConfigError(f"cannot write to stdout: {exc}")
        except OSError as exc:
            _to_devnull(sys.stdout)
            raise ConfigError(f"cannot write to stdout: {exc}")
        return EXIT_OK
    except ConfigError as exc:
        _err(f"config error: {exc}")
        return EXIT_CONFIG
    except SpdcpolError as exc:
        _err(f"numerical error: {exc}")
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
