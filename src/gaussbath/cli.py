"""Command-line entry point.

Subcommands: solve, sweep, modes, oracle, reproduce.  Exit codes: 0 on
success, 2 on configuration errors and unwritable output, 3 on numerical
failure (non-convergence or an unphysical amplitude).

Every flag of solve, sweep, modes and oracle sets one config key
(``scenario.CONFIG_KEYS``) and overrides that key of the ``--config`` file.
Flag values are passed on as text and parsed and checked exactly like config
lines: each problem with them, or with the file, is one ``config error:``
line on stderr and the exit code is 2.

Every subcommand comes down to a (command, config) pair: reproduce takes its
figure's pair, the others their own name and the loaded config.  One runner,
``scenario.run_command``, writes the files; main prints each written path and
lists any failed sweep points in ``<out>.failures`` (exit code 3).
"""

import argparse
import functools
import sys

from .gaussian import PhysicalityError
from .scenario import (
    CONFIG_KEYS,
    FIGURE_SPECS,
    FIGURES,
    ConfigError,
    parse_config,
    run_command,
)
from .volterra import ConvergenceError


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(prog="gaussbath")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("solve", "solve one scenario and write the trajectory CSV"),
        ("sweep", "run a parameter sweep (sweep=/sweep_values= from the config)"),
        ("modes", "sample y(E) outside the support and report bound modes"),
        ("oracle", "exact finite-lattice amplitude through the same CSV pipeline"),
        ("reproduce", "emit the data behind a published figure"),
    ):
        p = sub.add_parser(name, help=doc)
        if name == "reproduce":
            p.add_argument("--figure", choices=FIGURES, required=True)
        else:
            p.add_argument("--config", help="key=value config file")
            for key, (_, flag) in CONFIG_KEYS.items():
                if flag:
                    p.add_argument(flag, dest=key, help=f"overrides {key}= of the config")
        p.add_argument("--out", help="output CSV path (default: <command>.csv)")
    return parser


def _load_config(args):
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            message = f"cannot read config {args.config!r}: {exc.strerror or exc}"
            raise ConfigError([message]) from None
    overrides = {key: getattr(args, key) for key, (_, flag) in CONFIG_KEYS.items() if flag}
    return parse_config(text, overrides=overrides)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out = args.out or f"{args.command}.csv"
    try:
        if args.command == "reproduce":
            command, cfg = FIGURE_SPECS[args.figure]
        else:
            command, cfg = args.command, _load_config(args)
        written, failures = run_command(command, cfg, out)
        for path in written:
            print(path)
        if failures:
            with open(out + ".failures", "w", encoding="utf-8", newline="\n") as fh:
                for value, message in failures:
                    fh.write(f"{value!r}: {message}\n")
            for value, message in failures:
                print(f"sweep point {value!r} failed: {message}", file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every file read before the solve is a ConfigError, so this is a write
        print(f"cannot write output {exc.filename or out!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except PhysicalityError as exc:
        print(f"unphysical amplitude: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
