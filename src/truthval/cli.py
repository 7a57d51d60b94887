"""Command-line experiment runner.

Exit codes: 0 success, 1 configuration error, 2 input/data error,
3 numerical error. ``TRUTHVAL_THREADS`` sets the default worker count;
``--threads`` overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigurationError, InputError, NumericalError
from .experiment import ExperimentConfig, emit_report, render_report, run_experiment

THREADS_ENV = "TRUTHVAL_THREADS"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truthval",
        description=(
            "Run a data-valuation experiment described by a JSON config and "
            "emit per-source values and rewards."
        ),
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="json", help="report format"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker threads (default: ${THREADS_ENV} or 1)",
    )
    return parser


def _resolve_threads(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(THREADS_ENV)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigurationError(f"{THREADS_ENV}={env!r} is not an integer") from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {args.config} must be a JSON object")
        if args.seed is not None:
            raw["seed"] = args.seed
        threads = _resolve_threads(args.threads)
        if threads is not None:
            raw["threads"] = threads
        config = ExperimentConfig.from_dict(raw)
        report = run_experiment(config)
        if args.out is None:
            sys.stdout.write(render_report(report, args.format))
        else:
            emit_report(report, args.format, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
