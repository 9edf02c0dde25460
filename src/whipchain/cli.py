"""Command-line entry point.

    whipchain run <config-path> [--output-dir DIR] [--seed S] [--quiet]

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 property-suite
violations, 5 output error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, NumericError
from .harness import parse_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whipchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config", help="path to the experiment config file")
    runp.add_argument("--output-dir", default=None, help="override output.dir")
    runp.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    runp.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=Path(args.output_dir))
        if args.seed is not None:
            cfg = replace(cfg, seeds=(args.seed,))
        manifest = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 5
    if not args.quiet:
        term = f" termination={manifest.termination}" if manifest.termination else ""
        print(
            f"{cfg.kind}: status={manifest.status} violations={manifest.violations}{term} "
            f"-> {cfg.output_dir}"
        )
    return 4 if manifest.violations > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
