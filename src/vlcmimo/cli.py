"""Command-line experiment runner.

Subcommands map to the experiment recipes; exit codes: 0 success, 2 config
error, 3 numerical error (singular channel), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .channel import GeometryError
from .config import PRESET_NAMES, ConfigError, load_config, preset
from .precoding import SingularChannelError
from .runner import (run_ber_sweep, run_channel_map, run_mobility,
                     run_throughput_sweep)

_COMMANDS = {
    "channel-map": run_channel_map,
    "ber-sweep": run_ber_sweep,
    "throughput-sweep": run_throughput_sweep,
    "mobility": run_mobility,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcmimo",
        description="Indoor MIMO visible-light link simulator: channel maps, "
                    "error-rate and throughput sweeps, mobility studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["validate"]:
        sp = sub.add_parser(name)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a YAML or JSON experiment config")
        src.add_argument("--preset", choices=PRESET_NAMES,
                         help="named experiment setup")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker cap for parallel sweeps (default: all CPUs; 1 runs serially)")
        sp.add_argument("--symbols", type=int, default=None,
                        help="override the Monte Carlo symbol count")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _load(args):
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    cfg = load_config(args.config) if args.config else preset(args.preset)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.symbols is not None:
        mc = dataclasses.replace(cfg.montecarlo, n_symbols=args.symbols)
        cfg = dataclasses.replace(cfg, montecarlo=mc)
    return cfg.validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "validate":
            print(json.dumps({"config_hash": cfg.config_hash(),
                              "resolved_config": cfg.resolved()},
                             indent=2, sort_keys=True))
            return 0
        runner = _COMMANDS[args.command]
        if args.command in ("ber-sweep", "throughput-sweep", "mobility"):
            paths = runner(cfg, args.out, threads=args.threads,
                           progress=not args.quiet)
        else:
            paths = runner(cfg, args.out, progress=not args.quiet)
        for p in paths:
            print(p)
        return 0
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularChannelError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
