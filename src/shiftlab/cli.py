"""Command-line entry point."""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Robust training, continual learning and attack-evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "generate and save a synthetic dataset"),
        ("train", "train a model with the configured method"),
        ("continual", "run a sequential-task training experiment"),
        ("attack", "perturb inputs of a trained bag-of-embeddings classifier"),
        ("sweep", "run a hyperparameter grid and select the best point"),
        ("report", "summarize metrics across finished runs"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name == "report":
            cmd.add_argument("--runs", nargs="+", required=True,
                             help="run directories to summarize")
        else:
            cmd.add_argument("--config", required=True, help="key=value config file")
            cmd.add_argument("--set", action="append", default=[], dest="overrides",
                             metavar="KEY=VALUE", help="override a config key")
            cmd.add_argument("--seed", type=int, default=0)
        if name == "attack":
            cmd.add_argument("--model", metavar="PATH",
                             help="attack this saved model.bin instead of training one")
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            harness.cmd_report(args.runs, args.out)
            return 0
        cfg = harness.parse_config(args.config)
        cfg = harness.apply_overrides(cfg, args.overrides)
        if args.command == "attack" and args.model is not None:
            harness.cmd_attack(cfg, args.seed, args.out, harness.load_model_bin(args.model))
            return 0
        command = {
            "gen-data": harness.cmd_gen_data,
            "train": harness.cmd_train,
            "continual": harness.cmd_continual,
            "attack": harness.cmd_attack,
            "sweep": harness.cmd_sweep,
        }[args.command]
        command(cfg, args.seed, args.out)
        return 0
    except (OSError, ValueError) as err:
        print(f"shiftlab: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
