"""Command-line entry points: synth, pipeline, report."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig
from .forecaster import ABLATIONS
from .panel import write_panel_csv
from .pipeline import (BadReport, MissingArtifact, PipelineStageError, format_report,
                       run_pipeline)
from .synthetic import generate_synthetic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrfactors",
        description="Irrationality-factor learning, return forecasting, and "
                    "long-short backtesting on market panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic market panel CSV")
    synth.add_argument("--config", required=True, help="run configuration file")
    synth.add_argument("--seed", type=int, default=None, help="override the config seed")
    synth.add_argument("--out", required=True, help="output CSV path")

    pipe = sub.add_parser("pipeline", help="run factor learning, forecasting and backtest")
    pipe.add_argument("--config", required=True, help="run configuration file")
    pipe.add_argument("--seed", type=int, default=None, help="override the config seed")
    pipe.add_argument("--out", default=None, help="run directory (default: config out_dir)")
    pipe.add_argument("--ablation", choices=ABLATIONS,
                      default=None, help="override the config ablation variant")

    rep = sub.add_parser("report", help="print the metric block of a finished run")
    rep.add_argument("run_dir", help="run directory produced by the pipeline command")
    return parser


def _cmd_synth(args) -> int:
    cfg = RunConfig.from_file(args.config).with_overrides(seed=args.seed)
    panel = generate_synthetic(cfg.synthetic_spec())
    write_panel_csv(panel, args.out, header_comment=cfg.stamp())
    print(f"wrote {panel.n_stocks} stocks x {panel.n_periods} periods to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = RunConfig.from_file(args.config).with_overrides(
        seed=args.seed, out_dir=args.out, ablation=args.ablation)
    run_pipeline(cfg)
    print(format_report(cfg["out_dir"]))
    return 0


def _cmd_report(args) -> int:
    print(format_report(args.run_dir))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "pipeline": _cmd_pipeline, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (PipelineStageError, ConfigError, MissingArtifact, BadReport, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
