"""Command-line entry point: one subcommand per pipeline stage."""

import argparse
import sys

from .config import echo_config, validate_config
from .errors import ConfigInvalid, MissingArtifact, RiskforgeError
from .pipeline import STAGES, run_stage


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riskforge",
        description="Multimodal ICU mortality-risk pipeline over CSV tables")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--out", default=None, help="override output directory")
        sp.add_argument("--seed", type=int, default=None, help="override root seed")
        sp.add_argument("--echo-config", action="store_true",
                        help="print the normalized configuration and continue")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.out is not None:
            # synth produces the pipeline's input tables, so its --out names
            # the data directory the later stages read from
            overrides["data_dir" if args.stage == "synth" else "out_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = validate_config(args.config, overrides)
        if args.echo_config:
            sys.stdout.write(echo_config(cfg))
        artifacts = run_stage(args.stage, cfg)
    except ConfigInvalid as exc:
        print(f"riskforge: config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifact as exc:
        print(f"riskforge: {exc} (run the earlier stage first)", file=sys.stderr)
        return 3
    except RiskforgeError as exc:
        print(f"riskforge: {exc}", file=sys.stderr)
        return 1
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
