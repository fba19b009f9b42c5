"""Command-line entry point: ``qcs run`` and ``qcs validate``.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, QcsError
from .harness import load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("--config", required=True, help="path to the experiment config")
    val.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            out_override=getattr(args, "out", None),
        )
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: experiment={cfg.experiment} seed={cfg.seed}")
        return 0
    try:
        manifest = run_experiment(cfg)
    except (QcsError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(f"experiment={manifest.experiment} seed={manifest.seed}")
    for name, digest in manifest.outputs.items():
        print(f"  {cfg.output_dir}/{name}  sha256={digest[:16]}")
    print(f"wall_time_s={manifest.wall_time_s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
