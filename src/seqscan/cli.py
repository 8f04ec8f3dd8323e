"""Command-line front end.

Subcommands: run a config file, validate one, run a bundled figure
recipe, or print the cost floor of each sweep point of a config with a
forced truth.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from seqscan.engine import lower_bound_oracle
from seqscan.harness import (
    FIGURE_NAMES,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_per_episode_csv,
    figure_config,
    parse_config,
    run_experiment,
    validate_config,
)

SEED_ENV = "SEQSCAN_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqscan",
        description="Monte Carlo studies of sequential anomaly search under a probe budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--episodes", type=int, default=None, help="episode count override")
        p.add_argument("--out", type=Path, default=None, help="CSV output path")
        p.add_argument(
            "--scale",
            type=int,
            default=1,
            help="divide K values and episode counts by this factor",
        )
        p.add_argument(
            "--per-episode",
            action="store_true",
            help="also write per-episode records next to the summary CSV",
        )

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    add_run_flags(p_run)

    p_val = sub.add_parser("validate", help="check a config file without running it")
    p_val.add_argument("config", type=Path)

    p_fig = sub.add_parser("figures", help="run a bundled study recipe")
    p_fig.add_argument("figure", choices=FIGURE_NAMES)
    add_run_flags(p_fig)

    p_bound = sub.add_parser(
        "bound", help="print the cost floor of each sweep point of a config with explicit processes and truth"
    )
    p_bound.add_argument("config", type=Path)

    return parser


def _read_config(path: Path) -> ExperimentConfig:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return None


def _execute(cfg: ExperimentConfig, args, default_stem: str) -> int:
    out = args.out if args.out is not None else Path(f"{default_stem}.csv")
    # checked before the run, which may take minutes; the per-episode file shares the parent
    if out.is_dir():
        raise ConfigError(f"cannot write CSV to {out}: it is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"cannot write CSV to {out}: {out.parent} is not a directory")
    episodes_out = out.with_name(out.stem + "_episodes" + out.suffix)
    if args.per_episode and episodes_out.is_dir():
        raise ConfigError(f"cannot write CSV to {episodes_out}: it is a directory")
    summaries = run_experiment(
        cfg,
        scale=args.scale,
        episodes_override=args.episodes,
        seed_override=_resolve_seed(args),
        per_episode=args.per_episode,
    )
    failures = [s for s in summaries if s.error is not None]
    for s in failures:
        print(
            f"seqscan: sweep point {s.sweep_value} ({s.policy}) failed: {s.error}",
            file=sys.stderr,
        )
    emit_csv(summaries, out)
    if args.per_episode:
        emit_per_episode_csv(summaries, episodes_out)
        print(f"wrote {out} and {episodes_out} ({len(summaries)} batches)")
    else:
        print(f"wrote {out} ({len(summaries)} batches)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _read_config(args.config)
            return _execute(cfg, args, default_stem=cfg.name)
        if args.command == "validate":
            validate_config(_read_config(args.config))
            print("ok")
            return 0
        if args.command == "figures":
            cfg = figure_config(args.figure)
            return _execute(cfg, args, default_stem=args.figure)
        if args.command == "bound":
            cfg = _read_config(args.config)
            point_sets = validate_config(cfg)
            if cfg.processes is None or cfg.truth is None:
                raise ConfigError("bound needs explicit processes and a truth vector")
            grid = next((pid for pid, spec in enumerate(cfg.processes, start=1) if spec.is_composite), None)
            if grid is not None:  # a config cannot name the grid point drawn as its truth
                raise ConfigError(f"process {grid} is a parameter grid: its floor needs its realized grid point")
            floors = []  # one per sweep point, in sweep order, all before any is printed
            for v, specs in zip(cfg.sweep_values, point_sets):
                try:
                    floors.append(f"{lower_bound_oracle(specs, cfg.truth, m=cfg.m):.10g}")
                except ValueError as exc:  # such as unequal costs at m > 1
                    raise ConfigError(f"sweep point {v}: {exc}") from exc
            print("\n".join(floors))
            return 0
    except ConfigError as exc:
        print(f"seqscan: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"seqscan: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
