"""Command-line entry point.

Subcommands: generate (synthetic CSV), bench (full comparison), predict
(single query), rules (dump fuzzy rule bases). The global seed resolves as
--seed, then the config's [run] seed, then the COSTLAB_SEED environment
variable, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    BenchConfig,
    build_rule_base,
    load_config,
    predict_one,
    render,
    run_bench,
    write_outputs,
)
from .data import FeatureVector, save_csv, synthesize
from .errors import ConfigError, CostLabError
from .fuzzy import save_rules
from .metrics import categorize


def _resolve_seed(args_seed: int | None, cfg_seed: int | None) -> int:
    if args_seed is not None:
        return args_seed
    if cfg_seed is not None:
        return cfg_seed
    env = os.environ.get("COSTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"COSTLAB_SEED must be an integer, got {env!r}")
    return 0


def _load(args) -> BenchConfig:
    if args.config is None:
        return BenchConfig()
    return load_config(args.config)


def _cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed, None)
    dataset = synthesize(args.n, seed=seed, noise_pct=args.noise_pct)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args.seed, cfg.seed)
    result = run_bench(cfg, seed)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(render(result, args.format), end="")
    if args.out is not None:
        for path in write_outputs(result, args.out, args.format):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args.seed, cfg.seed)
    features = FeatureVector(args.p1, args.p2, args.p3, args.p4)
    result = predict_one(cfg, seed, args.model, features)
    print(f"model: {args.model}")
    print(f"predicted cost: {result.cost:.2f}")
    print(
        f"test accuracy context: MAPE {result.report.mape_pct:.3f}% "
        f"({categorize(result.report.mape_pct).label}), "
        f"R2 {result.report.r2:.3f}, adjusted R2 {result.report.adj_r2:.3f}"
    )
    for line in result.trace:
        print(line)
    return 0


def _cmd_rules(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args.seed, cfg.seed)
    rule_base = build_rule_base(cfg, seed, evolved=args.evolved)
    save_rules(rule_base, args.out)
    print(f"wrote {len(rule_base.rules)} rules to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costlab",
        description="Project-cost model zoo: synthesize data, benchmark, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic project CSV")
    gen.add_argument("--n", type=int, default=BenchConfig.n)
    gen.add_argument("--noise-pct", type=float, default=BenchConfig.noise_pct)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="fit all enabled models and print the leaderboard")
    bench.add_argument("--config", default=None, help="benchmark config file")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--out", default=None, help="directory for leaderboard and dumps")
    bench.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    bench.set_defaults(func=_cmd_bench)

    pred = sub.add_parser("predict", help="predict one project's cost with one model")
    pred.add_argument("--config", default=None)
    pred.add_argument("--seed", type=int, default=None)
    pred.add_argument("--model", required=True)
    pred.add_argument("--p1", type=float, required=True, help="area served")
    pred.add_argument("--p2", type=float, required=True, help="pipeline length (m)")
    pred.add_argument("--p3", type=float, required=True, help="irrigation valves")
    pred.add_argument("--p4", type=float, required=True, help="construction year")
    pred.set_defaults(func=_cmd_predict)

    rules = sub.add_parser("rules", help="derive or evolve a fuzzy rule base and save it")
    rules.add_argument("--config", default=None)
    rules.add_argument("--seed", type=int, default=None)
    rules.add_argument("--out", required=True, help="output rule file path")
    rules.add_argument("--evolved", action="store_true", help="use the GA instead of data voting")
    rules.set_defaults(func=_cmd_rules)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CostLabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: VALUE_ERROR: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an --out path whose directory does not exist
        print(f"error: OS_ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
