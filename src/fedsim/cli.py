"""Command-line surface.

Subcommands: partition, run, resume, report, costs, scenarios.
Exit codes: 0 ok, 2 configuration error, 3 runtime error, 4 incomplete-log
report.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import asdict

from . import costs as costmod
from .config import load_config, parse_plan, save_config
from .errors import ConfigError, FedsimError, IncompleteLogError
from .metrics import (
    open_log_writer,
    render_comparison,
    render_report,
    report_from_log,
)
from .orchestrator import (
    checkpoint_resume,
    checkpoint_save,
    read_checkpoint,
    run,
    write_checkpoint,
)
from .partition import BUILTIN_PLAN_NAMES
from .scenarios import SCENARIOS, scenario_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INCOMPLETE = 4


def _cmd_partition(args) -> int:
    # A config's plan section; an option not given is null, which it leaves out.
    if args.plan == "overlap":
        plan = {"overlap": {"n_clients": args.clients, "window": args.window,
                            "per_partition_counts": []}}
    else:
        plan = {"builtin": args.plan}
    doc = parse_plan({**plan, "scale_divisor": args.scale_divisor}).to_json_dict()
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.config:
        cfg = load_config(args.config)
    elif args.scenario:
        cfg = scenario_config(args.scenario)
    else:
        raise ConfigError("run requires --config or --scenario")
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if cfg.strategy == "fedasync" and args.checkpoint:
        raise ConfigError("--checkpoint applies to sync runs only")
    sink, fh = open_log_writer(args.log)
    with closing(fh):
        result = run(cfg, sink, args.stop_after_round)
    if args.checkpoint:
        write_checkpoint(checkpoint_save(result, cfg), args.checkpoint)
    print(f"run {result.run_id}: final accuracy {result.final_accuracy:.4f}")
    return EXIT_OK


def _cmd_resume(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    cp = read_checkpoint(args.checkpoint)
    sink, fh = open_log_writer(args.log)
    with closing(fh):
        result = checkpoint_resume(cp, cfg, sink)
    print(f"run {result.run_id}: final accuracy {result.final_accuracy:.4f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    reports = [report_from_log(path) for path in args.logs]
    if len(reports) == 1:
        sys.stdout.write(render_report(reports[0], args.format))
    else:
        sys.stdout.write(render_comparison(reports, args.format))
    return EXIT_OK if all(r.complete for r in reports) else EXIT_INCOMPLETE


def _cmd_costs(args) -> int:
    cal = costmod.load_calibration(args.calibration)
    if args.validate:
        problems = costmod.validate_calibration(cal)
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            return EXIT_RUNTIME
        print("calibration tables pass all monotonicity checks")
        return EXIT_OK
    if args.arch is None or args.res is None or args.batch is None:
        raise ConfigError("costs query requires --arch, --res and --batch")
    entry = costmod.lookup(
        cal.profile(args.arch), args.res, args.batch,
        allow_extrapolation=args.allow_extrapolation,
    )
    print(json.dumps({"architecture": args.arch, **asdict(entry)}, indent=2))
    return EXIT_OK


def _cmd_scenarios(args) -> int:
    if args.emit:
        cfg = scenario_config(args.emit)
        if args.out:
            save_config(cfg, args.out)
        else:
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    for name, (_, desc) in sorted(SCENARIOS.items()):
        print(f"{name:24s} {desc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning deployment simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="materialize a partition plan file")
    p.add_argument("--plan", required=True,
                   choices=list(BUILTIN_PLAN_NAMES) + ["overlap"])
    p.add_argument("--clients", type=int, help="overlap: number of clients")
    p.add_argument("--window", type=int, help="overlap: shards per client")
    p.add_argument("--scale-divisor", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config")
    p.add_argument("--scenario", choices=sorted(SCENARIOS))
    p.add_argument("--seed", type=int)
    p.add_argument("--log", default="metrics.jsonl")
    p.add_argument("--checkpoint", help="sync runs: write a checkpoint at the end of the run")
    p.add_argument("--stop-after-round", type=int,
                   help="sync runs: stop early (pairs with --checkpoint)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("resume", help="continue a sync run from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--log", default="metrics.jsonl")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("report", help="render a report from metrics logs")
    p.add_argument("logs", nargs="+")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("costs", help="query or validate the calibration tables")
    p.add_argument("--arch", choices=costmod.ARCHITECTURES)
    p.add_argument("--res", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--calibration", help="override calibration JSON file")
    p.add_argument("--allow-extrapolation", action="store_true")
    p.add_argument("--validate", action="store_true")
    p.set_defaults(func=_cmd_costs)

    p = sub.add_parser("scenarios", help="list or emit built-in scenarios")
    p.add_argument("--emit", choices=sorted(SCENARIOS))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompleteLogError as exc:
        print(f"incomplete log: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (FedsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
