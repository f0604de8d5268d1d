"""Command-line entry points: run one scenario, sweep a parameter, or compare
schemes on the same scenario and seed.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ecsim.config import ConfigError, from_dict, parse_config
from ecsim.engine import run_simulation
from ecsim.report import compare, compare_csv, trace_csv
from ecsim.schemes import SCHEMES


def _write_outputs(outdir: Path, report, trace_rows, quiet: bool) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "timeseries.csv").write_text(report.timeseries_csv())
    if trace_rows is not None:
        (outdir / "trace.csv").write_text(trace_csv(trace_rows))
    if not quiet:
        net = report.network
        print(
            f"[{report.meta['scheme']}] seed={report.meta['seed']} "
            f"delivery={net['delivery_ratio']:.3f} "
            f"mean_consumption={net['mean_per_device_consumption_j']:.3f} J "
            f"-> {outdir / 'report.json'}"
        )


def _with_scheme(config_dict: dict, scheme_kind: str | None) -> dict:
    """A copy of ``config_dict`` that runs ``scheme_kind``. The scenario's own
    scheme keeps its parameters; any other kind runs with its defaults."""
    raw = copy.deepcopy(config_dict)
    if scheme_kind is not None and raw["scheme"]["kind"] != scheme_kind:
        raw["scheme"] = {"kind": scheme_kind}
    return raw


def _run_worker(args: tuple) -> str:
    """Run one (config, seed) and write its outputs; used by sweep workers."""
    config, seed, outdir, trace, quiet = args
    report, trace_rows = run_simulation(config, seed, collect_trace=trace)
    _write_outputs(Path(outdir), report, trace_rows, quiet)
    return outdir


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.scheme:
        config = from_dict(_with_scheme(config.to_dict(), args.scheme))
    report, trace_rows = run_simulation(config, args.seed, collect_trace=args.trace)
    _write_outputs(Path(args.out), report, trace_rows, args.quiet)
    return 0


def _set_by_path(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    target = raw
    for part in parts[:-1]:
        if part not in target or not isinstance(target[part], dict):
            target[part] = {}
        target = target[part]
    target[parts[-1]] = value


def _parse_list(option: str, text: str, parse) -> list:
    """Parse each comma-separated item of an option; a bad one is a config error."""
    items = []
    for item in text.split(","):
        try:
            items.append(parse(item))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise ConfigError([f"{option}: {item!r}: {exc}"]) from None
    return items


def cmd_sweep(args: argparse.Namespace) -> int:
    base = parse_config(args.config)
    raw = base.to_dict()
    values = _parse_list("--values", args.values, json.loads)
    seeds = _parse_list("--seeds", args.seeds, int)
    jobs = {}  # output directory -> job
    for value in values:
        for seed in seeds:
            run_raw = _with_scheme(raw, args.scheme)
            _set_by_path(run_raw, args.param, value)
            config = from_dict(run_raw)  # every point parses before any run starts
            point = f"{args.param.replace('.', '_')}={value}"
            outdir = str(Path(args.out) / point / f"seed={seed}")
            if outdir in jobs:
                raise ConfigError([f"--values/--seeds: two points write {point}/seed={seed}"])
            jobs[outdir] = (config, seed, outdir, args.trace, args.quiet)
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        list(pool.map(_run_worker, jobs.values()))
    if not args.quiet:
        print(f"sweep complete: {len(jobs)} runs under {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = parse_config(args.config)
    raw = base.to_dict()
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if len(schemes) < 2:
        raise ConfigError(["compare needs at least two schemes"])
    repeated = sorted({s for s in schemes if schemes.count(s) > 1})
    if repeated:
        raise ConfigError([f"--schemes: {', '.join(repeated)} listed more than once"])
    # Every kind parses before the first run writes anything.
    configs = [from_dict(_with_scheme(raw, scheme)) for scheme in schemes]
    outdir = Path(args.out)
    reports = []
    for scheme, config in zip(schemes, configs):
        report, trace_rows = run_simulation(config, args.seed, collect_trace=args.trace)
        _write_outputs(outdir / scheme, report, trace_rows, args.quiet)
        reports.append((scheme, report))
    rows = compare(reports)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "compare.csv").write_text(compare_csv(rows))
    if not args.quiet:
        print(f"comparison table -> {outdir / 'compare.csv'}")
    return 0


SCHEME_HELP = "the scenario's own kind keeps its parameters; another runs with its defaults"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsim",
        description="Deterministic simulator for traffic-aware duty-cycle energy conservation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario with one seed")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--scheme", choices=tuple(SCHEMES), help=SCHEME_HELP)
    run_p.add_argument("--trace", action="store_true", help="also write trace.csv")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=cmd_run)

    # No abbreviations: ``--seed``, which run and compare take, is not ``--seeds``.
    sweep_p = sub.add_parser(
        "sweep", help="vary one config parameter over a list", allow_abbrev=False
    )
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True, help="dotted config path, e.g. nodes")
    sweep_p.add_argument("--values", required=True, help="comma-separated JSON values")
    sweep_p.add_argument("--seeds", default="1", help="comma-separated seeds (default: 1)")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--scheme", choices=tuple(SCHEMES), help=SCHEME_HELP)
    sweep_p.add_argument("--trace", action="store_true")
    sweep_p.add_argument("--quiet", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep)

    cmp_p = sub.add_parser("compare", help="run several schemes on one scenario+seed")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--seed", type=int, required=True)
    cmp_p.add_argument(
        "--schemes", required=True,
        help="comma-separated scheme kinds; the first is the baseline for deltas; " + SCHEME_HELP,
    )
    cmp_p.add_argument("--out", required=True)
    cmp_p.add_argument("--trace", action="store_true")
    cmp_p.add_argument("--quiet", action="store_true")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and exit 3 per contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
