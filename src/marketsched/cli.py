"""Command line: run scenarios, sweep seeds, print cardinalities, plot CSVs.

Exit codes: 0 success, 2 usage error, 3 infeasible architecture, 4 runtime
abort. Every subcommand is reproducible: the same arguments and input files
yield byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .agents import (
    ARCH_FULL,
    ARCH_SEMI,
    MAX_PRINTABLE,
    InfeasibleArchitectureError,
    unit_layout,
)
from .baseline import fcfs_trace, scripted_env_trace
from .config import ConfigError, EnvConfig, JobType, check_seed
from .harness import (
    CsvSeries,
    RunRecord,
    Scenario,
    aggregate,
    apply_overrides,
    builtin_scenarios,
    export_aggregate_csv,
    export_run_csv,
    read_series_csv,
    run_scenario,
    run_sweep,
)
from .neural import NonFiniteLossError
from .svgchart import render_line_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4

class CliError(Exception):
    """A usage error of the command line; ``main`` prints it and exits 2."""


def _check_counts(args: argparse.Namespace, **lowest: int) -> None:
    """Reject a count option given below its lowest accepted value."""
    for name, low in lowest.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise CliError(f"--{name} must be >= {low}, got {value}")


def _load_scenario(name_or_path: str, overrides: list[str], arch: str | None) -> Scenario:
    """The builtin scenario of that name, or else the scenario file at that
    path, checked as written; then, in its ``to_dict`` form, ``arch`` for
    every agent if given and each ``dotted.key=value`` override, checked
    again by ``Scenario.from_dict``. Any violation is a CliError."""
    builtins = builtin_scenarios()
    if name_or_path in builtins:
        data = builtins[name_or_path].to_dict()
    else:
        path = Path(name_or_path)
        if not path.exists():
            known = ", ".join(sorted(builtins))
            raise CliError(
                f"unknown scenario {name_or_path!r}; builtin scenarios: {known}")
        try:  # the file may be unreadable, not UTF-8, not JSON or nested too deep
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as err:
            raise CliError(f"cannot read scenario file {path}: {err}")
    try:
        data = Scenario.from_dict(data).to_dict()
        if arch is not None:
            data["arch"] = arch
        return Scenario.from_dict(apply_overrides(data, overrides))
    except ConfigError as err:
        raise CliError(f"invalid scenario: {err}")


def _write_artifacts(out_dir: Path, scenario: Scenario, records: list[RunRecord],
                     extra: list[str]) -> list[Path]:
    """Write each record's CSV, the aggregate CSV of two records or more,
    and ``manifest.json``, which lists these and the files named in
    ``extra``; return the paths of the CSVs, in that order."""
    paths = [out_dir / f"{scenario.name}_seed{record.seed}.csv" for record in records]
    for record, path in zip(records, paths):
        export_run_csv(record, path)
    if len(records) >= 2:
        paths.append(out_dir / f"{scenario.name}_aggregate.csv")
        export_aggregate_csv(aggregate(records), paths[-1])
    manifest = {
        "scenario": scenario.to_dict(),
        "seeds": [record.seed for record in records],
        "artifacts": sorted([path.name for path in paths] + extra),
        "package_version": __version__,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def _cmd_run(args: argparse.Namespace) -> int:
    check_seed(args.seed, "--seed")
    scenario = _load_scenario(args.scenario, args.set, args.arch)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = out_dir / f"{scenario.name}_seed{args.seed}_trace.jsonl" if args.trace else None
    record = run_scenario(scenario, args.seed, trace_path=trace)
    (csv_path,) = _write_artifacts(out_dir, scenario, [record], [trace.name] if trace else [])
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_counts(args, seeds=0, workers=1)
    scenario = _load_scenario(args.scenario, args.set, args.arch)
    seeds = (list(scenario.seeds)[: args.seeds] if args.seeds
             else list(scenario.seeds))
    if args.seeds and args.seeds > len(scenario.seeds):
        base = max(scenario.seeds) + 1
        seeds += list(range(base, base + args.seeds - len(scenario.seeds)))
        check_seed(seeds[-1], "the sweep's last seed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_sweep(scenario, seeds=seeds, workers=args.workers)
    artifacts = _write_artifacts(out_dir, scenario, records, [])
    print(f"wrote {len(artifacts)} artifacts to {out_dir}")
    return EXIT_OK


def _cmd_cardinality(args: argparse.Namespace) -> int:
    # the job type only completes the config; no action space depends on it
    config = EnvConfig(num_agents=args.agents, num_cores=args.cores,
                       num_slots=args.slots, job_types=(JobType(0, 1, 1, 1.0),))
    print(f"action-space cardinalities for cores={args.cores} "
          f"agents={args.agents} slots={args.slots}")
    accept, offer = unit_layout(ARCH_SEMI, config)
    (full,) = unit_layout(ARCH_FULL, config)
    # a DIST unit of each kind is one digit of the SEMI unit of that kind
    rows = (("DIST_OFFER", offer.radices[0]), ("DIST_ACCEPT", accept.radices[0]),
            ("SEMI_OFFER", offer.capped_count(MAX_PRINTABLE)),
            ("SEMI_ACCEPT", accept.capped_count(MAX_PRINTABLE)),
            ("FULL", full.capped_count(MAX_PRINTABLE)))
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        shown = str(value) if value <= MAX_PRINTABLE else "infeasible (> 2^63)"
        print(f"  {label:<{width}}  {shown}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    chart_series: list[CsvSeries] = []
    multi = len(args.csv) > 1
    for csv_path in args.csv:
        path = Path(csv_path)
        try:
            table = read_series_csv(path)
        except (OSError, ValueError) as err:
            raise CliError(f"{err}")
        for name, series in table.items():
            if args.series and name not in args.series:
                continue
            if multi:
                series.name = f"{path.stem}:{name}"
            chart_series.append(series)
    if not chart_series:
        raise CliError("no matching series to plot")
    names = [s.name.rsplit(":", 1)[-1] for s in chart_series]
    if all(n.startswith("ntat") for n in names):
        y_label = "NTAT"
    elif all(n.startswith("price") for n in names):
        y_label = "price"
    else:
        y_label = "value"
    svg = render_line_chart(chart_series, title=args.title, x_label="step",
                            y_label=y_label)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_baseline(args: argparse.Namespace) -> int:
    check_seed(args.seed, "--seed")
    _check_counts(args, steps=0)
    scenario = _load_scenario(args.scenario, args.set, None)
    if scenario.env.trading_enabled:
        raise CliError("baseline requires a scenario with trading disabled")
    steps = args.steps or scenario.total_steps
    env_events = scripted_env_trace(scenario.env, args.seed, steps)
    twin_events = fcfs_trace(scenario.env, args.seed, steps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, events in (("env", env_events), ("fcfs", twin_events)):
        path = out_dir / f"{scenario.name}_seed{args.seed}_{tag}.csv"
        lines = ["time,type_id,turnaround,ntat"]
        lines += [f"{e.time},{e.type_id},{e.turnaround},{e.normalized_turnaround!r}"
                  for e in events]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if env_events == twin_events:
        print(f"baseline match: {len(env_events)} completions identical")
        return EXIT_OK
    print("baseline MISMATCH between environment and queue model", file=sys.stderr)
    return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketsched",
        description="Market-based multi-agent core scheduling: simulator, "
                    "learning stack, and experiment harness.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True,
                       help="builtin scenario name or path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario field by dotted path")

    p_run = sub.add_parser("run", help="run one seed of a scenario")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--arch", help="architecture for all agents")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the per-step golden trace (JSONL)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run several seeds and aggregate")
    add_common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=0,
                         help="number of seeds (default: the scenario's list)")
    p_sweep.add_argument("--arch", help="architecture for all agents")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (default: 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_card = sub.add_parser("cardinality", help="print action-space sizes")
    p_card.add_argument("--cores", type=int, required=True)
    p_card.add_argument("--agents", type=int, required=True)
    p_card.add_argument("--slots", type=int, required=True)
    p_card.set_defaults(func=_cmd_cardinality)

    p_plot = sub.add_parser("plot", help="render exported CSVs as an SVG chart")
    p_plot.add_argument("csv", nargs="+", help="CSV files in the export schema")
    p_plot.add_argument("--out", default="chart.svg")
    p_plot.add_argument("--series", action="append", default=[],
                        help="only plot the named series (repeatable)")
    p_plot.add_argument("--title", default="marketsched")
    p_plot.set_defaults(func=_cmd_plot)

    p_base = sub.add_parser("baseline",
                            help="compare the scripted environment against the "
                                 "independent FCFS queue model")
    add_common(p_base)
    p_base.add_argument("--seed", type=int, default=1)
    p_base.add_argument("--steps", type=int, default=0,
                        help="steps to simulate (default: scenario horizon)")
    p_base.set_defaults(func=_cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleArchitectureError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NonFiniteLossError, OSError) as err:
        print(f"aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
