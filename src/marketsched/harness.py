"""Scenario definitions, multi-seed training runs, windowed metrics, CSV export.

Every run trains: ``build_homes`` groups the agents into homes, each of
which acts for its agents, and one ``Trainer`` steps them all. The scripted
policy has its own entry point, ``baseline.scripted_env_trace``.

A run record samples, every ``record_every`` steps, the trailing-window mean
normalized turnaround per job type, the trailing-window mean realized price
per job type (accepted offers only, auctioneer grants included), the count
of accepted offers (``trade_count``: trades between agents plus self-trades,
in which an agent preempts its own running job; auctioneer grants are not
counted), and the auctioneer's settlement income. Windows with no
completions of a type mark the point absent rather than zero. Every series
reads one time-ordered window of events (``_MetricWindow``), and a run's CSV
is the aggregate of its one record.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .agents import (ARCH_DIST, ARCH_DIST_PRICE, ARCH_DIST_PS, ARCHITECTURES, Trainer,
                     build_homes)
from .config import (ConfigError, EnvConfig, JobType, PricingMode, check_int, check_keys,
                     check_seed, finite_number, whole_number)
from .env import AUCTIONEER, SchedulingEnv, StepResult
from .neural import PPOHyper


@dataclass(frozen=True)
class Scenario:
    """One experiment: environment, agent architectures, training horizon."""

    name: str
    env: EnvConfig
    arch: tuple[str, ...]
    hyper: PPOHyper = PPOHyper()  # frozen, so one shared default is safe
    total_steps: int = 50_000
    window: int = 500
    record_every: int = 100
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self) -> None:
        for name, kind in (("env", EnvConfig), ("hyper", PPOHyper)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"scenario {self.name}: {name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        arch = self.arch
        if isinstance(arch, str):
            arch = (arch,) * self.env.num_agents
        for name, value in (("arch", arch), ("seeds", self.seeds)):
            if not isinstance(value, (tuple, list)):
                raise ConfigError(f"scenario {self.name}: {name} must be a list, got {value!r}")
        object.__setattr__(self, "arch", tuple(arch))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        # the name becomes part of every artifact's file name: 200 UTF-8 bytes
        # at most leave room under NAME_MAX, 255, for "_seed<20 digits>_trace.jsonl"
        try:
            size = len(self.name.encode()) if isinstance(self.name, str) else 0
        except UnicodeEncodeError:  # a lone surrogate
            size = 0
        if not 0 < size <= 200 or self.name in (".", "..") or any(c in self.name for c in "/\\\0"):
            raise ConfigError("scenario name must be a non-empty string of at most 200 bytes "
                              "in UTF-8 (no lone surrogate), other than '.' and '..', with no "
                              f"'/', '\\' or NUL, got {self.name!r}")
        if len(self.arch) != self.env.num_agents:
            raise ConfigError(
                f"scenario {self.name}: {len(self.arch)} architectures for "
                f"{self.env.num_agents} agents")
        unknown = [arch for arch in self.arch if arch not in ARCHITECTURES]
        if unknown:
            raise ConfigError(f"scenario {self.name}: unknown architecture {unknown[0]!r}; "
                              f"choose from {', '.join(ARCHITECTURES)}")
        for name in ("total_steps", "window", "record_every"):
            check_int(getattr(self, name), name, 1)
        if self.total_steps < self.window:
            raise ConfigError(f"scenario {self.name}: need total_steps >= window")
        for seed in self.seeds:
            check_seed(seed, "each of seeds")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"scenario {self.name}: seeds must be non-empty and distinct")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "env": self.env.to_dict(),
            "arch": list(self.arch),
            "hyper": self.hyper.to_dict(),
            "total_steps": self.total_steps,
            "window": self.window,
            "record_every": self.record_every,
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        check_keys(cls, data, "scenario")
        seeds = data.get("seeds", list(cls.seeds))
        if not isinstance(seeds, list):
            raise ConfigError(f"seeds must be a list, got {seeds!r}")
        return cls(
            name=data["name"],
            env=EnvConfig.from_dict(data["env"]),
            arch=data["arch"],
            hyper=PPOHyper.from_dict(data.get("hyper", {})),
            total_steps=whole_number(data.get("total_steps", cls.total_steps), "total_steps"),
            window=whole_number(data.get("window", cls.window), "window"),
            record_every=whole_number(data.get("record_every", cls.record_every),
                                      "record_every"),
            seeds=tuple(whole_number(s, "seed") for s in seeds),
        )


def apply_overrides(data: dict[str, Any], overrides: Iterable[str]) -> dict[str, Any]:
    """Apply ``dotted.key=value`` overrides to a scenario dictionary.

    Keys must address existing fields, else ConfigError; list elements are
    addressed by index, from 0. Values are parsed as JSON when possible,
    else taken as strings. A scenario's ``to_dict`` holds every field, so
    any field can be overridden; ``Scenario.from_dict`` checks the result.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, too many digits or too deep
            value = raw
        node: Any = data
        for part in dotted.split("."):  # one part at least, so parent and key get set
            if isinstance(node, list):
                if part not in map(str, range(len(node))):
                    raise ConfigError(f"override {dotted!r}: bad list index {part!r}")
                key = int(part)
            elif isinstance(node, dict):
                if part not in node:
                    raise ConfigError(f"override {dotted!r}: unknown field {part!r}")
                key = part
            else:
                raise ConfigError(f"override {dotted!r}: {part!r} is not addressable")
            parent, node = node, node[key]
        parent[key] = value
    return data


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------


@dataclass
class RunRecord:
    scenario: str
    seed: int
    steps: list[int]
    series: dict[str, list[float | None]]


@dataclass
class AggregateRecord:
    scenario: str
    seed_count: int
    steps: list[int]
    mean: dict[str, list[float | None]]
    std: dict[str, list[float | None]]
    count: dict[str, list[int]]


class _MetricWindow:
    """Trailing-window series over one time-ordered deque of ``(env time,
    series name, value)`` events. A series in ``TOTALS`` is the sum of its
    window's values (``trade_count`` observes 1 per trade); any other is
    their mean in observed order, absent when the window has none."""

    TOTALS = ("trade_count", "auctioneer_income")

    def __init__(self, config: EnvConfig, window: int):
        self.window = window
        self.ntat = {t.id: f"ntat_type_{t.id}" for t in config.job_types}
        self.price = {t.id: f"price_type_{t.id}" for t in config.job_types}
        self.names = [*self.ntat.values(), *self.price.values(), *self.TOTALS]
        self.events: deque[tuple[int, str, float]] = deque()

    def observe(self, result: StepResult) -> None:
        t = result.time
        for c in result.completions:
            self.events.append((t, self.ntat[c.type_id], c.normalized_turnaround))
        for trade in result.trades:
            self.events.append((t, self.price[trade.job_type_id], trade.price))
            if trade.seller != AUCTIONEER:
                self.events.append((t, "trade_count", 1))
        if result.auctioneer_income:
            self.events.append((t, "auctioneer_income", result.auctioneer_income))

    def snapshot(self, step: int) -> dict[str, float | None]:
        """Window covers env times [step - window, step - 1]."""
        cutoff = step - self.window
        while self.events and self.events[0][0] < cutoff:
            self.events.popleft()
        values: dict[str, list] = {name: [] for name in self.names}
        for _, name, value in self.events:
            values[name].append(value)
        out: dict[str, float | None] = {}
        for name, v in values.items():
            if name in self.TOTALS:
                out[name] = float(sum(v))
            else:
                out[name] = float(np.mean(v)) if v else None
        return out


def _trace_line(result: StepResult) -> str:
    payload = {
        "time": result.time,
        "trades": [[t.core, t.buyer, t.seller, t.price, t.job_uid] for t in result.trades],
        "terminations": [[c.job_uid, c.type_id, c.turnaround] for c in result.completions],
        "payouts": sorted(
            (participant, amount)
            for s in result.settlements
            for participant, amount in s.payouts.items()
        ),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_scenario(scenario: Scenario, seed: int,
                 trace_path: str | os.PathLike | None = None) -> RunRecord:
    """Train one seed for the scenario's horizon.

    Deterministic in (scenario, seed): repeated calls produce identical
    records and trace files.
    """
    env = SchedulingEnv(scenario.env, seed)
    trainer = Trainer(env, build_homes(scenario.arch, scenario.env, scenario.hyper, seed))

    metrics = _MetricWindow(scenario.env, scenario.window)
    steps: list[int] = []
    series: dict[str, list[float | None]] = {name: [] for name in metrics.names}
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as trace:
        for i in range(scenario.total_steps):
            result = trainer.step()
            metrics.observe(result)
            if trace:
                trace.write(_trace_line(result) + "\n")
            step = i + 1
            if step % scenario.record_every == 0 or step == scenario.total_steps:
                steps.append(step)
                for name, value in metrics.snapshot(step).items():
                    series[name].append(value)
    return RunRecord(scenario=scenario.name, seed=seed, steps=steps, series=series)


def aggregate(records: list[RunRecord]) -> AggregateRecord:
    """Pointwise mean and population standard deviation across seeds, one
    record each.

    Absent points are excluded pairwise: each point aggregates over the
    seeds that have it.
    """
    if not records:
        raise ValueError("aggregation needs at least 1 record")
    first = records[0]
    seeds = {first.seed}
    for r in records[1:]:
        if (r.scenario != first.scenario or r.steps != first.steps
                or set(r.series) != set(first.series)):
            raise ValueError("records have mismatching scenarios, steps or series")
        if r.seed in seeds:
            raise ValueError(f"seed {r.seed} is in more than one record")
        seeds.add(r.seed)
    mean: dict[str, list[float | None]] = {}
    std: dict[str, list[float | None]] = {}
    count: dict[str, list[int]] = {}
    for name in first.series:
        mean[name], std[name], count[name] = [], [], []
        for i in range(len(first.steps)):
            values = [r.series[name][i] for r in records if r.series[name][i] is not None]
            count[name].append(len(values))
            if len(values) == 1:  # numpy's bytes, without its cost; its mean of -0.0 is 0.0
                mean[name].append(float(values[0]) + 0.0)
                std[name].append(0.0)
            elif values:
                arr = np.asarray(values)
                mean[name].append(float(arr.mean()))
                std[name].append(float(arr.std()))
            else:
                mean[name].append(None)
                std[name].append(None)
    return AggregateRecord(
        scenario=first.scenario,
        seed_count=len(records),
        steps=list(first.steps),
        mean=mean,
        std=std,
        count=count,
    )


def run_sweep(scenario: Scenario, seeds: Iterable[int] | None = None,
              workers: int = 1) -> list[RunRecord]:
    """Train every seed; seeds are independent, so they may run in parallel.
    A worker runs every product on one BLAS thread, as a serial run does
    (``neural.one_blas_thread``), so it gives the serial run's records."""
    seed_list = list(seeds) if seeds is not None else list(scenario.seeds)
    workers = max(1, min(workers, len(seed_list)))
    run_seed = partial(run_scenario, scenario)
    if workers == 1:
        return list(map(run_seed, seed_list))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(run_seed, seed_list)


# ----------------------------------------------------------------------
# CSV export / import
# ----------------------------------------------------------------------

CSV_HEADER = "step,series,value,seed_count,std"


def export_run_csv(record: RunRecord, path: str | os.PathLike) -> None:
    """The aggregate of the one record: seed count 1 and std 0.0 on every row."""
    export_aggregate_csv(aggregate([record]), path)


def export_aggregate_csv(agg: AggregateRecord, path: str | os.PathLike) -> None:
    lines = [CSV_HEADER]
    for i, step in enumerate(agg.steps):
        for name in agg.mean:
            if agg.count[name][i] == 0:
                continue
            lines.append(
                f"{step},{name},{agg.mean[name][i]!r},{agg.count[name][i]},"
                f"{agg.std[name][i]!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class CsvSeries:
    name: str
    steps: list[int]
    values: list[float]
    stds: list[float]


def read_series_csv(path: str | os.PathLike) -> dict[str, CsvSeries]:
    """Read a file in the export schema back into per-series columns."""
    out: dict[str, CsvSeries] = {}
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header {CSV_HEADER!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}: line {lineno}: expected 5 columns")
            try:
                step = int(parts[0])
                value = finite_number(float(parts[2]), "value")
                if int(parts[3]) < 1:
                    raise ValueError(f"seed_count must be at least 1, got {parts[3]}")
                std = finite_number(float(parts[4]), "std")
                if std < 0.0:
                    raise ValueError(f"std must be >= 0, got {parts[4]}")
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
            series = out.setdefault(parts[1], CsvSeries(parts[1], [], [], []))
            series.steps.append(step)
            series.values.append(value)
            series.stds.append(std)
    return out


# ----------------------------------------------------------------------
# builtin scenarios
# ----------------------------------------------------------------------


def builtin_scenarios() -> dict[str, Scenario]:
    """The named experiments plus three small setups with trading off, each
    of which ``baseline`` checks against the FCFS oracle and ``run`` trains;
    built once: every call returns a new dict of the same frozen
    scenarios."""
    return dict(_BUILTIN_SCENARIOS)


def _build_builtin_scenarios() -> dict[str, Scenario]:
    # calibrated so that cores stay busy >= 90% of steps without trading
    # while the rarer short jobs pile up behind the long blockers
    low = JobType(id=0, priority=1, burst=15, spawn_prob=0.85)
    high = JobType(id=1, priority=5, burst=2, spawn_prob=0.15)
    duo = dict(num_agents=2, num_cores=2, num_slots=3)

    scenarios = {}

    def add(s: Scenario) -> None:
        scenarios[s.name] = s

    add(Scenario("EXP1_TRADING", EnvConfig(job_types=(low, high), **duo), ARCH_DIST_PS))
    add(Scenario("EXP1_NO_TRADING",
                 EnvConfig(job_types=(low, high), trading_enabled=False, **duo),
                 ARCH_DIST_PS))
    add(Scenario("EXP2_ARCH_2X2", EnvConfig(job_types=(low, high), **duo), ARCH_DIST))
    add(Scenario("EXP2_ARCH_4X4",
                 EnvConfig(num_agents=4, num_cores=4, num_slots=3, job_types=(low, high)),
                 ARCH_DIST))

    scarce = JobType(id=0, priority=5, burst=5, spawn_prob=1.0)
    for cores in (2, 4):
        for mode in (PricingMode.FREE_COMMERCIAL, PricingMode.FREE_NONCOMMERCIAL):
            tag = "COMM" if mode is PricingMode.FREE_COMMERCIAL else "NONCOMM"
            add(Scenario(
                f"EXP3_SCARCITY_{cores}C_{tag}",
                EnvConfig(num_agents=2, num_cores=cores, num_slots=3,
                          job_types=(scarce,), pricing_mode=mode),
                ARCH_DIST_PRICE))

    graded = (
        JobType(id=0, priority=2, burst=5, spawn_prob=0.33),
        JobType(id=1, priority=4, burst=5, spawn_prob=0.33),
        JobType(id=2, priority=8, burst=5, spawn_prob=0.33),
    )
    for mode in (PricingMode.FREE_COMMERCIAL, PricingMode.FREE_NONCOMMERCIAL):
        tag = "COMM" if mode is PricingMode.FREE_COMMERCIAL else "NONCOMM"
        add(Scenario(
            f"EXP4_PRICING_{tag}",
            EnvConfig(num_agents=2, num_cores=2, num_slots=3,
                      job_types=graded, pricing_mode=mode),
            ARCH_DIST_PRICE))

    add(Scenario("BASE_SINGLE",
                 EnvConfig(num_agents=1, num_cores=1, num_slots=1,
                           job_types=(JobType(id=0, priority=3, burst=4, spawn_prob=0.7),),
                           trading_enabled=False),
                 ARCH_DIST, total_steps=2_000, window=200))
    add(Scenario("BASE_DUO",
                 EnvConfig(job_types=(low, high), trading_enabled=False, **duo),
                 ARCH_DIST, total_steps=2_000, window=200))
    add(Scenario("BASE_TRIO",
                 EnvConfig(num_agents=3, num_cores=2, num_slots=2,
                           job_types=(
                               JobType(id=0, priority=1, burst=6, spawn_prob=0.5),
                               JobType(id=1, priority=4, burst=3, spawn_prob=0.2),
                               JobType(id=2, priority=2, burst=2, spawn_prob=0.1),
                           ),
                           trading_enabled=False),
                 ARCH_DIST, total_steps=2_000, window=200))
    return scenarios


_BUILTIN_SCENARIOS = _build_builtin_scenarios()
