"""One benchmark run of one workload, meant to run in a fresh process.

    python3 perfbench/measure.py --workload W --seed N --seconds S --trace 0|1

Runs the workload's fixed number of fixed-length episodes through the
program's public entry points, timing a few set-ups before each one;
``--seconds`` only caps the run. Every episode uses the same seed, so every
episode must produce the same output; the first one's output is checked in
full and later ones must match its digest. With ``--trace 1`` each
untraced episode is followed by a traced one, and the traced output must
match too; the spans of the last traced episode are written to
``.perfbench-spans/`` at the root of the checkout. Prints one JSON report as
the last line of standard output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

from marketsched import baseline, harness
from marketsched.agents import AgentBundle
from marketsched.env import SchedulingEnv

from tracing import CheckFailed, Tracer, layer_metrics, program_seconds
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3  # before every episode, so they spread over the run
PROBE_EVERY_S = 0.010  # program seconds between two host-speed probes
# The probes' times on a quiet reference host (see README.md)
INTERPRETER_PROBE_S = 270e-6
MATMUL_PROBE_S = 330e-6

_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = _PROBE_RNG.standard_normal((32, 32))
_PROBE_X = _PROBE_RNG.standard_normal(32)
_PROBE_A = _PROBE_RNG.standard_normal((64, 64))
_PROBE_B = _PROBE_RNG.standard_normal((64, 1323))


def interpreter_probe() -> float:
    """Seconds a fixed mix of small numpy calls and dict updates takes."""
    start = perf_counter()
    for _ in range(60):
        float(np.tanh(_PROBE_W @ _PROBE_X).sum())
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return perf_counter() - start


def matmul_probe() -> float:
    """Seconds one 64x64 by 64x1323 matrix product takes."""
    start = perf_counter()
    float((_PROBE_A @ _PROBE_B).sum())
    return perf_counter() - start


def slowdown(matmul_share: float) -> float:
    """How many times slower than the quiet reference host this host runs
    right now, for work with ``matmul_share`` of its time in large matrix
    products and the rest in the interpreter and small numpy calls.

    A shared host runs everything slower for stretches of milliseconds to
    minutes, and by different factors for the two kinds of work. Host
    seconds divided by the slowdown measured around them are reference
    seconds: about what the same work takes on the quiet host.
    """
    factor = (1 - matmul_share) * interpreter_probe() / INTERPRETER_PROBE_S
    if matmul_share:
        factor += matmul_share * matmul_probe() / MATMUL_PROBE_S
    return factor


class StepClock:
    """Program time of an episode, cut into segments between speed probes.

    ``after_step`` runs each time SchedulingEnv.step returns. It measures
    the host's slowdown after the first and the last step and whenever
    PROBE_EVERY_S of program time has passed since the last probe; probe
    time is not program time. Each segment is (program seconds, slowdown
    before, slowdown after). Set-up before the first step falls outside
    every segment.
    """

    def __init__(self, steps: int, matmul_share: float) -> None:
        self.steps = steps
        self.matmul_share = matmul_share
        self.count = 0
        self.segments: list[tuple[float, float, float]] = []
        self._mark: float | None = None
        self._probe = 0.0
        self.probe_s = 0.0  # host seconds spent probing

    def after_step(self) -> None:
        now = perf_counter()
        self.count += 1
        if (self._mark is None or self.count == self.steps
                or now - self._mark >= PROBE_EVERY_S):
            probe = slowdown(self.matmul_share)
            self.probe_s += perf_counter() - now
            if self._mark is not None:
                self.segments.append((now - self._mark, self._probe, probe))
            self._probe, self._mark = probe, perf_counter()

    def timed_steps(self) -> int:
        """Steps the segments cover: all but the first."""
        if self.count != self.steps:
            raise CheckFailed(f"env.step ran {self.count} times in a "
                              f"{self.steps}-step episode")
        return self.steps - 1


def reference_seconds(segments) -> float:
    """Program seconds divided by the mean slowdown measured around each."""
    return math.fsum(s * 2 / (before + after) for s, before, after in segments)


def resolve(workload: Workload) -> harness.Scenario:
    """The builtin scenario with the workload's overrides and episode length."""
    data = harness.builtin_scenarios()[workload.scenario].to_dict()
    if workload.arch is not None:
        data["arch"] = workload.arch
    overrides = list(workload.overrides) + [f"total_steps={workload.steps}"]
    return harness.Scenario.from_dict(harness.apply_overrides(data, overrides))


def time_setup(workload: Workload, seed: int) -> tuple[float, float, float]:
    """Seconds to resolve the scenario and construct SchedulingEnv, and to
    construct one AgentBundle per agent (0 for the env-only workload), and
    the sum of both in reference seconds."""
    before = slowdown(workload.matmul_share)
    start = perf_counter()
    scenario = resolve(workload)
    SchedulingEnv(scenario.env, seed)
    built = perf_counter()
    if workload.learned:
        for agent in range(scenario.env.num_agents):
            AgentBundle(scenario.arch[agent], agent, scenario.env, scenario.hyper, seed)
    done = perf_counter()
    total = reference_seconds([(done - start, before, slowdown(workload.matmul_share))])
    return built - start, done - built, total


@contextmanager
def step_clock(clock: StepClock) -> Iterator[None]:
    """Call clock.after_step() each time SchedulingEnv.step returns."""
    step = SchedulingEnv.__dict__["step"]

    @functools.wraps(step)
    def timed_step(market, actions):
        result = step(market, actions)
        clock.after_step()
        return result

    SchedulingEnv.step = timed_step
    try:
        yield
    finally:
        SchedulingEnv.step = step


def run_episode(workload: Workload, scenario: harness.Scenario, seed: int):
    """(host seconds, output) of one episode through the public entry point."""
    gc.collect()
    start = perf_counter()
    if workload.learned:
        output = harness.run_scenario(scenario, seed)
    else:
        output = baseline.scripted_env_trace(scenario.env, seed, workload.steps)
    return perf_counter() - start, output


def completion_csv(events) -> bytes:
    """The completion trace in the format ``marketsched baseline`` writes."""
    lines = ["time,type_id,turnaround,ntat"]
    lines += [f"{e.time},{e.type_id},{e.turnaround},{e.normalized_turnaround!r}"
              for e in events]
    return ("\n".join(lines) + "\n").encode()


def digest_output(workload: Workload, output, csv_path: Path) -> tuple[str, float]:
    """sha256 of the run CSV (learned) or of the completion trace (env), and
    the seconds export_run_csv took to write the CSV (0 for env)."""
    if not workload.learned:
        return hashlib.sha256(completion_csv(output)).hexdigest(), 0.0
    start = perf_counter()
    harness.export_run_csv(output, csv_path)
    export_s = perf_counter() - start
    return hashlib.sha256(csv_path.read_bytes()).hexdigest(), export_s


def check_output(workload: Workload, scenario: harness.Scenario, seed: int,
                 output, csv_path: Path) -> float:
    """Raise CheckFailed unless the output is correct; returns the seconds
    the FCFS oracle took (0 for learned workloads)."""
    if not workload.learned:
        start = perf_counter()
        oracle = baseline.fcfs_trace(scenario.env, seed, workload.steps)
        fcfs_s = perf_counter() - start
        if oracle != output:
            at = next((i for i, (a, b) in enumerate(zip(output, oracle)) if a != b),
                      min(len(output), len(oracle)))
            raise CheckFailed(
                f"completion {at} differs from the FCFS oracle "
                f"({len(output)} vs {len(oracle)} completions)")
        return fcfs_s
    series = harness.read_series_csv(csv_path)
    max_prio = scenario.env.max_prio
    if not any(name.startswith("ntat_") for name in series):
        raise CheckFailed("run CSV holds no ntat series")
    for name, s in series.items():
        if name.startswith("ntat_") and min(s.values) < 1.0:
            raise CheckFailed(f"{name} below 1.0: {min(s.values)}")
        if name.startswith("price_") and not all(0 <= v <= max_prio for v in s.values):
            raise CheckFailed(f"{name} outside [0, {max_prio}]")
    return 0.0


def write_spans(tracer: Tracer, path: Path) -> None:
    """One CSV row per span: name, start and end in seconds from the first
    span's start, and the row index of the enclosing span (-1 at the top)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,start,end,parent\n")
        for s in tracer.spans:
            f.write(f"{s.name},{s.start - origin:.9f},{s.end - origin:.9f},{s.parent}\n")


def machine_note() -> dict[str, str | int]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def measure(workload: Workload, seed: int, trace: bool, workdir: Path,
            episodes: int | None = None, seconds: float = math.inf,
            spans_path: Path | None = None) -> dict:
    """Time ``episodes`` episodes (by default the workload's count, halved
    when traced because each round then runs two), stopping early only
    before a round that would end after ``seconds``. The report counts
    failed episodes instead of raising. With ``trace`` and ``spans_path``
    the spans of the last traced episode are written there as CSV.

    Both timings are medians over identical repetitions spread over the
    run, in reference seconds (see ``slowdown``); the number of
    repetitions is fixed, so it does not grow with the program's speed.
    ``steps_per_s`` is the timed steps of an episode over the median
    episode's reference seconds; set-up before the first step is not
    timed. ``setup_s`` is the median set-up.
    """
    if episodes is None:
        episodes = max(1, workload.episodes // 2) if trace else workload.episodes
    scenario = resolve(workload)
    report: dict = {"workload": workload.name, "seed": seed, "steps": workload.steps,
                    "attempted": 0, "failed": 0, "error": None, "digest": None}
    csv_path = workdir / "run.csv"
    setups, episode_ref_s, episode_s, export_s, layers, traced_s = [], [], [], [], [], []
    fcfs_s = 0.0
    tracer = None
    start = perf_counter()
    round_s = 0.0
    # stop early only before a round that would likely end after ``seconds``
    while report["attempted"] < episodes and (
            report["attempted"] == 0 or perf_counter() - start + round_s < seconds):
        round_start = perf_counter()
        report["attempted"] += 1
        try:
            setups += [time_setup(workload, seed) for _ in range(SETUP_REPEATS)]
            clock = StepClock(workload.steps, workload.matmul_share)
            with step_clock(clock):
                elapsed, output = run_episode(workload, scenario, seed)
            timed_steps = clock.timed_steps()
            digest, export = digest_output(workload, output, csv_path)
            if report["digest"] is None:
                fcfs_s = check_output(workload, scenario, seed, output, csv_path)
                report["digest"] = digest
            elif digest != report["digest"]:
                raise CheckFailed(f"episode digest {digest} differs from the first")
            episode_ref_s.append(reference_seconds(clock.segments))
            episode_s.append(elapsed - clock.probe_s)
            export_s.append(export)
            if trace:
                tracer = Tracer()
                gc.collect()
                with tracer.installed():
                    wall_s, output = run_episode(workload, scenario, seed)
                if digest_output(workload, output, csv_path)[0] != digest:
                    raise CheckFailed("traced digest differs from the untraced digest")
                layers.append(layer_metrics(tracer, wall_s, workload.steps))
                traced_s.append(program_seconds(tracer, wall_s))
        except Exception as err:  # an episode failure is a result, not a crash
            traceback.print_exc()
            report["failed"] += 1
            report["error"] = f"{type(err).__name__}: {err}"
            break
        round_s = perf_counter() - round_start
    if episode_s:
        env_s = statistics.median(e for e, _, _ in setups)
        bundle_s = statistics.median(b for _, b, _ in setups)
        report["setup_s"] = statistics.median(r for _, _, r in setups)
        report["steps_per_s"] = timed_steps / statistics.median(episode_ref_s)
    if layers:  # implies episode_s
        report["layers"] = {name: statistics.median(d[name] for d in layers)
                            for name in layers[0]}
        report["layers"].update({
            "setup.env.s": env_s, "setup.agent_bundle.s": bundle_s,
            "harness.export_run_csv.s": statistics.median(export_s),
            "baseline.fcfs_trace.s": fcfs_s,
            # fastest against fastest, in host seconds without probes
            "trace.overhead": min(traced_s) / min(episode_s) - 1.0})
    if tracer is not None and spans_path is not None:
        write_spans(tracer, spans_path)
        report["spans"] = str(spans_path)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["machine"] = machine_note()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    spans_path = root / ".perfbench-spans" / f"{args.workload}-seed{args.seed}.csv"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        report = measure(WORKLOADS[args.workload], args.seed, bool(args.trace),
                         Path(workdir), seconds=args.seconds, spans_path=spans_path)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
