"""Run the benchmark over workloads and seeds, one process at a time, and
summarise each metric across seeds.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds 20]
                               [--trace 0|1] [--write]

Runs go seed-major, round-robin over the workloads, so that a slow stretch of
a few minutes on a shared host lands on one or two seeds of every workload
rather than on most seeds of one. For every workload and metric it prints the median, the quartiles and the
spread, (q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives the
quartiles, plus failed_frac over all runs. With ``--write`` the medians, the
seeds and the machine note are stored in reference.json: under ``baseline``
for ``--trace 0`` and under ``traced`` for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """(result JSON, machine note line) of one run.py invocation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    machine = next((l for l in lines if l.startswith("machine: ")), "")
    try:
        return json.loads(lines[-1]), machine
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, machine


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())[
                            "run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    attempted = dict.fromkeys(workloads, 0)
    failed = dict.fromkeys(workloads, 0)
    machine = ""
    ok = True
    for seed in seeds:
        for workload in workloads:
            result, machine = run_one(workload, seed, args.seconds, args.trace)
            attempted[workload] += result["attempted"]
            failed[workload] += result["failed"]
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if not args.trace or n.endswith("share") or n == "trace.overhead"),
                flush=True)
    summary: dict[str, dict] = {}
    for workload in workloads:
        entry = {name: dict(summarise(v), unit=units[name])
                 for name, v in values[workload].items()}
        entry["failed_frac"] = {
            "median": failed[workload] / max(attempted[workload], 1), "unit": "fraction",
            "attempted": attempted[workload], "failed": failed[workload]}
        summary[workload] = entry
    print(machine)
    for workload, entry in summary.items():
        for name, s in entry.items():
            if "spread" in s:
                print(f"{workload:17} {name:32} median {s['median']:<12.6g} {s['unit']:8} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
            else:
                print(f"{workload:17} {name:32} {s['median']:.6g} "
                      f"({s['failed']} of {s['attempted']} episodes)")
    if args.write:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        section = reference.setdefault("traced" if args.trace else "baseline", {})
        section["seeds"] = seeds
        section["seconds"] = args.seconds
        section["machine"] = machine.removeprefix("machine: ")
        section.setdefault("workloads", {}).update(summary)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
