"""Benchmark entry point: one workload, one seed, one fresh child process.

    python3 perfbench/run.py --workload exp1_dist_ps --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. The child (``measure.py``) runs single-threaded: BLAS thread counts
are set to 1 in its environment. This process imports neither numpy nor the
program. It prints a machine note, each metric by name with its unit, the
digest status, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    entry = pins.get(workload, {}).get(str(seed))
    return entry["sha256"] if entry else None


def run_child(args: argparse.Namespace) -> dict:
    """Run measure.py in a fresh process and return its JSON report."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "marketsched" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        report = run_child(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    machine = report["machine"]
    print("machine: " + ", ".join(f"{k}={machine[k]}" for k in sorted(machine)))
    attempted, failed = report["attempted"], report["failed"]
    if report["error"]:
        print(f"error: {report['error']}")
    pinned = pinned_digest(args.workload, args.seed)
    digest = report["digest"]
    if digest is None or pinned is None:
        status = "digest_unpinned"
    elif digest == pinned:
        status = "digest_match"
    else:
        status = "digest_changed"
        if not WORKLOADS[args.workload].learned:
            # integer-only env: a speed-only change keeps this digest
            failed = attempted
    print(f"{status}: {digest}")
    if "spans" in report:
        print(f"spans: {report['spans']}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    values = report.get("layers") if args.trace else report
    metrics = {}
    if failed == 0:
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in specs}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} episodes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
