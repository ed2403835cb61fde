"""Pin each workload's output digest and exact market counts per seed in
reference.json.

    python3 perfbench/pin.py [--seeds 0-31] [--workloads a,b]

Each (workload, seed) runs one untraced and one traced episode in this
process, single-threaded, with every correctness check of a benchmark run.
run.py compares its digest with the pin: on env_4x4_baseline a mismatch is a
failure, on the learned workloads it prints ``digest_changed``. Re-pin the
learned workloads only for a change that moves float results on purpose, and
say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("env.grants", "env.agent_trades", "env.voided", "env.completions",
          "env.accept_success", "neural.forward.calls_per_step")


def main(argv: list[str] | None = None) -> int:
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(HERE.parent / "src"))
    from measure import measure
    from sweep import REFERENCE, parse_seeds
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pins = reference.setdefault("digests", {})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as workdir:
        for name in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                report = measure(WORKLOADS[name], seed, True, Path(workdir), episodes=1)
                if report["failed"]:
                    print(f"{name} seed {seed}: {report['error']}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = {
                    "sha256": report["digest"],
                    "counts": {k: report["layers"][k] for k in COUNTS}}
                print(f"{name} seed {seed}: {report['digest']}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
