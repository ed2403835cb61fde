"""The benchmark's workloads. Pure data, so the parent process can read it
without importing numpy. Why each workload exists is in BENCHMARK.json and
README.md.

Each episode has a fixed length in env steps: learned throughput drifts with
the training phase, so episodes are compared only at equal length. Each run
repeats a fixed number of episodes, so every timing is a median over the
same number of samples however fast the program is; the counts fill about
20 s of the reference machine. All four run single-process and
single-threaded.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    scenario: str            # builtin scenario name
    arch: str | None         # architecture override, None keeps the scenario's
    overrides: tuple[str, ...]  # ``dotted.key=value`` scenario overrides
    steps: int               # env steps per episode
    learned: bool            # harness.run_scenario, else baseline.scripted_env_trace
    episodes: int            # episodes per timed run
    matmul_share: float      # neural.ppo_update share of episode time: weights the
                             # matmul probe in measure.slowdown


WORKLOADS = {w.name: w for w in (
    Workload("exp1_dist_ps", "EXP1_TRADING", None, (), 2000, True, 17, 0.23),
    Workload("exp2_4x4_dist", "EXP2_ARCH_4X4", None, (), 2000, True, 9, 0.22),
    Workload("exp2_2x2_full", "EXP2_ARCH_2X2", "FULL", (), 2000, True, 10, 0.65),
    Workload("env_4x4_baseline", "EXP2_ARCH_4X4", None,
             ("env.trading_enabled=false",), 2000, False, 140, 0.0),
)}
