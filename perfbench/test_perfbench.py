"""Tests of the benchmark's own code: self-time arithmetic, failure counting
and wrapper transparency.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from marketsched import agents, baseline, env, harness  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.first", 6.0, 7.0, 3),
        Span("b.overlapping", 6.5, 8.0, 3),  # overlap is covered once
        Span("other_root", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])


def test_layer_totals_sum_self_time_per_name():
    tracer = Tracer()
    tracer.spans = [Span("x", 0.0, 4.0, -1), Span("y", 1.0, 2.0, 0),
                    Span("y", 2.5, 3.0, 0)]
    totals = tracer.layer_totals()
    assert totals["x"] == pytest.approx({"self_s": 2.5, "s": 4.0, "calls": 1})
    assert totals["y"] == pytest.approx({"self_s": 1.5, "s": 1.5, "calls": 2})


def test_step_clock_probes_by_program_time_and_rescales(monkeypatch):
    slowdowns = iter([1.0, 2.0])
    monkeypatch.setattr(measure, "slowdown", lambda share: next(slowdowns))
    now = iter([0.0, 0.0, 0.0, 0.001, 0.010, 0.010, 0.010])
    monkeypatch.setattr(measure, "perf_counter", lambda: next(now))
    clock = measure.StepClock(3, 0.0)
    for _ in range(3):
        clock.after_step()
    # step 1 and step 3 (the last) probe; step 2 comes 1 ms after step 1
    assert clock.segments == pytest.approx([(0.010, 1.0, 2.0)])
    assert clock.timed_steps() == 2
    assert measure.reference_seconds(clock.segments) == pytest.approx(0.010 / 1.5)
    with pytest.raises(tracing.CheckFailed):
        measure.StepClock(4, 0.0).timed_steps()


def short(name: str, steps: int):
    return WORKLOADS[name]._replace(steps=steps)


def test_env_workload_matches_the_oracle(tmp_path):
    report = measure.measure(short("env_4x4_baseline", 600), 1, False, tmp_path,
                             episodes=2)
    assert (report["attempted"], report["failed"]) == (2, 0)


def test_episode_count_is_fixed_and_seconds_only_cap_it(tmp_path):
    workload = short("env_4x4_baseline", 500)._replace(episodes=4)
    assert measure.measure(workload, 1, False, tmp_path)["attempted"] == 4
    assert measure.measure(workload, 1, True, tmp_path)["attempted"] == 2
    assert measure.measure(workload, 1, False, tmp_path, seconds=0.0)["attempted"] == 1


def test_doctored_oracle_counts_as_a_failed_run(tmp_path, monkeypatch):
    real = baseline.fcfs_trace

    def doctored(config, seed, steps):
        events = real(config, seed, steps)
        return events[:-1] + [events[-1]._replace(turnaround=events[-1].turnaround + 1)]

    monkeypatch.setattr(baseline, "fcfs_trace", doctored)
    report = measure.measure(short("env_4x4_baseline", 600), 1, False, tmp_path,
                             episodes=3)
    assert (report["attempted"], report["failed"]) == (1, 1)
    assert "FCFS oracle" in report["error"]
    assert "steps_per_s" not in report


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS.values() if w.learned])
def test_traced_run_reproduces_the_untraced_digest(name, tmp_path):
    step, forward = env.SchedulingEnv.__dict__["step"], agents.forward
    spans = tmp_path / "spans" / "run.csv"
    report = measure.measure(short(name, 500), 1, True, tmp_path, episodes=1,
                             spans_path=spans)
    assert report["failed"] == 0, report["error"]
    layers = report["layers"]
    assert layers["env.step.calls"] == 500
    assert layers["neural.forward.calls"] > 0
    assert env.SchedulingEnv.__dict__["step"] is step
    assert agents.forward is forward
    with open(spans, encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert sum(r["name"] == "env.step" for r in rows) == 500
    assert rows[0]["name"] == "harness.run_scenario" and rows[0]["parent"] == "-1"


def test_self_times_account_for_the_wall_time():
    scenario = measure.resolve(short("exp1_dist_ps", 500))
    tracer = Tracer()
    with tracer.installed():
        start = measure.perf_counter()
        harness.run_scenario(scenario, 1)
        wall_s = measure.perf_counter() - start
    assert math.fsum(self_times(tracer.spans)) == pytest.approx(wall_s, rel=0.02)


def test_tracer_skips_names_the_program_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED_NAMES",
                        tracing.TRACED_NAMES + ((agents, "no_such_name", "gone"),))
    with Tracer().installed():
        assert not hasattr(agents, "no_such_name")
    assert not hasattr(agents, "no_such_name")


def test_settlement_check_rejects_a_wrong_payout_sum(monkeypatch):
    real = env.settle_chain

    def inflated(entries, terminal_priority, final_owner):
        payouts = real(entries, terminal_priority, final_owner)
        payouts[final_owner] += 1
        return payouts

    monkeypatch.setattr(env, "settle_chain", inflated)
    scenario = measure.resolve(short("exp1_dist_ps", 500))
    market = env.SchedulingEnv(scenario.env, 1)
    with Tracer().installed(), pytest.raises(tracing.CheckFailed, match="paid out"):
        for _ in range(100):
            market.step(baseline.scripted_actions(market))
