"""Known answers: quantities of whole runs that follow in closed form from
the market's rules, whatever the policy."""

import math

import pytest

from marketsched.agents import (ARCH_DIST, ARCH_DIST_PRICE, ARCH_DIST_PS, ARCH_FULL,
                                ARCH_SEMI, Trainer, build_homes)
from marketsched.baseline import scripted_env_trace
from marketsched.env import SchedulingEnv
from marketsched.harness import builtin_scenarios

# P(NTAT) of every BASE_SINGLE job after the first
BASE_SINGLE_NTAT = {1.5: 0.70, 1.25: 0.21, 1.0: 0.09}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_base_single_ntat_has_its_closed_form_distribution(seed):
    # one slot, one core, burst 4, spawn probability 0.7, and a policy that
    # offers its job every step: after the slot empties, G spawn draws fail,
    # P(G = g) = 0.3**g * 0.7, and the next job's turnaround is max(4, 6 - G);
    # so NTAT is 1.5, 1.25 or 1.0 with probabilities 0.70, 0.21 and 0.09
    # (mean 1.4025); each share is checked within 4 binomial standard errors
    events = scripted_env_trace(builtin_scenarios()["BASE_SINGLE"].env, seed, 50_000)
    ntats = [event.normalized_turnaround for event in events[1:]]
    n = len(ntats)
    assert sorted(set(ntats)) == sorted(BASE_SINGLE_NTAT)
    for ntat, p in BASE_SINGLE_NTAT.items():
        assert abs(ntats.count(ntat) / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


def _jobs_in_system(env):
    return ([job for agent_slots in env.slots for job in agent_slots if job is not None]
            + [core.job for core in env.cores if core.job is not None])


@pytest.mark.parametrize("name, arch", [
    ("EXP1_TRADING", ARCH_DIST_PS),
    ("EXP2_ARCH_2X2", ARCH_DIST),
    ("EXP2_ARCH_2X2", ARCH_SEMI),
    ("EXP2_ARCH_2X2", ARCH_FULL),
    ("EXP4_PRICING_COMM", ARCH_DIST_PRICE),
    ("BASE_TRIO", ARCH_DIST),
])
def test_littles_law_holds_exactly_on_a_learned_run(name, arch):
    # the jobs on slots and cores are counted at construction and after
    # every step, at env.time 0, 1, ..., T; a job is counted at every time
    # from its arrival to its completion, turnaround + 1 times, or, if still
    # in the system, to T, T - arrival + 1 times; so the two sums together
    # equal the counts' total
    scenario = builtin_scenarios()[name]
    env = SchedulingEnv(scenario.env, 1)
    trainer = Trainer(env, build_homes((arch,) * scenario.env.num_agents, scenario.env,
                                       scenario.hyper, 1))
    counted = len(_jobs_in_system(env))
    completed = 0
    for _ in range(800):
        result = trainer.step()
        completed += sum(c.turnaround + 1 for c in result.completions)
        counted += len(_jobs_in_system(env))
    assert completed > 0
    waiting = sum(env.time - job.arrival_time + 1 for job in _jobs_in_system(env))
    assert completed + waiting == counted
