"""Known answers: quantities of whole runs that follow in closed form from
the market's rules, whatever the policy, and the NTAT a learned run must
reach where the optimal policy's is known."""

import math
from dataclasses import replace

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


# how far the learned loop's mean NTAT on BASE_SINGLE may lie from the
# closed form's mean, 1.4025
LOOP_DELTA = 0.05
BASE_SINGLE_MEAN = sum(ntat * p for ntat, p in BASE_SINGLE_NTAT.items())


def _base_single_late_ntat(seed, **hyper):
    """The mean NTAT of the completions of steps 15000-19999 of a learned
    ``DIST`` run on BASE_SINGLE, whose PPO hyperparameters take ``hyper``'s
    values over the scenario's own."""
    scenario = builtin_scenarios()["BASE_SINGLE"]
    env = SchedulingEnv(scenario.env, seed)
    trainer = Trainer(env, build_homes((ARCH_DIST,) * scenario.env.num_agents, scenario.env,
                                       replace(scenario.hyper, **hyper), seed))
    ntats = []
    for step in range(20_000):
        result = trainer.step()
        if step >= 15_000:
            ntats += [c.normalized_turnaround for c in result.completions]
    return sum(ntats) / len(ntats)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_learned_loop_reaches_base_single_s_optimum(seed):
    # the unit's one decision is to offer its job or not; not offering only
    # delays the job, so no policy's mean NTAT lies below 1.4025 and always
    # offering reaches it: env, reward routing, advantage estimation and the
    # update together must come within LOOP_DELTA of it in 20k steps
    assert abs(_base_single_late_ntat(seed) - BASE_SINGLE_MEAN) <= LOOP_DELTA


def test_a_loop_that_does_not_learn_misses_base_single_s_optimum():
    # the control: at a learning rate of 1e-12 the policy stays its
    # initial one, which holds jobs back, and reads above the bound
    assert _base_single_late_ntat(1, learning_rate=1e-12) > BASE_SINGLE_MEAN + LOOP_DELTA
