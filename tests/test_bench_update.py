"""Layer bench: ``ppo_update`` on full rollout windows.

Deselected by default; run with ``python -m pytest -m bench``. Each round
updates parameter sets on the same 256-sample windows, from the same
weights, with the sets' Adam moments and step counts reset: one set of a
fresh one-agent home, EXP1_TRADING's ``DIST_PS`` accept set, where per-call
overhead dominates, and EXP2_ARCH_2X2's ``FULL`` set, whose 1323-action head
makes the update arithmetic-bound; and one wave, the 12 offer sets of an
EXP2_ARCH_4X4 ``DIST`` home, whose windows fill in the same step.
``test_bench_reference_update`` times ``tests/reference.py``'s one-network
update on the same EXP1_TRADING accept window, the yardstick of the
single-set stacked update. A last check counts the minor page faults of a
whole ``FULL`` episode: the update's scratch must not be returned to the
system and faulted in again from one minibatch or update to the next.
"""

import resource

import numpy as np
import pytest

from marketsched.agents import ARCH_DIST, ARCH_DIST_PS, ARCH_FULL, build_homes
from marketsched.harness import Scenario, apply_overrides, builtin_scenarios, run_scenario
from marketsched.ppo import TrainBatch, ppo_update
from marketsched.rng import derive_rng

import reference
from helpers import stacked, standalone
from reference import forward, sample

pytestmark = pytest.mark.bench


def window(params, size, rng):
    """``size`` samples of the network acting on random observations."""
    obs = rng.standard_normal((size, params.in_width))
    steps = [sample(forward(params, o)[0], rng) for o in obs]
    return TrainBatch(obs=obs, actions=np.array([a for a, _ in steps], dtype=np.intp),
                      logp_old=np.array([logp for _, logp in steps]),
                      advantages=rng.standard_normal(size),
                      returns=rng.standard_normal(size))


def one_set(scenario_name, arch, param_key):
    """Parameter set ``param_key`` of a fresh one-agent home under ``arch``,
    a window of it acting, and a function that resets the set to where it
    started: (hyper, stack, index, window, reset)."""
    scenario = builtin_scenarios()[scenario_name]
    hyper = scenario.hyper
    assert hyper.rollout_length == 256
    (home,) = standalone((arch,), scenario.env, hyper, seed=1)
    stack, index = home.stack, home.names.index(f"agent0/{param_key}")
    batch = window(stack.views[index], hyper.rollout_length, derive_rng(1, 0))
    start = stack.rows.copy()

    def reset():
        stack.rows[...] = start
        stack.m[index] = stack.v[index] = 0.0
        stack.step_counts[index] = 0

    return hyper, stack, index, batch, reset


@pytest.mark.parametrize("scenario_name, arch, param_key", [
    ("EXP1_TRADING", ARCH_DIST_PS, "accept"),
    ("EXP2_ARCH_2X2", ARCH_FULL, "full"),
])
def test_bench_ppo_update(scenario_name, arch, param_key, benchmark):
    hyper, stack, index, batch, reset = one_set(scenario_name, arch, param_key)

    def fresh_round():
        reset()
        return (stack, [index], stacked(batch), hyper, [derive_rng(1, 1)]), {}

    benchmark.pedantic(ppo_update, setup=fresh_round, rounds=50, warmup_rounds=3)


def test_bench_reference_update(benchmark):
    hyper, stack, index, batch, reset = one_set("EXP1_TRADING", ARCH_DIST_PS, "accept")

    def fresh_round():
        reset()
        return (stack, index, batch, hyper, derive_rng(1, 1)), {}

    benchmark.pedantic(reference.ppo_update, setup=fresh_round, rounds=50, warmup_rounds=3)


def test_bench_ppo_update_wave(benchmark):
    scenario = builtin_scenarios()["EXP2_ARCH_4X4"]
    hyper = scenario.hyper
    (home,) = build_homes((ARCH_DIST,) * 4, scenario.env, hyper, seed=1)
    stack = home.stack
    sets = [i for i, name in enumerate(home.names) if name.split("/")[1].startswith("offer")]
    assert len(sets) == 12
    batch = stacked(*(window(stack.views[s], hyper.rollout_length, derive_rng(1, s))
                      for s in sets))
    start = stack.rows.copy()

    def fresh_round():
        stack.rows[...] = start
        stack.m[...] = stack.v[...] = 0.0
        stack.step_counts[...] = 0
        return (stack, sets, batch, hyper, [derive_rng(2, s) for s in sets]), {}

    benchmark.pedantic(ppo_update, setup=fresh_round, rounds=20, warmup_rounds=2)


def test_full_episode_keeps_its_pages():
    data = builtin_scenarios()["EXP2_ARCH_2X2"].to_dict()
    data["arch"] = ARCH_FULL
    scenario = Scenario.from_dict(apply_overrides(data, ["total_steps=2000"]))
    run_scenario(scenario, seed=1)  # warm-up: the first episode's pages are new
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(scenario, seed=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # about 1.7k-5.7k here; a scratch re-faulted on every minibatch takes ~178k
    assert faults < 10_000
