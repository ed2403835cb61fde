"""Layer bench: ``ppo_update`` on full rollout windows.

Deselected by default; run with ``python -m pytest -m bench``. Each round
updates parameter sets on the same 256-sample windows, from the same
weights, with the sets' Adam moments and step counts reset: one set of a
fresh agent bundle, EXP1_TRADING's ``DIST_PS`` accept set, where per-call
overhead dominates, and EXP2_ARCH_2X2's ``FULL`` set, whose 1323-action head
makes the update arithmetic-bound; and one wave, the 12 offer sets of an
EXP2_ARCH_4X4 ``DIST`` home, whose windows fill in the same step. A last
check counts the minor page faults of a whole ``FULL`` episode: the
update's scratch must not be returned to the system and faulted in again
from one minibatch or update to the next.
"""

import resource

import numpy as np
import pytest

from marketsched.agents import ARCH_DIST, ARCH_DIST_PS, ARCH_FULL, AgentBundle, build_bundles
from marketsched.harness import Scenario, apply_overrides, builtin_scenarios, run_scenario
from marketsched.neural import TrainBatch, ppo_update
from marketsched.rng import derive_rng

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


@pytest.mark.parametrize("scenario_name, arch, param_key", [
    ("EXP1_TRADING", ARCH_DIST_PS, "accept"),
    ("EXP2_ARCH_2X2", ARCH_FULL, "full"),
])
def test_bench_ppo_update(scenario_name, arch, param_key, benchmark):
    scenario = builtin_scenarios()[scenario_name]
    hyper = scenario.hyper
    assert hyper.rollout_length == 256
    bundle = AgentBundle(arch, 0, scenario.env, hyper, seed=1)
    unit = next(u for u in bundle.units.values() if u.spec.param_key == param_key)
    stack, index = bundle.stack, unit.param_set
    batch = window(stack.views[index], hyper.rollout_length, derive_rng(1, 0))
    start = stack.rows.copy()

    def fresh_round():
        stack.rows[...] = start
        stack.m[index] = stack.v[index] = 0.0
        stack.step_counts[index] = 0
        return (stack, [index], [batch], hyper, [derive_rng(1, 1)]), {}

    benchmark.pedantic(ppo_update, setup=fresh_round, rounds=50, warmup_rounds=3)


def test_bench_ppo_update_wave(benchmark):
    scenario = builtin_scenarios()["EXP2_ARCH_4X4"]
    hyper = scenario.hyper
    bundles = build_bundles((ARCH_DIST,) * 4, scenario.env, hyper, seed=1)
    stack = bundles[0].stack.home
    sets = [bundle.stack.first + i for bundle in bundles
            for i, key in enumerate(bundle.params) if key.startswith("offer")]
    assert len(sets) == 12
    batches = [window(stack.views[s], hyper.rollout_length, derive_rng(1, s)) for s in sets]
    start = stack.rows.copy()

    def fresh_round():
        stack.rows[...] = start
        stack.m[...] = stack.v[...] = 0.0
        stack.step_counts[...] = 0
        return (stack, sets, batches, hyper, [derive_rng(2, s) for s in sets]), {}

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
