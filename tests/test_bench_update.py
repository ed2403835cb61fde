"""Layer bench: ``ppo_update`` on one full rollout window.

Deselected by default; run with ``python -m pytest -m bench``. Each round
updates one parameter set of a fresh agent bundle on the same 256-sample
window, from the same weights, with the set's Adam moments and step count
reset: EXP1_TRADING's ``DIST_PS`` accept set, where per-call overhead
dominates, and EXP2_ARCH_2X2's ``FULL`` set, whose 1323-action head makes
the update arithmetic-bound.
"""

import numpy as np
import pytest

from marketsched.agents import ARCH_DIST_PS, ARCH_FULL, AgentBundle
from marketsched.harness import builtin_scenarios
from marketsched.neural import TrainBatch, forward, ppo_update, sample
from marketsched.rng import derive_rng

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
    batch = window(unit.params, hyper.rollout_length, derive_rng(1, 0))
    start = stack.rows.copy()

    def fresh_round():
        stack.rows[...] = start
        stack.m[index] = stack.v[index] = 0.0
        stack.steps[index] = 0
        return (stack, index, batch, hyper, derive_rng(1, 1)), {}

    benchmark.pedantic(ppo_update, setup=fresh_round, rounds=50, warmup_rounds=3)
