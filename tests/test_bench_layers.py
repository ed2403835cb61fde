"""Layer benches: both sides of the market layer and the batched acting
arithmetic.

Deselected by default; run with ``python -m pytest -m bench``. All use
EXP2_ARCH_4X4. ``SchedulingEnv.step`` is timed twice, with no learner
involved: under the scripted policy with trading off, and with trading on
under uniformly random accepts and offers; each round steps the same
env on from where the last round left it, and building the round's actions
is not timed. ``market_image`` reads a state with pending offers on every
core. The acting bench is one
batched ``forward`` and one ``sample_rows`` over every row of a ``DIST``
agent's stack, one row per unit, on fixed observations and draws.
"""

from dataclasses import replace

import numpy as np
import pytest

from marketsched.agents import ARCH_DIST
from marketsched.baseline import scripted_actions
from marketsched.env import SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.neural import forward, sample_rows
from marketsched.obs import market_image
from marketsched.rng import STREAM_FUZZ, derive_rng

from helpers import random_actions, standalone

pytestmark = pytest.mark.bench


def test_bench_env_step(benchmark):
    scenario = builtin_scenarios()["EXP2_ARCH_4X4"]
    env = SchedulingEnv(replace(scenario.env, trading_enabled=False), seed=1)

    def next_round():
        return (scripted_actions(env),), {}

    benchmark.pedantic(env.step, setup=next_round, rounds=5000, warmup_rounds=200)


def test_bench_env_step_trading(benchmark):
    env = SchedulingEnv(builtin_scenarios()["EXP2_ARCH_4X4"].env, seed=1)
    assert env.config.trading_enabled
    rng = derive_rng(1, STREAM_FUZZ)

    def next_round():
        return (random_actions(env, rng),), {}

    benchmark.pedantic(env.step, setup=next_round, rounds=5000, warmup_rounds=200)


def offers_on_every_core():
    """An EXP2_ARCH_4X4 env one scripted step in: every core has an offer."""
    env = SchedulingEnv(builtin_scenarios()["EXP2_ARCH_4X4"].env, seed=1)
    env.step(scripted_actions(env))
    assert all(env._offer_book)
    return env


def test_bench_market_image(benchmark):
    benchmark.pedantic(market_image, args=(offers_on_every_core(),), rounds=5000,
                       warmup_rounds=200)


def test_bench_forward_and_sample(benchmark):
    scenario = builtin_scenarios()["EXP2_ARCH_4X4"]
    (home,) = standalone((ARCH_DIST,), scenario.env, scenario.hyper, seed=1)
    stack = home.stack
    sets = np.arange(len(stack.rows))
    rng = derive_rng(1, 0)
    obs = rng.standard_normal((len(sets), stack.in_width))
    u, last = rng.random(len(sets)), stack.last_action[sets]
    assert len(sets) == 7

    def act():
        logits, values = forward(stack, obs, sets)
        return sample_rows(logits, u, last), values

    benchmark.pedantic(act, rounds=5000, warmup_rounds=200)
