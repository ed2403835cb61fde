"""Layer benches: the acting pass on a fixed env state.

Deselected by default; run with ``python -m pytest -m bench``. The state is
a builtin scenario after 30 scripted steps, so agents own cores and the
offer books are not empty (on EXP2_ARCH_2X2 agent 0 owns one). ``test_bench_act`` times
``Home.act`` for every EXP2_ARCH_2X2 agent; ``test_bench_trainer_step`` one
``Trainer.step`` of every EXP2_ARCH_4X4 ``DIST`` agent, the acting pass
over the home's rows plus the market step and reward routing. Each round
of these starts from that same state with every rollout window empty, so
no policy update is timed and the pass records all its rows at once.
``test_bench_act_on_new_ownership`` times ``Home.act`` for every
EXP2_ARCH_4X4 ``DIST`` agent with the cores' owners set to the next of all
5^4 ownerships each round, so that every pass builds its plan anew and
gathers its parameter sets anew. ``test_bench_plan_lookup`` times
``Home.plan`` on the recurring ownership of that state, a cache hit.
``test_bench_trainer_step_with_update`` times one ``Trainer.step`` of the
EXP1_TRADING ``DIST_PS`` agents in which the window of agent 0's first
offer unit is full: the pass updates that unit's shared parameter set
mid-pass, records the pass in two waves, and forwards the rows of the
second wave again before it. ``test_bench_act_with_three_due`` times
``Home.act`` for the EXP1_TRADING ``DIST_PS`` agents with all three of
agent 0's offer units due: their shared set updates in each of three
waves, and the rows of waves 1 and 2 are forwarded again before their
wave. ``test_bench_act_with_price_pass`` times ``Home.act`` for the
EXP4_PRICING_COMM ``DIST_PRICE`` agents, whose price setters act in a
second pass over the offers just made, with no window due.
"""

import copy
import itertools

import pytest

from marketsched.agents import (
    ARCH_DIST,
    ARCH_DIST_PRICE,
    ARCH_DIST_PS,
    ARCH_FULL,
    ARCH_SEMI,
    PLANS_KEPT,
    Trainer,
    build_homes,
)
from marketsched.baseline import scripted_actions
from marketsched.env import AUCTIONEER, JointActions, SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.obs import market_image

from helpers import book_entries

pytestmark = pytest.mark.bench


def fixed_state(name):
    scenario = builtin_scenarios()[name]
    env = SchedulingEnv(scenario.env, seed=1)
    for _ in range(30):
        env.step(scripted_actions(env))
    assert any(core.owner != AUCTIONEER for core in env.cores) and book_entries(env)
    return scenario, env


@pytest.mark.parametrize("arch", [ARCH_DIST_PS, ARCH_DIST, ARCH_SEMI, ARCH_FULL])
def test_bench_act(arch, benchmark):
    scenario, env = fixed_state("EXP2_ARCH_2X2")
    assert any(core.owner == 0 for core in env.cores)
    (home,) = build_homes((arch,) * scenario.env.num_agents, scenario.env, scenario.hyper,
                          seed=1)
    image = market_image(env)

    def fresh_round():
        home.sizes[:] = 0
        return (env, JointActions(), image), {}

    benchmark.pedantic(home.act, setup=fresh_round, rounds=2000, warmup_rounds=50)


def test_bench_act_on_new_ownership(benchmark):
    scenario, env = fixed_state("EXP2_ARCH_4X4")
    assert scenario.arch == (ARCH_DIST,) * scenario.env.num_agents
    (home,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    image = market_image(env)
    # consecutive ownerships differ, and one recurs only after more than
    # PLANS_KEPT others
    ownerships = list(itertools.product(range(AUCTIONEER, scenario.env.num_agents),
                                        repeat=scenario.env.num_cores))
    assert len(ownerships) > PLANS_KEPT
    rounds = itertools.cycle(ownerships)
    ran = []

    def new_ownership():
        ran.append(next(rounds))
        for core, owner in zip(env.cores, ran[-1]):
            core.owner = owner
        home.sizes[:] = 0
        return (env, JointActions(), image), {}

    benchmark.pedantic(home.act, setup=new_ownership, rounds=2000, warmup_rounds=50)
    assert home.plan.cache_info().currsize == min(len(ran), PLANS_KEPT)


def test_bench_plan_lookup(benchmark):
    scenario, env = fixed_state("EXP2_ARCH_4X4")
    assert scenario.arch == (ARCH_DIST,) * scenario.env.num_agents
    (home,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    owners = tuple([core.owner for core in env.cores])
    plan = home.plan(owners)
    assert benchmark(home.plan, owners) is plan
    assert home.plan.cache_info().misses == 1


def test_bench_trainer_step(benchmark):
    scenario, env = fixed_state("EXP2_ARCH_4X4")
    assert scenario.arch == (ARCH_DIST,) * scenario.env.num_agents
    homes = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    trainer = Trainer(env, homes)
    (home,) = homes

    def fresh_round():
        trainer.env = copy.deepcopy(env)
        home.sizes[:] = 0
        return (), {}

    benchmark.pedantic(trainer.step, setup=fresh_round, rounds=2000, warmup_rounds=50)
    assert not any(home.updates)


def test_bench_trainer_step_with_update(benchmark):
    scenario, env = fixed_state("EXP1_TRADING")
    assert scenario.arch == (ARCH_DIST_PS,) * scenario.env.num_agents
    homes = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    trainer = Trainer(env, homes)
    (home,) = homes
    due, later = home.at[(0, ("offer", 0))], home.at[(0, ("offer", 1))]
    assert home.sets[due] == home.sets[later] and due < later
    # a finite window for the update to read
    for field in (home.obs, home.logps, home.values):
        field[due] = 0.0
    home.actions[due], home.rewards[due] = 0, 1.0

    ran = []

    def fresh_round():
        ran.append(None)
        trainer.env = copy.deepcopy(env)
        home.sizes[:] = 0
        home.sizes[due] = home.length
        return (), {}

    benchmark.pedantic(trainer.step, setup=fresh_round, rounds=300, warmup_rounds=10)
    assert home.updates[due] == len(ran) and not home.updates[later]


def test_bench_act_with_three_due(benchmark):
    scenario, env = fixed_state("EXP1_TRADING")
    assert scenario.arch == (ARCH_DIST_PS,) * scenario.env.num_agents
    (home,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    due = [home.at[(0, ("offer", k))] for k in range(scenario.env.num_slots)]
    assert len(due) == 3 and len({int(home.sets[u]) for u in due}) == 1
    # finite windows for the updates to read
    for field in (home.obs, home.logps, home.values):
        field[due] = 0.0
    home.actions[due], home.rewards[due] = 0, 1.0
    image = market_image(env)

    ran = []

    def fresh_round():
        ran.append(None)
        home.sizes[:] = 0
        home.sizes[due] = home.length
        return (env, JointActions(), image), {}

    benchmark.pedantic(home.act, setup=fresh_round, rounds=100, warmup_rounds=5)
    assert [home.updates[u] for u in due] == [len(ran)] * 3


def test_bench_act_with_price_pass(benchmark):
    scenario, env = fixed_state("EXP4_PRICING_COMM")
    assert scenario.arch == (ARCH_DIST_PRICE,) * scenario.env.num_agents
    (home,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=1)
    image = market_image(env)
    priced = []  # the offers each pass priced, read before the next round

    def fresh_round():
        home.sizes[:] = 0
        priced.append(len(home.pending))
        home.pending = {}
        return (env, JointActions(), image), {}

    benchmark.pedantic(home.act, setup=fresh_round, rounds=2000, warmup_rounds=50)
    # the first round follows no pass
    priced = priced[1:] + [len(home.pending)]
    # nearly every pass prices offers: a uniform policy makes none with
    # probability 3^-6
    assert sum(map(bool, priced)) > 0.9 * len(priced)
