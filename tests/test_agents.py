"""Architectures, reward routing, parameter sharing, training determinism."""

import gc
import itertools
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from marketsched.agents import (
    ARCHITECTURES,
    ARCH_DIST,
    ARCH_DIST_PRICE,
    ARCH_DIST_PS,
    ARCH_FULL,
    ARCH_SEMI,
    AgentBundle,
    InfeasibleArchitectureError,
    MAX_PRINTABLE,
    PLANS_KEPT,
    Trainer,
    build_homes,
    commercial_price_reward,
    feasibility_guard,
    noncommercial_price_reward,
    route_rewards,
    unit_layout,
)
from marketsched.config import ConfigError, EnvConfig, JobType, PricingMode
from marketsched.env import AUCTIONEER, JointActions, SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.neural import ParamStack, PPOHyper, _openblas_threads, gae
from marketsched.ppo import STATS, TrainBatch, ppo_update
from marketsched.obs import PRICE_OBS_LEN
from marketsched.rng import STREAM_UNIT_INIT, derive_rng

from helpers import (act, book_entries, make_config, manual_config, params_of, place_job,
                     random_actions, stacked, standalone)
import reference
from reference import mixed_radix_decode, plan as reference_plan


class TestUnitLayout:
    def test_distributed_unit_count(self):
        cfg = make_config()  # 2 agents, 2 cores, 3 slots
        specs = unit_layout(ARCH_DIST, cfg)
        assert len(specs) == 2 + 3
        assert {s.key for s in specs} == {("accept", 0), ("accept", 1),
                                          ("offer", 0), ("offer", 1), ("offer", 2)}
        assert all(s.hidden_width == 16 for s in specs)
        assert len({s.param_key for s in specs}) == 5

    def test_parameter_shared_distributed_has_two_sets(self):
        specs = unit_layout(ARCH_DIST_PS, make_config())
        assert len(specs) == 5
        assert {s.param_key for s in specs} == {"accept", "offer"}

    def test_price_architecture_adds_price_units(self):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        specs = unit_layout(ARCH_DIST_PRICE, cfg)
        price = [s for s in specs if s.key[0] == "price"]
        assert len(price) == cfg.num_slots
        assert all(s.action_count == cfg.max_prio + 1 for s in price)
        assert {s.param_key for s in specs} == {"accept", "offer", "price"}

    def test_semi_and_full_sizes(self):
        cfg = make_config()
        semi = {s.key[0]: s for s in unit_layout(ARCH_SEMI, cfg)}
        assert semi["accept"].action_count == 7**2
        assert semi["offer"].action_count == 3**3
        assert semi["accept"].hidden_width == semi["offer"].hidden_width == 32
        full = unit_layout(ARCH_FULL, cfg)
        assert len(full) == 1
        assert full[0].action_count == 49 * 27
        assert full[0].hidden_width == 64


class TestFeasibilityGuard:
    def test_full_rejected_at_four_by_four(self):
        cfg = make_config(num_agents=4, num_cores=4)
        ok, worst = feasibility_guard(ARCH_FULL, cfg)
        assert not ok and worst == 3_570_125
        with pytest.raises(InfeasibleArchitectureError) as err:
            build_homes((ARCH_FULL,) * 4, cfg, PPOHyper(), seed=0)
        assert "3570125" in str(err.value).replace(" ", "").replace(",", "")

    def test_full_allowed_at_two_by_two(self):
        ok, worst = feasibility_guard(ARCH_FULL, make_config())
        assert ok and worst == 1323

    def test_distributed_scales_linearly(self):
        cfg = make_config(num_agents=64, num_cores=64, num_slots=64)
        ok, worst = feasibility_guard(ARCH_DIST, cfg)
        assert ok and worst == 64 * 64 + 1

    def test_a_huge_space_is_multiplied_out_only_past_the_bound(self):
        # FULL on 10^5 slots has an action space of over 47000 digits; the
        # guard stops multiplying once the product passes 2^63 - 1
        ok, worst = feasibility_guard(ARCH_FULL, make_config(num_slots=100_000))
        assert not ok and MAX_PRINTABLE < worst and worst.bit_length() <= 64
        # a larger guard threshold is the bound, and below it the space is exact
        cfg = make_config(num_slots=40, guard_threshold=2**100)
        assert feasibility_guard(ARCH_FULL, cfg) == (True, 81**2 * 3**40)


def parameter_count(arch, cfg):
    """The weights of one agent's parameter sets, counted from the shapes of
    ``unit_layout``, so that no guard cuts a large ``FULL`` off."""
    shapes = {spec.param_key: (spec.obs_width, spec.hidden_width, spec.action_count)
              for spec in unit_layout(arch, cfg)}
    # w1, b1, wp, bp, wv and bv
    return sum(w * h + h + h * a + a + h + 1 for w, h, a in shapes.values())


class TestScaling:
    """C0: splitting an agent into units makes its size linear in the
    market's agents, cores and slots."""

    @staticmethod
    def second_differences(arch, field):
        base = builtin_scenarios()["EXP2_ARCH_2X2"].env
        counts = [parameter_count(arch, replace(base, **{field: n})) for n in range(2, 8)]
        return [a - 2 * b + c for a, b, c in zip(counts, counts[1:], counts[2:])]

    @pytest.mark.parametrize("field", ["num_agents", "num_cores", "num_slots"])
    @pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS])
    def test_split_agents_grow_linearly(self, arch, field):
        assert self.second_differences(arch, field) == [0] * 4

    @pytest.mark.parametrize("field", ["num_agents", "num_cores", "num_slots"])
    @pytest.mark.parametrize("arch", [ARCH_SEMI, ARCH_FULL])
    def test_aggregated_agents_grow_faster_than_linearly(self, arch, field):
        assert all(d > 0 for d in self.second_differences(arch, field))


class TestInitialWeights:
    @pytest.mark.parametrize("scenario, arch, qr_count", [
        ("EXP2_ARCH_2X2", ARCH_DIST, 5), ("EXP2_ARCH_2X2", ARCH_DIST_PS, 5),
        ("EXP2_ARCH_2X2", ARCH_SEMI, 5), ("EXP2_ARCH_2X2", ARCH_FULL, 3),
        ("EXP2_ARCH_4X4", ARCH_DIST, 5), ("EXP3_SCARCITY_2C_COMM", ARCH_DIST_PRICE, 7)])
    def test_a_one_agent_home_matches_a_one_network_init(self, monkeypatch, scenario, arch,
                                                         qr_count):
        # a home orthogonalizes its matrices of one tensor and one shape
        # with one stacked QR (every value head of one hidden width shares
        # one); each set gets the bytes of a QR of its own, and its stream
        # is left where a one-network init leaves it. A home of every agent
        # takes as many QRs as a home of one: all its agents' matrices of
        # one tensor and one shape join the same one
        config = builtin_scenarios()[scenario].env
        streams, qr_calls = {}, []
        qr = np.linalg.qr

        def recorded(seed, *stream):
            streams[stream] = derive_rng(seed, *stream)
            return streams[stream]

        monkeypatch.setattr("marketsched.agents.derive_rng", recorded)
        monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or qr(a))
        alone = standalone((arch,) * config.num_agents, config, PPOHyper(), seed=4)
        # each agent's home takes the same qr_count QRs
        assert qr_calls == qr_calls[:qr_count] * config.num_agents
        for agent, home in enumerate(alone):
            want = ParamStack(home.stack.shapes)
            for index, params in enumerate(want.views):
                rng = derive_rng(4, STREAM_UNIT_INIT, agent, index)
                reference.init_params(params, rng)
                assert streams[STREAM_UNIT_INIT, agent, index].random() == rng.random()
            assert home.stack.rows.tobytes() == want.rows.tobytes()
        qr_calls.clear()
        (home,) = build_homes((arch,) * config.num_agents, config, PPOHyper(), seed=4)
        assert len(qr_calls) == qr_count
        # the w1, policy head and value head of every set of every agent
        assert sum(shape[0] for shape in qr_calls) == 3 * len(home.names)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name, archs, home_count", [
        *((name, None, 1) for name in builtin_scenarios()),
        ("EXP2_ARCH_4X4", (ARCH_DIST, ARCH_DIST_PS) * 2, 1),
        ("EXP2_ARCH_2X2", (ARCH_FULL, ARCH_DIST_PRICE), 2)])
    def test_every_set_of_a_home_is_the_agents_standalone_set(self, name, archs, home_count,
                                                             seed):
        # a home initializes all its agents' sets at once, and each set has
        # the bits of the same set in the agent's home of its own
        scenario = builtin_scenarios()[name]
        archs = archs or scenario.arch
        homes = build_homes(archs, scenario.env, scenario.hyper, seed)
        alone = standalone(archs, scenario.env, scenario.hyper, seed)
        assert len(homes) == home_count
        for home in homes:
            names = []
            for a in sorted(set(home.agents)):
                names += alone[a].names
                for row_name, want in zip(alone[a].names, alone[a].stack.views):
                    got = home.stack.views[home.names.index(row_name)]
                    for (tensor, x), (_, y) in zip(got.tensors(), want.tensors()):
                        assert x.tobytes() == y.tobytes(), (row_name, tensor)
            assert home.names == names
        assert sorted(a for home in homes for a in set(home.agents)) == list(range(len(archs)))
        # perfbench's set-up times an AgentBundle per agent: its stack is the
        # agent's one-agent home's, so that it times the initialization a run does
        for a, own in enumerate(alone):
            stack = AgentBundle(archs[a], a, scenario.env, scenario.hyper, seed).stack
            assert stack.shapes == own.stack.shapes, a
            for field in ("rows", "m", "v", "step_counts"):
                got, want = getattr(stack, field), getattr(own.stack, field)
                assert got.tobytes() == want.tobytes(), (a, field)


class TestBuildHomes:
    @pytest.mark.parametrize("count", [1, 3])
    def test_one_architecture_per_agent_else_config_error(self, count):
        # one architecture too few would leave agent 1 idle for a whole
        # run, and one too many would fail inside the first pass
        env = builtin_scenarios()["EXP1_TRADING"].env
        with pytest.raises(ConfigError, match=f"{count} architectures for 2 agents"):
            build_homes((ARCH_DIST_PS,) * count, env, PPOHyper(), seed=1)

    def test_an_unknown_architecture_is_a_config_error(self):
        env = builtin_scenarios()["EXP1_TRADING"].env
        with pytest.raises(ConfigError, match="unknown architecture 'BOGUS'"):
            build_homes(("BOGUS",) * 2, env, PPOHyper(), seed=1)
        with pytest.raises(ConfigError, match="unknown architecture 'BOGUS'"):
            feasibility_guard("BOGUS", env)

    @pytest.mark.parametrize("name, archs, layouts", [
        ("EXP2_ARCH_4X4", (ARCH_DIST,) * 4, 1),
        ("EXP2_ARCH_4X4", (ARCH_DIST, ARCH_DIST_PS) * 2, 2),
        ("EXP1_TRADING", (ARCH_DIST_PS,) * 2, 1), ("EXP2_ARCH_2X2", (ARCH_FULL,) * 2, 1)])
    def test_each_architecture_is_laid_out_once(self, monkeypatch, name, archs, layouts):
        calls = []
        monkeypatch.setattr("marketsched.agents.unit_layout",
                            lambda *args: calls.append(args[0]) or unit_layout(*args))
        build_homes(archs, builtin_scenarios()[name].env, PPOHyper(), seed=1)
        assert sorted(calls) == sorted(set(archs)) and len(calls) == layouts


class TestPriceRewards:
    def test_commercial(self):
        assert commercial_price_reward(5, 3) == 2
        assert commercial_price_reward(5, 7) == -2
        assert commercial_price_reward(5, 5) == 0.5

    def test_noncommercial(self):
        assert noncommercial_price_reward(8, 8) == 8
        assert noncommercial_price_reward(8, 9) == -1
        assert noncommercial_price_reward(8, 2) == 8


class TestActionWiring:
    def test_distributed_emits_one_action_per_unit(self):
        cfg = make_config()
        env = SchedulingEnv(cfg, seed=1)
        joint = act(build_homes((ARCH_DIST,) * 2, cfg, PPOHyper(), seed=1), env)
        # no cores owned yet: only each agent's 3 offer actions
        assert len(joint.offers) == 2 * 3 and len(joint.accepts) == 0

    def test_semi_decodes_into_per_core_and_per_slot_digits(self):
        cfg = make_config()
        env = SchedulingEnv(cfg, seed=2)
        joint = act(build_homes((ARCH_SEMI,) * 2, cfg, PPOHyper(), seed=2), env)
        assert set(joint.offers) == {(a, k) for a in (0, 1) for k in (0, 1, 2)}
        assert all(0 <= a <= cfg.num_cores for a in joint.offers.values())

    def test_full_covers_cartesian_product(self):
        # every decoded joint action of the aggregated unit corresponds to a
        # tuple of per-core/per-slot sub-actions and vice versa
        cfg = make_config(num_agents=2, num_cores=2, num_slots=2)
        spec = unit_layout(ARCH_FULL, cfg)[0]
        decoded = {tuple(mixed_radix_decode(i, spec.radices))
                   for i in range(spec.action_count)}
        accepts = range(cfg.num_agents * cfg.num_slots + 1)
        offers = range(cfg.num_cores + 1)
        product = set(itertools.product(accepts, accepts, offers, offers))
        assert decoded == product

    def test_accepts_only_owned_cores_and_keeps_few_passes(self):
        cfg = make_config(num_cores=7)  # 128 sets of owned cores
        env = SchedulingEnv(cfg, seed=4)
        homes = build_homes((ARCH_DIST,) * 2, cfg, PPOHyper(), seed=4)
        for mask in range(2 ** cfg.num_cores):
            owned = {m for m in range(cfg.num_cores) if mask >> m & 1}
            for m, core in enumerate(env.cores):
                core.owner = 0 if m in owned else AUCTIONEER
            joint = act(homes, env)
            assert set(joint.accepts) == {(0, m) for m in owned}
            assert len(joint.offers) == 2 * cfg.num_slots
            assert homes[0].plan.cache_info().currsize <= PLANS_KEPT

    @pytest.mark.parametrize("archs", [
        (ARCH_DIST,) * 2, (ARCH_DIST_PS,) * 2, (ARCH_SEMI,) * 2, (ARCH_FULL,) * 2,
        (ARCH_DIST_PRICE,) * 2, (ARCH_DIST_PS, ARCH_DIST)], ids="-".join)
    def test_every_plan_equals_one_built_from_scratch(self, archs):
        # the update-order contract rests on the plans' row order
        cfg = make_config(num_cores=4, num_slots=1)
        (home,) = build_homes(archs, cfg, PPOHyper(), seed=1)
        for owners in [()] + list(itertools.product((AUCTIONEER, 0, 1), repeat=4)):
            plan = home.plan.__wrapped__(owners)  # the uncached builder
            want, offer_digits = reference_plan(home, owners)
            assert home.offer_digits == offer_digits
            for field, got, expected in zip(plan._fields, plan, want, strict=True):
                if isinstance(expected, np.ndarray):
                    assert got.dtype == expected.dtype and np.array_equal(got, expected), field
                else:
                    assert got == expected, field

    def test_a_plan_is_kept_for_the_ownerships_used_last(self):
        (home,) = build_homes((ARCH_DIST,) * 2, make_config(num_cores=4), PPOHyper(), seed=1)
        ownerships = list(itertools.product((AUCTIONEER, 0, 1), repeat=4))[:PLANS_KEPT + 1]
        for owners in ownerships:
            home.plan(owners)
        info = home.plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, PLANS_KEPT + 1, PLANS_KEPT)
        home.plan(ownerships[1])  # the oldest kept
        assert home.plan.cache_info().hits == 1
        home.plan(ownerships[0])  # evicted by the last one
        assert home.plan.cache_info().misses == PLANS_KEPT + 2

    def test_a_home_is_freed_with_its_last_reference(self):
        # a plan cache that referred back to its home would make the home a
        # reference cycle, which only the garbage collector frees
        cfg = make_config()
        env = SchedulingEnv(cfg, seed=1)
        homes = build_homes((ARCH_DIST,) * 2, cfg, PPOHyper(), seed=1)
        act(homes, env)
        assert homes[0].plan.cache_info().currsize == 1
        gc.disable()
        try:
            freed = weakref.ref(homes[0])
            del homes
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.skipif(_openblas_threads() is None or (os.cpu_count() or 1) < 2,
                        reason="no OpenBLAS thread setter, or fewer than 2 CPUs")
    def test_a_wide_home_gives_the_same_bits_on_one_or_two_blas_threads(self):
        # EXP2_ARCH_4X4's SEMI accept head has 28561 actions: OpenBLAS's QR
        # of it, and its product with one row, on two threads are not those
        # on one, so the home initializes it and acts on one thread and then
        # restores the caller's count
        cfg = builtin_scenarios()["EXP2_ARCH_4X4"].env
        query, setter = _openblas_threads()
        threads, homes = query(), []
        try:
            for count in (1, 2):
                setter(count)
                (home,) = standalone((ARCH_SEMI,), cfg, PPOHyper(), seed=5)
                assert home.stack.widest[2] == 28561
                env = SchedulingEnv(cfg, seed=5)
                for core in env.cores:
                    core.owner = 0
                act([home], env)
                assert query() == count and home.sizes.tolist() == [1, 1]
                homes.append([home.stack.rows.tobytes(), home.values[:, 0].tobytes(),
                              home.logps[:, 0].tobytes()])
        finally:
            setter(threads)
        assert homes[0] == homes[1]

    def test_price_units_act_only_for_made_offers(self):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, seed=3)
        joint = act(build_homes((ARCH_DIST_PRICE,) * 2, cfg, PPOHyper(), seed=3), env)
        assert joint.prices
        for (agent, slot), choice in joint.offers.items():
            has_price = (agent, slot) in joint.prices
            wants_offer = choice > 0 and env.slots[agent][slot] is not None
            assert has_price == wants_offer
        for price in joint.prices.values():
            assert 0 <= price <= cfg.max_prio


def credit_log(homes):
    """Make ``homes`` log what ``route_rewards`` credits their units, in
    order, instead of taking it: (agent, unit key, reward) for a reward on
    a unit's latest decision, and (agent, unit key, reward, decision) for a
    price setter's commit of the decision it holds on the last step's offer
    (None if it holds none). Returns the log."""
    log = []
    for home in homes:
        home.credit = lambda u, reward, home=home: log.append(
            (home.agents[u], home.specs[u].key, reward))
        home.resolve_price = lambda u, reward, home=home: log.append(
            (home.agents[u], home.specs[u].key, reward, home.offered.get(u)))
    return log


def trade_fixture(pricing_mode=PricingMode.FIXED):
    """Agent 0 buys core access at 1, then sells it to agent 1 at 8 for a
    priority-8 job on core 1."""
    cfg = manual_config(job_types=(JobType(0, 1, 10, 0.0), JobType(1, 8, 2, 0.0)),
                        num_agents=2, num_cores=2, num_slots=3,
                        pricing_mode=pricing_mode)
    env = SchedulingEnv(cfg, 0)
    place_job(env, 0, 0, type_id=0)
    env.step(JointActions(offers={(0, 0): 2}))  # bid core 1
    env.step(JointActions())
    assert env.cores[1].owner == 0
    place_job(env, 1, 0, type_id=1)
    env.step(JointActions(offers={(1, 0): 2}))
    return cfg, env


class TestRewardRouting:
    def test_offer_acceptance_routes_priority_to_slot_unit(self):
        cfg, env = trade_fixture()
        homes = build_homes((ARCH_DIST, ARCH_DIST), cfg, PPOHyper(), seed=5)
        log = credit_log(homes)
        cell = 1 * cfg.num_slots + 0
        result = env.step(JointActions(accepts={(0, 1): cell + 1}))
        assert len(result.trades) == 1 and result.trades[0].price == 8
        for home in homes:
            route_rewards(home, result)
        assert log == [(1, ("offer", 0), 8.0)]

        # two steps later the prio-8 job terminates; settlement reaches the
        # seller's acceptor for core 1
        result = env.step(JointActions())
        result = env.step(JointActions()) if not result.settlements else result
        payouts = result.settlements[0].payouts
        assert payouts == {AUCTIONEER: 1, 0: 7, 1: 0}
        log.clear()
        for home in homes:
            route_rewards(home, result)
        assert (0, ("accept", 1), 7.0) in log and (1, ("accept", 1), 0.0) in log

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_each_position_credits_the_unit_that_covers_it(self, arch):
        cfg, env = trade_fixture(PricingMode.FREE_COMMERCIAL)
        homes = build_homes((arch, arch), cfg, PPOHyper(), seed=5)
        log = credit_log(homes)
        accept_1 = {ARCH_SEMI: ("accept", 0),
                    ARCH_FULL: ("full", 0)}.get(arch, ("accept", 1))
        offer_0 = ("full", 0) if arch == ARCH_FULL else ("offer", 0)
        (home,) = homes
        for key, pos in ((accept_1, ("accept", 1)), (offer_0, ("offer", 0))):
            assert home.specs[home.at[(0, pos)]].key == key

        cell = 1 * cfg.num_slots + 0
        result = env.step(JointActions(accepts={(0, 1): cell + 1}))
        assert len(result.trades) == 1
        expected = [(1, offer_0, 8.0)]
        if arch == ARCH_DIST_PRICE:  # the matched bid pays 0.5, on the decision held
            decision = (np.zeros(PRICE_OBS_LEN), 8, -1.0, 0.0)
            home.offered[home.at[(1, ("price", 0))]] = decision
            expected.append((1, ("price", 0), 0.5, decision))
        for home in homes:
            route_rewards(home, result)
        assert log == expected

        result = env.step(JointActions())
        result = env.step(JointActions()) if not result.settlements else result
        assert result.settlements[0].payouts == {AUCTIONEER: 1, 0: 7, 1: 0}
        log.clear()
        for home in homes:
            route_rewards(home, result)
        assert log == [(0, accept_1, 7.0), (1, accept_1, 0.0)]

    def test_price_reward_routed_with_offer_alignment(self):
        cfg = manual_config(job_types=(JobType(0, 5, 5, 0.0),),
                            num_agents=1, num_cores=1, num_slots=1,
                            pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, 0)
        (home,) = build_homes((ARCH_DIST_PRICE,), cfg, PPOHyper(), seed=6)
        log = credit_log([home])
        place_job(env, 0, 0)
        offered_at = env.time
        # the decision on the offer, held as Home.act holds it
        decision = (np.zeros(PRICE_OBS_LEN), 3, -1.0, 0.0)
        home.pending[home.at[(0, ("price", 0))]] = decision
        route_rewards(home, env.step(JointActions(offers={(0, 0): 1}, prices={(0, 0): 3})))
        result = env.step(JointActions())
        # the grant of the offer made at offered_at, one step later
        assert result.time == offered_at + 1
        assert [(trade.buyer, trade.source_slot) for trade in result.trades] == [(0, 0)]
        route_rewards(home, result)
        assert [entry for entry in log if entry[1] == ("price", 0)] == [
            (0, ("price", 0), 2.0, decision)]

    def test_every_move_credits_the_offer_unit_outside_the_chain(self):
        # the rule today: each trade an agent buys, the auctioneer's grant
        # and every self-trade alike, credits the buyer's offering-slot unit
        # with the job's priority; settlement payouts sum to the terminal
        # priority, but these credits are not part of any chain, so a job
        # swapped back and forth pays again on every move
        cfg = manual_config(job_types=(JobType(0, 3, 50, 0.0), JobType(1, 5, 50, 0.0)),
                            num_agents=1, num_cores=1, num_slots=2)
        env = SchedulingEnv(cfg, 0)
        (home,) = build_homes((ARCH_DIST,), cfg, PPOHyper(), seed=1)
        log = credit_log([home])
        credited = []

        def step(actions):
            result = env.step(actions)
            assert not result.settlements and not result.completions  # burst 50
            route_rewards(home, result)
            credited.append(list(log))
            log.clear()
            return [(t.buyer, t.seller, t.source_slot) for t in result.trades]

        place_job(env, 0, 0, type_id=0)
        assert step(JointActions(offers={(0, 0): 1})) == []
        assert step(JointActions()) == [(0, AUCTIONEER, 0)]  # the grant
        place_job(env, 0, 1, type_id=1)
        assert step(JointActions(offers={(0, 1): 1})) == []
        assert step(JointActions(accepts={(0, 0): 1 + 1})) == [(0, 0, 1)]  # self-trade
        assert env.slots[0][0].priority == 3  # the displaced job, back on slot 0
        assert step(JointActions(offers={(0, 0): 1})) == []
        assert step(JointActions(accepts={(0, 0): 0 + 1})) == [(0, 0, 0)]  # and back
        assert credited == [[], [(0, ("offer", 0), 3.0)],
                            [], [(0, ("offer", 1), 5.0)],
                            [], [(0, ("offer", 0), 3.0)]]

    def test_totality_against_step_payouts(self):
        # routed rewards over all homes = settlements to agents
        # + mediated priorities + price rewards, never the auctioneer income
        cfg = make_config(job_types=(JobType(0, 2, 4, 0.5), JobType(1, 5, 2, 0.3)),
                          pricing_mode=PricingMode.FREE_NONCOMMERCIAL)
        env = SchedulingEnv(cfg, seed=8)
        homes = build_homes((ARCH_DIST_PRICE,) * cfg.num_agents, cfg, PPOHyper(), seed=8)
        trainer = Trainer(env, homes)
        log = credit_log(homes)
        for _ in range(400):
            log.clear()
            result = trainer.step()
            routed_total = sum(entry[2] for entry in log)
            settle_agents = sum(v for s in result.settlements
                                for p, v in s.payouts.items() if p != AUCTIONEER)
            offered = sum(t.job_priority for t in result.trades)
            priced = sum(
                noncommercial_price_reward(t.job_priority, t.price)
                for t in result.trades)
            assert routed_total == settle_agents + offered + priced


    @pytest.mark.parametrize("mode", list(PricingMode), ids=lambda mode: mode.name)
    def test_one_walk_of_a_home_routes_as_each_agent_alone(self, mode):
        # a DIST_PRICE home of two agents against one home per agent, on
        # random actions in EXP4's market, where a settlement now and then
        # pays both agents; every offer with a bid leaves a price decision
        # held in both, which the next step's trade commits or its routing drops
        scenario = builtin_scenarios()["EXP4_PRICING_COMM"]
        cfg = replace(scenario.env, pricing_mode=mode)
        env = SchedulingEnv(cfg, seed=26)
        rng = derive_rng(26, 0)
        (home,) = build_homes((ARCH_DIST_PRICE,) * 2, cfg, PPOHyper(), seed=26)
        alone = standalone((ARCH_DIST_PRICE,) * 2, cfg, PPOHyper(), seed=26)
        together, each = credit_log([home]), [credit_log([one]) for one in alone]
        logged, held_any, paid_both = [], False, 0
        decision = (np.zeros(PRICE_OBS_LEN), 0, 0.0, 0.0)
        for _ in range(400):
            actions = random_actions(env, rng)
            for one in [home] + alone:
                for a, k, u in one.setters:
                    if (a, k) in actions.prices:
                        one.pending[u] = decision
            result = env.step(actions)
            together.clear()
            for log in each:
                log.clear()
            route_rewards(home, result)
            for one in alone:
                route_rewards(one, result)
            for agent, log in enumerate(each):
                assert [entry for entry in together if entry[0] == agent] == log
            assert len(together) == sum(map(len, each))
            held = {(a, k) for a, k, u in home.setters if u in home.offered}
            assert held == {(a, k) for one in alone for a, k, u in one.setters
                            if u in one.offered}
            # only the decisions on this step's offers are held
            assert held == set(actions.prices)
            assert not home.pending and not any(one.pending for one in alone)
            logged += together
            held_any = held_any or bool(held)
            paid_both += sum({0, 1} <= set(s.payouts) for s in result.settlements)
        assert paid_both
        kinds = {(entry[1][0], len(entry)) for entry in logged}
        assert kinds == {("accept", 3), ("offer", 3), ("price", 4)}
        assert held_any == mode.is_free


class TestUnitBookkeeping:
    """What a home keeps per unit besides its rollout window: the rewards
    that arrived before its first decision, its update count and its last
    update's stats."""

    def test_a_reward_before_the_first_decision_is_dropped(self):
        cfg, env = trade_fixture()
        (home,) = build_homes((ARCH_DIST, ARCH_DIST), cfg, PPOHyper(), seed=5)
        home.rewards[...] = np.nan
        result = env.step(JointActions(accepts={(0, 1): 1 * cfg.num_slots + 1}))
        assert len(result.trades) == 1
        route_rewards(home, result)
        dropped = {(a, spec.key): r for a, spec, r in zip(home.agents, home.specs, home.dropped)}
        assert {at: r for at, r in dropped.items() if r} == {(1, ("offer", 0)): 8.0}
        assert not home.sizes.any() and np.isnan(home.rewards).all()

    def test_one_update_is_counted_with_its_stats(self):
        cfg = make_config()
        hyper = PPOHyper(rollout_length=16, minibatch_size=8, epochs=1)
        env = SchedulingEnv(cfg, seed=9)
        homes = build_homes((ARCH_DIST,) * 2, cfg, hyper, seed=9)
        trainer = Trainer(env, homes)
        (home,) = homes
        u = home.at[(0, ("offer", 0))]
        assert home.stats[u] == {}
        while not home.updates[u]:
            trainer.step()
        assert home.updates[u] == 1
        stats = home.stats[u]
        assert set(stats) == set(STATS) | {"minibatches"}
        assert all(np.isfinite(stats[key]) for key in STATS)
        assert stats["minibatches"] == 2  # one epoch of 16 rows in minibatches of 8

    def test_a_window_is_a_row_of_the_homes_arrays(self, monkeypatch):
        # unit u's window is row u of its home's arrays, its observations
        # padded to the home's widest width
        hyper = PPOHyper(rollout_length=4, minibatch_size=2, epochs=1)
        (home,) = build_homes((ARCH_DIST,) * 2, make_config(), hyper, seed=3)
        wide = home.at[(0, ("accept", 0))]
        u, v = home.at[(0, ("offer", 1))], home.at[(0, ("offer", 2))]
        assert (home.specs[wide].obs_width, home.specs[u].obs_width, v - u) == (27, 9, 1)
        assert home.obs.shape == (10, 4, 27) and home.actions.shape == (10, 4)

        def record(ids, *row):  # at each unit's next row, as a pass records
            home.record(ids, ids * home.length + home.sizes[ids], *row)

        for i in range(3):
            record(wide, np.full(27, float(i)), i, -0.1, 0.0)
            home.credit(wide, 1.0)
            record(u + i % 2, np.full(9, float(i)), i, -0.2, 0.5)
        assert home.sizes[[wide, u, v]].tolist() == [3, 2, 1]
        # one row each for units v and wide in one call, as a pass writes
        # them: v's row is padded to the home's width, its reward left 0.0
        record(np.array([v, wide]), np.array([[7.0] * 9 + [np.nan] * 18, [3.0] * 27]),
               np.array([5, 3]), np.array([-0.3, -0.1]), np.array([0.25, 0.0]))
        assert home.sizes[[wide, u, v]].tolist() == [4, 2, 2]
        assert home.rewards[wide].tolist() == [1.0, 1.0, 1.0, 0.0]
        for _ in range(2):  # rows narrower than the home, in one call
            record(np.array([u, v]), np.full((2, 9), 8.0), np.array([2, 2]),
                   np.array([-0.4, -0.4]), np.array([0.0, 0.0]))
        batches = []

        def captured(stack, sets, batch, hyper, rngs):
            batches.append((sets, batch, np.shares_memory(batch.obs, home.obs)))
            return [{}] * len(sets)

        monkeypatch.setattr("marketsched.agents.ppo_update", captured)
        home.update([wide], [0.5])
        (sets, batch, shared), = batches
        assert sets == [home.sets[wide]] and batch.obs.shape == (1, 4, 27)
        assert batch.actions.tolist() == [[0, 1, 2, 3]]
        assert batch.obs[0, :, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert batch.logp_old.tolist() == [[-0.1] * 4]
        assert home.sizes[[wide, u, v]].tolist() == [0, 4, 4] and home.updates[wide] == 1
        # units u and v are a run: a view of their windows' first 9 columns
        home.update([u, v], [0.0, 0.0])
        (sets, pair, shared) = batches[-1]
        assert sets == home.sets[[u, v]].tolist() and pair.obs.shape == (2, 4, 9) and shared
        assert pair.obs[1, :2].tolist() == [[1.0] * 9, [7.0] * 9]
        assert pair.actions[1, :2].tolist() == [1, 5]
        assert pair.logp_old[1, :2].tolist() == [-0.2, -0.3]
        assert home.sizes[[wide, u, v]].tolist() == [0, 0, 0]
        home.sizes[[u, v]] = hyper.rollout_length  # the rows are still there
        home.update([v, u], [0.0, 0.0])
        (sets, swapped, shared) = batches[-1]
        assert swapped.obs.shape == (2, 4, 9) and not shared
        assert swapped.obs[0, :2].tolist() == [[1.0] * 9, [7.0] * 9]

    def test_a_price_commit_that_fills_the_window_updates_at_once(self, monkeypatch):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        hyper = PPOHyper(rollout_length=4, minibatch_size=2, epochs=1)
        (home,) = build_homes((ARCH_DIST_PRICE,) * 2, cfg, hyper, seed=24)
        bootstraps = []

        def logged_gae(rewards, values, bootstrap, discount, lam):
            bootstraps.append(bootstrap)
            return gae(rewards, values, bootstrap, discount, lam)

        monkeypatch.setattr("marketsched.agents.gae", logged_gae)
        u = home.at[(0, ("price", 0))]
        steps = list(home.stack.steps)
        for size in range(hyper.rollout_length):
            assert home.updates[u] == 0 and home.sizes[u] == size
            home.offered[u] = (np.full(PRICE_OBS_LEN, 0.5), 2, -1.5, 0.25)
            home.resolve_price(u, 0.5)
            assert u not in home.offered
        assert home.updates[u] == 1 and home.sizes[u] == 0 and bootstraps == [0.0]
        assert home.stack.steps != steps  # the price set took its Adam steps

    def test_a_closed_window_starts_again_from_zero_rewards(self):
        # rewards enter a window only through credit: the update that closes
        # one zeroes its rewards, so row 0 then holds the next pass's
        # routed reward alone
        cfg = make_config()
        env = SchedulingEnv(cfg, seed=5)
        hyper = PPOHyper(rollout_length=4, minibatch_size=2, epochs=1)
        (home,) = build_homes((ARCH_DIST,) * 2, cfg, hyper, seed=5)
        u = home.at[(0, ("offer", 0))]
        paid = 0
        for _ in range(400):
            closing = home.sizes[u] == home.length and home.rewards[u].any()
            updates = home.updates[u]
            joint = act([home], env)
            if closing:
                assert home.updates[u] == updates + 1 and not home.rewards[u].any()
            result = env.step(joint)
            route_rewards(home, result)
            if closing:
                routed = [float(trade.job_priority) for trade in result.trades
                          if (trade.buyer, trade.source_slot) == (0, 0)]
                assert home.rewards[u].tolist() == [sum(routed), 0.0, 0.0, 0.0]
                paid += bool(routed)
        assert paid

    def test_a_committed_price_is_credited_to_the_setters_newest_row(self):
        scenario = builtin_scenarios()["EXP3_SCARCITY_2C_COMM"]
        env = SchedulingEnv(scenario.env, 1)
        homes = build_homes(scenario.arch, scenario.env,
                            replace(scenario.hyper, rollout_length=4), 1)
        trainer = Trainer(env, homes)
        reopened = 0
        for _ in range(600):
            sizes = [home.sizes.copy() for home in homes]
            result = trainer.step()
            for home, before in zip(homes, sizes):
                for trade in result.trades:
                    u = home.at.get((trade.buyer, ("price", trade.source_slot)))
                    if u is None or home.sizes[u] == before[u]:
                        continue  # no setter, or no decision held on the offer
                    if home.sizes[u]:
                        reward = commercial_price_reward(trade.job_priority, trade.price)
                        assert home.rewards[u, home.sizes[u] - 1] == reward != 0.0
                        reopened += home.updates[u] > 0
                    else:  # the commit filled the window, which its update closed
                        assert not home.rewards[u].any()
        assert reopened


class TestTraining:
    def test_offer_buffers_fill_then_empty(self):
        cfg = make_config()
        hyper = PPOHyper(rollout_length=16, minibatch_size=8, epochs=1)
        env = SchedulingEnv(cfg, seed=9)
        homes = build_homes((ARCH_DIST,) * 2, cfg, hyper, seed=9)
        trainer = Trainer(env, homes)
        (home,) = homes
        u = home.at[(0, ("offer", 0))]
        seen_full = False
        for i in range(40):
            trainer.step()
            assert home.sizes[u] <= 16
            seen_full = seen_full or home.updates[u] > 0
        assert seen_full
        # a sample closes when the next one opens, so the window of 16
        # closed samples completes at acts 16 and 32 within 40 steps
        assert home.updates[u] == 2

    def test_parameter_sharing_stays_bitwise_identical(self):
        cfg = make_config()
        hyper = PPOHyper(rollout_length=8, minibatch_size=4, epochs=2)
        env = SchedulingEnv(cfg, seed=10)
        homes = build_homes((ARCH_DIST_PS,) * 2, cfg, hyper, seed=10)
        trainer = Trainer(env, homes)
        for _ in range(200):
            trainer.step()
        (home,) = homes
        assert home.updates[home.at[(0, ("offer", 0))]] + home.updates[
            home.at[(0, ("offer", 1))]] > 0
        for kind in ("accept", "offer"):
            tensors = [dict(params_of(home, 0, spec.param_key).tensors())
                       for spec in unit_layout(ARCH_DIST_PS, cfg) if spec.key[0] == kind]
            assert len(tensors) == {"accept": cfg.num_cores, "offer": cfg.num_slots}[kind]
            for other in tensors[1:]:
                for name in tensors[0]:
                    assert np.array_equal(tensors[0][name], other[name])

    def test_training_trace_is_deterministic(self):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        hyper = PPOHyper(rollout_length=32, minibatch_size=16, epochs=2)

        def run():
            env = SchedulingEnv(cfg, seed=11)
            homes = build_homes((ARCH_DIST_PRICE,) * 2, cfg, hyper, seed=11)
            trainer = Trainer(env, homes)
            trace = []
            for _ in range(300):
                result = trainer.step()
                trace.append((len(result.trades), result.auctioneer_income,
                              tuple(sorted((t.buyer, t.price) for t in result.trades))))
            params = [dict(params_of(home, a, spec.param_key).tensors())
                      for home in homes for a, spec in zip(home.agents, home.specs)]
            return trace, params

        trace_a, params_a = run()
        trace_b, params_b = run()
        assert trace_a == trace_b
        for pa, pb in zip(params_a, params_b):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])

    def test_unaccepted_price_offers_leave_no_sample(self):
        cfg = manual_config(job_types=(JobType(0, 5, 5, 0.0),),
                            num_agents=2, num_cores=1, num_slots=1,
                            pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, 0)
        (home,) = build_homes((ARCH_DIST_PRICE,) * 2, cfg, PPOHyper(), seed=12)
        place_job(env, 0, 0)
        # core 0 is taken by a competitor with a higher bid next step
        competitor = place_job(env, 1, 0)
        u = home.at[(0, ("price", 0))]
        home.pending[u] = (np.zeros(PRICE_OBS_LEN), 2, -1.0, 0.0)
        route_rewards(home, env.step(JointActions(offers={(0, 0): 1, (1, 0): 1},
                                                  prices={(0, 0): 2, (1, 0): 5})))
        assert book_entries(env, 0) and u in home.offered
        result = env.step(JointActions())
        assert result.trades[0].buyer == 1  # our offer lost
        route_rewards(home, result)
        assert home.sizes[u] == 0 and u not in home.offered and not home.pending



def learned_state(home):
    return [getattr(home.stack, name).tobytes() for name in ("rows", "m", "v", "step_counts")]


def accept_window(home, name, seed, size=64):
    """A window of ``size`` random rows for the set ``name`` of ``home``,
    as ``ppo_update`` takes it, and the set's row."""
    index = home.names.index(name)
    params, rng = home.stack.views[index], derive_rng(seed, 0)
    batch = TrainBatch(obs=rng.standard_normal((size, params.in_width)),
                       actions=rng.integers(0, params.action_count, size),
                       logp_old=np.full(size, -1.0), advantages=rng.standard_normal(size),
                       returns=rng.standard_normal(size))
    return stacked(batch), index


class TestCheckpointing:
    """A home saves and loads the learned state of all its agents as one
    file, its rows named ``agent<A>/<key>``."""

    def test_home_checkpoint_roundtrip(self, tmp_path):
        cfg = make_config()
        (home,) = build_homes((ARCH_DIST_PS,) * 2, cfg, PPOHyper(), seed=13)
        path = tmp_path / "home.npz"
        home.save(path)
        with np.load(path) as data:
            assert data["names"].tolist() == ["agent0/accept", "agent0/offer",
                                              "agent1/accept", "agent1/offer"]
        (other,) = build_homes((ARCH_DIST_PS,) * 2, cfg, PPOHyper(), seed=99)
        assert learned_state(other) != learned_state(home)
        other.load(path)
        assert learned_state(other) == learned_state(home)
        assert other.names == home.names
        for mine, theirs in zip(home.stack.views, other.stack.views):
            for (name, a), (_, b) in zip(mine.tensors(), theirs.tensors()):
                assert np.array_equal(a, b)

    def test_mismatched_architecture_rejected(self, tmp_path):
        cfg = make_config()
        build_homes((ARCH_DIST_PS,) * 2, cfg, PPOHyper(), seed=14)[0].save(tmp_path / "x.npz")
        with pytest.raises(ValueError):
            build_homes((ARCH_FULL,) * 2, cfg, PPOHyper(), seed=14)[0].load(tmp_path / "x.npz")

    def test_loaded_home_trains_on_as_the_saved_one(self, tmp_path):
        # the Adam moments and step counts travel with the weights, so the
        # next update of a loaded home is the saved home's next update
        scenario = builtin_scenarios()["EXP1_TRADING"]
        (saved,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=3)
        batch, index = accept_window(saved, "agent1/accept", seed=3)
        ppo_update(saved.stack, [index], batch, scenario.hyper, [derive_rng(3, 1)])
        saved.save(tmp_path / "home.npz")
        (loaded,) = build_homes(scenario.arch, scenario.env, scenario.hyper, seed=4)
        loaded.load(tmp_path / "home.npz")
        assert learned_state(loaded) == learned_state(saved)
        for home in (saved, loaded):
            ppo_update(home.stack, [index], batch, scenario.hyper, [derive_rng(3, 2)])
        assert learned_state(loaded) == learned_state(saved)

    def test_checkpoint_moves_between_trainer_and_standalone_homes(self, tmp_path):
        # a trained home's checkpoint loads into a home no Trainer steps,
        # and back; the load goes into the rows the pass and the agents'
        # parameter sets read
        cfg = make_config()
        hyper = PPOHyper(rollout_length=8, minibatch_size=4, epochs=2)
        env = SchedulingEnv(cfg, seed=16)
        homes = build_homes((ARCH_DIST_PS, ARCH_DIST_PS), cfg, hyper, seed=16)
        trainer = Trainer(env, homes)
        for _ in range(40):
            trainer.step()
        (trained,) = homes
        assert any(trained.stack.steps)
        trained.save(tmp_path / "trained.npz")
        (fresh,) = build_homes((ARCH_DIST_PS, ARCH_DIST_PS), cfg, hyper, seed=17)
        fresh.load(tmp_path / "trained.npz")
        assert learned_state(fresh) == learned_state(trained)

        (other,) = build_homes((ARCH_DIST_PS, ARCH_DIST_PS), cfg, hyper, seed=18)
        batch, index = accept_window(other, "agent1/offer", seed=18, size=16)
        ppo_update(other.stack, [index], batch, hyper, [derive_rng(18, 1)])
        other.save(tmp_path / "other.npz")
        trained.load(tmp_path / "other.npz")
        assert learned_state(trained) == learned_state(other)
        for (_, got), (_, want) in zip(params_of(trained, 1, "offer").tensors(),
                                       params_of(other, 1, "offer").tensors()):
            assert got.tobytes() == want.tobytes()

    def test_mismatched_names_or_row_shape_rejected(self, tmp_path):
        cfg = make_config()
        (home,) = build_homes((ARCH_DIST_PS,) * 2, cfg, PPOHyper(), seed=15)
        before = learned_state(home)
        home.stack.save(tmp_path / "names.npz", home.names[::-1])
        build_homes((ARCH_DIST_PS,) * 2, make_config(num_slots=4), PPOHyper(),
                    seed=15)[0].save(tmp_path / "shape.npz")
        with pytest.raises(ValueError, match="parameter sets"):
            home.load(tmp_path / "names.npz")
        with pytest.raises(ValueError, match="checkpoint rows of shape"):
            home.load(tmp_path / "shape.npz")
        assert learned_state(home) == before
