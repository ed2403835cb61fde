"""Architectures, reward routing, parameter sharing, training determinism."""

import itertools

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
    Trainer,
    UnitReward,
    build_bundles,
    commercial_price_reward,
    feasibility_guard,
    noncommercial_price_reward,
    route_rewards,
    unit_layout,
)
from marketsched.config import EnvConfig, JobType, PricingMode
from marketsched.env import AUCTIONEER, JointActions, SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.neural import PPOHyper, TrainBatch, ppo_update
from marketsched.rng import derive_rng

from helpers import make_config, manual_config, place_job
from reference import mixed_radix_decode


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
            AgentBundle(ARCH_FULL, 0, cfg, PPOHyper(), seed=0)
        assert "3570125" in str(err.value).replace(" ", "").replace(",", "")

    def test_full_allowed_at_two_by_two(self):
        ok, worst = feasibility_guard(ARCH_FULL, make_config())
        assert ok and worst == 1323

    def test_distributed_scales_linearly(self):
        cfg = make_config(num_agents=64, num_cores=64, num_slots=64)
        ok, worst = feasibility_guard(ARCH_DIST, cfg)
        assert ok and worst == 64 * 64 + 1


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
        bundle = AgentBundle(ARCH_DIST, 0, cfg, PPOHyper(), seed=1)
        joint = JointActions()
        bundle.act(env, joint)
        # no cores owned yet: only the 3 offer actions
        assert len(joint.offers) == 3 and len(joint.accepts) == 0

    def test_semi_decodes_into_per_core_and_per_slot_digits(self):
        cfg = make_config()
        env = SchedulingEnv(cfg, seed=2)
        bundle = AgentBundle(ARCH_SEMI, 0, cfg, PPOHyper(), seed=2)
        joint = JointActions()
        bundle.act(env, joint)
        assert set(joint.offers) == {(0, 0), (0, 1), (0, 2)}
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
        bundle = AgentBundle(ARCH_DIST, 0, cfg, PPOHyper(), seed=4)
        for mask in range(2 ** cfg.num_cores):
            owned = {m for m in range(cfg.num_cores) if mask >> m & 1}
            for m, core in enumerate(env.cores):
                core.owner = 0 if m in owned else AUCTIONEER
            joint = JointActions()
            bundle.act(env, joint)
            assert set(joint.accepts) == {(0, m) for m in owned}
            assert len(joint.offers) == cfg.num_slots
            assert len(bundle._passes) <= 64

    def test_price_units_act_only_for_made_offers(self):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, seed=3)
        bundle = AgentBundle(ARCH_DIST_PRICE, 0, cfg, PPOHyper(), seed=3)
        joint = JointActions()
        bundle.act(env, joint)
        for (agent, slot), choice in joint.offers.items():
            has_price = (agent, slot) in joint.prices
            wants_offer = choice > 0 and env.slots[agent][slot] is not None
            assert has_price == wants_offer
        for price in joint.prices.values():
            assert 0 <= price <= cfg.max_prio


class TestRewardRouting:
    def trade_fixture(self, pricing_mode=PricingMode.FIXED):
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

    def test_offer_acceptance_routes_priority_to_slot_unit(self):
        cfg, env = self.trade_fixture()
        bundles = [AgentBundle(ARCH_DIST, a, cfg, PPOHyper(), seed=5) for a in (0, 1)]
        cell = 1 * cfg.num_slots + 0
        result = env.step(JointActions(accepts={(0, 1): cell + 1}))
        assert len(result.trades) == 1 and result.trades[0].price == 8
        routed = route_rewards(bundles[1], result)
        assert UnitReward(("offer", 0), result.time, 8.0) in routed
        assert route_rewards(bundles[0], result) == []

        # two steps later the prio-8 job terminates; settlement reaches the
        # seller's acceptor for core 1
        result = env.step(JointActions())
        result = env.step(JointActions()) if not result.settlements else result
        payouts = result.settlements[0].payouts
        assert payouts == {AUCTIONEER: 1, 0: 7, 1: 0}
        routed0 = route_rewards(bundles[0], result)
        assert UnitReward(("accept", 1), result.time, 7.0) in routed0
        routed1 = route_rewards(bundles[1], result)
        assert UnitReward(("accept", 1), result.time, 0.0) in routed1

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_each_position_credits_the_unit_that_covers_it(self, arch):
        cfg, env = self.trade_fixture(PricingMode.FREE_COMMERCIAL)
        bundles = [AgentBundle(arch, a, cfg, PPOHyper(), seed=5) for a in (0, 1)]
        accept_1 = {ARCH_SEMI: ("accept", 0),
                    ARCH_FULL: ("full", 0)}.get(arch, ("accept", 1))
        offer_0 = ("full", 0) if arch == ARCH_FULL else ("offer", 0)
        for key, pos in ((accept_1, ("accept", 1)), (offer_0, ("offer", 0))):
            assert pos in bundles[0].units[key].spec.positions

        cell = 1 * cfg.num_slots + 0
        result = env.step(JointActions(accepts={(0, 1): cell + 1}))
        (trade,) = result.trades
        expected = [UnitReward(offer_0, result.time, 8.0)]
        if arch == ARCH_DIST_PRICE:  # the matched bid pays 0.5
            expected.append(UnitReward(("price", 0), result.time, 0.5,
                                       offer_made_at=trade.made_at))
        assert route_rewards(bundles[1], result) == expected
        assert route_rewards(bundles[0], result) == []

        result = env.step(JointActions())
        result = env.step(JointActions()) if not result.settlements else result
        assert result.settlements[0].payouts == {AUCTIONEER: 1, 0: 7, 1: 0}
        assert route_rewards(bundles[0], result) == [UnitReward(accept_1, result.time, 7.0)]
        assert route_rewards(bundles[1], result) == [UnitReward(accept_1, result.time, 0.0)]

    def test_price_reward_routed_with_offer_alignment(self):
        cfg = manual_config(job_types=(JobType(0, 5, 5, 0.0),),
                            num_agents=1, num_cores=1, num_slots=1,
                            pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, 0)
        place_job(env, 0, 0)
        made_at = env.time
        env.step(JointActions(offers={(0, 0): 1}, prices={(0, 0): 3}))
        result = env.step(JointActions())
        bundle = AgentBundle(ARCH_DIST_PRICE, 0, cfg, PPOHyper(), seed=6)
        routed = route_rewards(bundle, result)
        price_rewards = [r for r in routed if r.unit == ("price", 0)]
        assert price_rewards == [UnitReward(("price", 0), result.time, 2.0,
                                            offer_made_at=made_at)]

    def test_totality_against_step_payouts(self):
        # routed rewards over all bundles = settlements to agents
        # + mediated priorities + price rewards, never the auctioneer income
        cfg = make_config(job_types=(JobType(0, 2, 4, 0.5), JobType(1, 5, 2, 0.3)),
                          pricing_mode=PricingMode.FREE_NONCOMMERCIAL)
        env = SchedulingEnv(cfg, seed=8)
        bundles = [AgentBundle(ARCH_DIST_PRICE, a, cfg, PPOHyper(), seed=8)
                   for a in range(cfg.num_agents)]
        trainer = Trainer(env, bundles)
        for _ in range(400):
            joint = JointActions()
            for b in bundles:
                b.act(env, joint)
            result = env.step(joint)
            routed_total = sum(
                ur.reward for b in bundles for ur in route_rewards(b, result))
            settle_agents = sum(v for s in result.settlements
                                for p, v in s.payouts.items() if p != AUCTIONEER)
            offered = sum(t.job_priority for t in result.trades)
            priced = sum(
                noncommercial_price_reward(t.job_priority, t.price)
                for t in result.trades)
            assert routed_total == settle_agents + offered + priced


class TestTraining:
    def test_offer_buffers_fill_then_empty(self):
        cfg = make_config()
        hyper = PPOHyper(rollout_length=16, minibatch_size=8, epochs=1)
        env = SchedulingEnv(cfg, seed=9)
        bundles = [AgentBundle(ARCH_DIST, a, cfg, hyper, seed=9) for a in range(2)]
        trainer = Trainer(env, bundles)
        unit = bundles[0].units[("offer", 0)]
        seen_full = False
        for i in range(40):
            trainer.step()
            assert len(unit.buffer) <= 16
            seen_full = seen_full or unit.updates > 0
        assert seen_full
        # a sample closes when the next one opens, so the window of 16
        # closed samples completes at acts 16 and 32 within 40 steps
        assert unit.updates == 2

    def test_parameter_sharing_stays_bitwise_identical(self):
        cfg = make_config()
        hyper = PPOHyper(rollout_length=8, minibatch_size=4, epochs=2)
        env = SchedulingEnv(cfg, seed=10)
        bundles = [AgentBundle(ARCH_DIST_PS, a, cfg, hyper, seed=10) for a in range(2)]
        trainer = Trainer(env, bundles)
        for _ in range(200):
            trainer.step()
        bundle = bundles[0]
        assert bundle.units[("offer", 0)].updates + bundle.units[("offer", 1)].updates > 0
        for kind, count in (("accept", cfg.num_cores), ("offer", cfg.num_slots)):
            tensors = [
                dict(bundle.stack.views[bundle.units[(kind, i)].param_set].tensors())
                for i in range(count)
            ]
            for other in tensors[1:]:
                for name in tensors[0]:
                    assert np.array_equal(tensors[0][name], other[name])

    def test_training_trace_is_deterministic(self):
        cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL)
        hyper = PPOHyper(rollout_length=32, minibatch_size=16, epochs=2)

        def run():
            env = SchedulingEnv(cfg, seed=11)
            bundles = [AgentBundle(ARCH_DIST_PRICE, a, cfg, hyper, seed=11)
                       for a in range(2)]
            trainer = Trainer(env, bundles)
            trace = []
            for _ in range(300):
                result = trainer.step()
                trace.append((len(result.trades), result.auctioneer_income,
                              tuple(sorted((t.buyer, t.price) for t in result.trades))))
            params = [dict(b.stack.views[b.units[key].param_set].tensors())
                      for b in bundles for key in b.units]
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
        bundle = AgentBundle(ARCH_DIST_PRICE, 0, cfg, PPOHyper(), seed=12)
        trainer = Trainer(env, [bundle])
        place_job(env, 0, 0)
        # core 0 is taken by a competitor with a higher bid next step
        competitor = place_job(env, 1, 0)
        unit = bundle.units[("price", 0)]
        env.step(JointActions(offers={(0, 0): 1, (1, 0): 1},
                              prices={(0, 0): 2, (1, 0): 5}))
        assert env.pending_offers(0)
        result = env.step(JointActions())
        assert result.trades[0].buyer == 1  # our offer lost
        for ur in route_rewards(bundle, result):
            unit.resolve_price(ur.offer_made_at, ur.reward)
        unit.expire_prices(before=result.time)
        assert len(unit.buffer) == 0 and not unit.pending_prices


class TestCheckpointing:
    def test_bundle_checkpoint_roundtrip(self, tmp_path):
        cfg = make_config()
        bundle = AgentBundle(ARCH_DIST_PS, 0, cfg, PPOHyper(), seed=13)
        path = tmp_path / "bundle.npz"
        bundle.save(path)
        other = AgentBundle(ARCH_DIST_PS, 0, cfg, PPOHyper(), seed=99)
        other.load(path)
        for key in bundle.params:
            for (name, a), (_, b) in zip(bundle.params[key].tensors(),
                                         other.params[key].tensors()):
                assert np.array_equal(a, b)

    def test_mismatched_architecture_rejected(self, tmp_path):
        cfg = make_config()
        AgentBundle(ARCH_DIST_PS, 0, cfg, PPOHyper(), seed=14).save(tmp_path / "x.npz")
        with pytest.raises(ValueError):
            AgentBundle(ARCH_FULL, 0, cfg, PPOHyper(), seed=14).load(tmp_path / "x.npz")

    def test_loaded_bundle_trains_on_as_the_saved_one(self, tmp_path):
        # the Adam moments and step counts travel with the weights, so the
        # next update of a loaded bundle is the saved bundle's next update
        scenario = builtin_scenarios()["EXP1_TRADING"]
        saved = AgentBundle(ARCH_DIST_PS, 0, scenario.env, scenario.hyper, seed=3)
        index = list(saved.params).index("accept")
        rng = derive_rng(3, 0)
        size = 64
        batch = TrainBatch(
            obs=rng.standard_normal((size, saved.params["accept"].in_width)),
            actions=rng.integers(0, saved.params["accept"].action_count, size),
            logp_old=np.full(size, -1.0), advantages=rng.standard_normal(size),
            returns=rng.standard_normal(size))
        ppo_update(saved.stack, [index], [batch], scenario.hyper, [derive_rng(3, 1)])
        saved.save(tmp_path / "bundle.npz")
        loaded = AgentBundle(ARCH_DIST_PS, 0, scenario.env, scenario.hyper, seed=4)
        loaded.load(tmp_path / "bundle.npz")
        for name in ("rows", "m", "v"):
            assert np.array_equal(getattr(saved.stack, name), getattr(loaded.stack, name))
        assert loaded.stack.steps == saved.stack.steps
        for bundle in (saved, loaded):
            ppo_update(bundle.stack, [index], [batch], scenario.hyper, [derive_rng(3, 2)])
        assert saved.stack.rows.tobytes() == loaded.stack.rows.tobytes()

    def test_checkpoint_moves_between_trainer_and_standalone_bundles(self, tmp_path):
        # bundles of one layout keep their weights in one home stack, which
        # the Trainer reads; a bundle's checkpoint is still its own rows,
        # names and step counts
        cfg = make_config()
        hyper = PPOHyper(rollout_length=8, minibatch_size=4, epochs=2)
        env = SchedulingEnv(cfg, seed=16)
        bundles = build_bundles((ARCH_DIST_PS, ARCH_DIST_PS), cfg, hyper, seed=16)
        trainer = Trainer(env, bundles)
        for _ in range(40):
            trainer.step()
        adopted = bundles[1]
        assert any(adopted.stack.steps)

        def assert_same_state(a, b):
            for name in ("rows", "m", "v"):
                assert getattr(a.stack, name).tobytes() == getattr(b.stack, name).tobytes()
            assert a.stack.steps == b.stack.steps

        adopted.save(tmp_path / "adopted.npz")
        standalone = AgentBundle(ARCH_DIST_PS, 1, cfg, hyper, seed=17)
        standalone.load(tmp_path / "adopted.npz")
        assert_same_state(standalone, adopted)

        other = AgentBundle(ARCH_DIST_PS, 1, cfg, hyper, seed=18)
        rng = derive_rng(18, 0)
        params = other.params["offer"]
        batch = TrainBatch(obs=rng.standard_normal((16, params.in_width)),
                           actions=rng.integers(0, params.action_count, 16),
                           logp_old=np.full(16, -1.0), advantages=rng.standard_normal(16),
                           returns=rng.standard_normal(16))
        ppo_update(other.stack, [list(other.params).index("offer")], [batch], hyper,
                   [derive_rng(18, 1)])
        other.save(tmp_path / "standalone.npz")
        adopted.load(tmp_path / "standalone.npz")
        assert_same_state(adopted, other)
        # the load went into the home rows, which the Trainer's pass reads
        home, first = adopted.stack.home, adopted.stack.first
        assert home is bundles[0].stack.home and first == len(bundles[0].stack.rows)
        assert home.rows[first:first + len(other.stack.rows)].tobytes() == \
            other.stack.rows.tobytes()

    def test_mismatched_names_or_row_shape_rejected(self, tmp_path):
        cfg = make_config()
        bundle = AgentBundle(ARCH_DIST_PS, 0, cfg, PPOHyper(), seed=15)
        before = bundle.stack.rows.tobytes()
        bundle.stack.save(tmp_path / "names.npz", ["offer", "accept"])
        wider = AgentBundle(ARCH_DIST_PS, 0, make_config(num_slots=4), PPOHyper(), seed=15)
        wider.save(tmp_path / "shape.npz")
        with pytest.raises(ValueError, match="parameter sets"):
            bundle.load(tmp_path / "names.npz")
        with pytest.raises(ValueError, match="checkpoint rows of shape"):
            bundle.load(tmp_path / "shape.npz")
        assert bundle.stack.rows.tobytes() == before
