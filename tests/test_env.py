"""Environment state machine: phases, trades, displacement, determinism."""

import copy
from dataclasses import asdict, replace

import numpy as np
import pytest

import marketsched.env
from marketsched.baseline import scripted_actions
from marketsched.config import ConfigError, EnvConfig, JobType, PricingMode
from marketsched.env import AUCTIONEER, ChainEntry, JointActions, SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.rng import STREAM_FUZZ, derive_rng

from helpers import book_entries, make_config, manual_config, offer, place_job, random_actions


class TestNewEnv:
    def test_initial_state(self):
        env = SchedulingEnv(make_config(), seed=7)
        assert env.time == 0
        assert all(c.owner == AUCTIONEER and c.job is None for c in env.cores)
        assert len(env.slots) == 2 and all(len(s) == 3 for s in env.slots)
        assert book_entries(env, 0) == []

    def test_spawn_prob_one_fills_every_slot(self):
        cfg = make_config(job_types=(JobType(0, 2, 3, 1.0),))
        env = SchedulingEnv(cfg, seed=3)
        assert all(job is not None for row in env.slots for job in row)
        assert all(job.arrival_time == 0 for row in env.slots for job in row)

    def test_spawn_prob_zero_leaves_slots_empty(self):
        env = SchedulingEnv(manual_config(), seed=3)
        assert all(job is None for row in env.slots for job in row)

    def test_same_seed_same_initial_state(self):
        a = SchedulingEnv(make_config(), seed=11)
        b = SchedulingEnv(make_config(), seed=11)
        for ra, rb in zip(a.slots, b.slots):
            for ja, jb in zip(ra, rb):
                assert (ja is None) == (jb is None)
                if ja is not None:
                    assert (ja.uid, ja.type_id) == (jb.uid, jb.type_id)

    def test_invalid_config_reports_constraint(self):
        with pytest.raises(ConfigError, match="num_cores"):
            EnvConfig(1, 0, 1, (JobType(0, 1, 1, 0.5),))
        with pytest.raises(ConfigError, match="spawn"):
            EnvConfig(1, 1, 1, (JobType(0, 1, 1, 0.7), JobType(1, 1, 1, 0.7)))


class TestStepTiming:
    def test_uncontested_job_has_unit_ntat(self):
        # burst 5, priority 5, no competition: offered at t=0, granted at
        # t=1, terminates at t=5 with turnaround 5.
        env = SchedulingEnv(manual_config(num_agents=1, num_cores=1, num_slots=1), 0)
        place_job(env, 0, 0)
        done = []
        for _ in range(8):
            actions = JointActions()
            if env.slots[0][0] is not None:
                actions.offers = offer(0, 0, 0)
            done += env.step(actions).completions
        assert len(done) == 1
        c = done[0]
        assert c.completed_at == 5
        assert c.turnaround == 5
        assert c.normalized_turnaround == 1.0

    def test_offer_is_acceptable_exactly_one_step_later(self):
        env = SchedulingEnv(manual_config(num_agents=1, num_cores=1, num_slots=1), 0)
        place_job(env, 0, 0)
        assert book_entries(env, 0) == []
        env.step(JointActions(offers=offer(0, 0, 0)))
        assert len(book_entries(env, 0)) == 1  # visible for the next decision
        result = env.step(JointActions())
        assert len(result.trades) == 1  # consumed by the auctioneer at t+1
        assert book_entries(env, 0) == []

    def test_unaccepted_offer_expires(self):
        # two jobs bid the same core; the loser's offer must be gone after
        # resolution, not linger.
        env = SchedulingEnv(manual_config(num_agents=2, num_cores=1, num_slots=1), 0)
        place_job(env, 0, 0)
        place_job(env, 1, 0)
        env.step(JointActions(offers={(0, 0): 1, (1, 0): 1}))
        result = env.step(JointActions())
        assert len(result.trades) == 1
        assert book_entries(env, 0) == []


class TestAuctioneer:
    def test_highest_price_wins(self):
        cfg = manual_config(job_types=(JobType(0, 8, 4, 0.0), JobType(1, 2, 4, 0.0)),
                            trading_enabled=False,
                            num_agents=2, num_cores=1, num_slots=1)
        env = SchedulingEnv(cfg, 0)
        cheap = place_job(env, 0, 0, type_id=1)
        dear = place_job(env, 1, 0, type_id=0)
        env.step(JointActions(offers={(0, 0): 1, (1, 0): 1}))
        result = env.step(JointActions(offers={(0, 0): 1}))
        assert len(result.trades) == 1
        trade = result.trades[0]
        assert trade.by_auctioneer and trade.price == 8
        assert env.cores[0].job.uid == dear.uid
        assert env.slots[0][0].uid == cheap.uid  # loser still waiting

    def test_tie_breaks_price_then_arrival_then_agent_then_slot(self):
        cfg = manual_config(job_types=(JobType(0, 5, 4, 0.0),),
                            num_agents=2, num_cores=1, num_slots=2,
                            trading_enabled=False)
        env = SchedulingEnv(cfg, 0)
        place_job(env, 0, 0, arrival=0)
        place_job(env, 0, 1, arrival=0)
        place_job(env, 1, 0, arrival=0)
        env.step(JointActions(offers={(0, 0): 1, (0, 1): 1, (1, 0): 1}))
        result = env.step(JointActions())
        trade = result.trades[0]
        assert (trade.buyer, trade.source_slot) == (0, 0)

        # earlier arrival beats lower agent id
        env2 = SchedulingEnv(cfg, 0)
        env2.step(JointActions())
        early = place_job(env2, 1, 1, arrival=0)
        place_job(env2, 0, 0, arrival=1)
        env2.step(JointActions(offers={(0, 0): 1, (1, 1): 1}))
        result = env2.step(JointActions())
        assert result.trades[0].job_uid == early.uid


class TestTrading:
    def build_trading_pair(self, num_slots=2):
        """Agent 0 runs a low job on core 0; agent 1 offers a high job."""
        cfg = manual_config(job_types=(JobType(0, 1, 10, 0.0), JobType(1, 5, 2, 0.0)),
                            num_agents=2, num_cores=1, num_slots=num_slots)
        env = SchedulingEnv(cfg, 0)
        low = place_job(env, 0, 0, type_id=0)
        env.step(JointActions(offers={(0, 0): 1}))
        env.step(JointActions())  # low job granted to agent 0
        assert env.cores[0].owner == 0
        high = place_job(env, 1, 0, type_id=1)
        env.step(JointActions(offers={(1, 0): 1}))  # high offer pending
        return env, low, high

    def test_acceptance_moves_job_and_displaces(self):
        env, low, high = self.build_trading_pair()
        remaining_before = env.cores[0].job.remaining_burst
        cell = 1 * env.config.num_slots + 0  # agent 1, slot 0
        result = env.step(JointActions(accepts={(0, 0): cell + 1}))
        assert len(result.trades) == 1
        trade = result.trades[0]
        assert (trade.buyer, trade.seller, trade.price) == (1, 0, 5)
        assert env.cores[0].owner == 1
        assert env.cores[0].job.uid == high.uid
        returned = env.slots[0][0]
        assert returned.uid == low.uid
        # displaced before this step's compute tick, burst preserved
        assert returned.remaining_burst == remaining_before
        assert env.cores[0].chain[-1].buyer == 1

    def test_settlement_after_trade(self):
        env, low, high = self.build_trading_pair()
        cell = 1 * env.config.num_slots + 0
        env.step(JointActions(accepts={(0, 0): cell + 1}))
        result = env.step(JointActions())  # high job's second tick terminates it
        assert len(result.completions) == 1
        payouts = result.settlements[0].payouts
        # chain: auctioneer sold at 1 to agent 0, agent 0 sold at 5 to agent 1
        assert payouts == {AUCTIONEER: 1, 0: 4, 1: 0}
        assert result.auctioneer_income == 1
        assert env.cores[0].owner == AUCTIONEER
        assert env.cores[0].chain == []

    @pytest.mark.parametrize("index, entry, reason", [
        (0, ChainEntry(buyer=0, seller=1, price=1),
         "chain must start with an auctioneer sale"),
        (1, ChainEntry(buyer=1, seller=1, price=5), "broken lineage"),
        (1, ChainEntry(buyer=0, seller=0, price=5), "final owner 1 is not the last buyer"),
    ])
    def test_doctored_chain_fails_invariants(self, index, entry, reason):
        env, low, high = self.build_trading_pair()
        cell = 1 * env.config.num_slots + 0
        env.step(JointActions(accepts={(0, 0): cell + 1}))
        core = env.cores[0]
        assert [(e.seller, e.buyer) for e in core.chain] == [(AUCTIONEER, 0), (0, 1)]
        env.check_invariants()
        core.chain[index] = entry
        with pytest.raises(AssertionError, match=f"core 0: {reason}"):
            env.check_invariants()

    def test_acceptance_voided_without_free_slot(self):
        env, low, high = self.build_trading_pair()
        place_job(env, 0, 0)  # fill agent 0's remaining slots
        place_job(env, 0, 1)
        cell = 1 * env.config.num_slots + 0
        result = env.step(JointActions(accepts={(0, 0): cell + 1}))
        assert result.trades == []
        assert result.voided_acceptances == 1
        assert env.cores[0].job.uid == low.uid  # nothing moved
        assert env.slots[1][0].uid == high.uid

    def test_self_offer_swaps_jobs_even_when_full(self):
        cfg = manual_config(job_types=(JobType(0, 1, 10, 0.0), JobType(1, 5, 2, 0.0)),
                            num_agents=1, num_cores=1, num_slots=2)
        env = SchedulingEnv(cfg, 0)
        low = place_job(env, 0, 0, type_id=0)
        env.step(JointActions(offers={(0, 0): 1}))
        env.step(JointActions())
        high = place_job(env, 0, 0, type_id=1)
        place_job(env, 0, 1, type_id=0)  # all slots full
        env.step(JointActions(offers={(0, 0): 1}))
        result = env.step(JointActions(accepts={(0, 0): 1}))  # grid cell 0
        assert len(result.trades) == 1
        assert result.trades[0].buyer == result.trades[0].seller == 0
        assert env.cores[0].job.uid == high.uid
        assert env.slots[0][0].uid == low.uid  # swapped into the vacated slot
        # self-trade nets to zero except the terminal reward
        result = env.step(JointActions())
        assert result.settlements[0].payouts == {AUCTIONEER: 1, 0: 4}

    def test_stale_accept_index_is_declined(self):
        env, low, high = self.build_trading_pair()
        result = env.step(JointActions(accepts={(0, 0): 99}))
        assert result.trades == [] and result.voided_acceptances == 0
        assert env.cores[0].job.uid == low.uid

    @pytest.mark.parametrize("choice, trades", [
        (4, True), (np.int64(4), True), (4.0, False), (4.5, False), (np.float64(4.0), False)],
        ids=repr)
    def test_accept_choice_that_is_no_integer_trades_nothing(self, choice, trades):
        # agent 1's slot 0 is grid cell 1 * 3 + 0 = 3, which the choice 4 names
        env, low, high = self.build_trading_pair(num_slots=3)
        result = env.step(JointActions(accepts={(0, 0): choice}))
        assert [(t.buyer, t.seller) for t in result.trades] == ([(1, 0)] if trades else [])
        assert result.voided_acceptances == 0
        assert env.cores[0].job.uid == (high if trades else low).uid
        env.check_invariants()

    def test_offer_is_acceptable_only_on_its_target_core(self):
        cfg = manual_config(job_types=(JobType(0, 1, 10, 0.0), JobType(1, 5, 2, 0.0)),
                            num_agents=2, num_cores=2, num_slots=2)
        env = SchedulingEnv(cfg, 0)
        low = place_job(env, 0, 0, type_id=0)
        env.step(JointActions(offers=offer(0, 0, 0)))
        env.step(JointActions())  # low job granted to agent 0 on core 0
        high = place_job(env, 1, 0, type_id=1)
        env.step(JointActions(offers=offer(1, 0, 1)))  # high job offered to core 1
        assert env.cores[1].owner == AUCTIONEER
        # agent 0 names agent 1's slot-0 cell on core 0, where nothing is offered
        cell = 1 * cfg.num_slots + 0
        result = env.step(JointActions(accepts={(0, 0): cell + 1}))
        assert result.voided_acceptances == 0
        assert [(t.core, t.buyer, t.seller) for t in result.trades] == [(1, 1, AUCTIONEER)]
        assert env.cores[0].job.uid == low.uid
        assert env.cores[1].job.uid == high.uid

    def test_trading_disabled_ignores_accepts(self):
        cfg = manual_config(job_types=(JobType(0, 1, 10, 0.0), JobType(1, 5, 2, 0.0)),
                            num_agents=2, num_cores=1, num_slots=2,
                            trading_enabled=False)
        env = SchedulingEnv(cfg, 0)
        low = place_job(env, 0, 0, type_id=0)
        env.step(JointActions(offers={(0, 0): 1}))
        env.step(JointActions())
        place_job(env, 1, 0, type_id=1)
        env.step(JointActions(offers={(1, 0): 1}))
        result = env.step(JointActions(accepts={(0, 0): 4}))
        assert result.trades == []
        assert env.cores[0].job.uid == low.uid


class TestPendingOffers:
    def test_order_by_agent_then_slot(self):
        env = SchedulingEnv(manual_config(num_agents=2, num_cores=1, num_slots=2), 0)
        place_job(env, 0, 1)
        place_job(env, 1, 0)
        env.step(JointActions(offers={(1, 0): 1, (0, 1): 1}))
        # keyed by grid cell agent * num_slots + slot, the cell an accept names
        assert {cell: entry[:2] for cell, entry in env._offer_book[0].items()} == {
            1: (0, 1), 2: (1, 0)}

    def test_capacity_is_agents_times_slots(self):
        env = SchedulingEnv(manual_config(num_agents=2, num_cores=2, num_slots=3), 0)
        for agent in range(2):
            for slot in range(3):
                place_job(env, agent, slot)
        env.step(JointActions(offers={(a, s): 1 for a in range(2) for s in range(3)}))
        assert len(book_entries(env, 0)) == 6
        assert book_entries(env, 1) == []

    @pytest.mark.parametrize("key", [(-1, 0), (2, 0), (0, -1), (0, 3)], ids=str)
    def test_offer_keyed_by_no_slot_registers_nothing(self, key):
        # (-1, 0) would index agent 1's slots and register an offer from the
        # auctioneer; (2, 0) would index past the last agent
        env = SchedulingEnv(manual_config(num_agents=2, num_cores=1, num_slots=3), 0)
        for agent in range(2):
            for slot in range(3):
                place_job(env, agent, slot)
        env.step(JointActions(offers={key: 1}))
        assert book_entries(env) == []
        env.check_invariants()
        assert env.step(JointActions()).trades == []
        env.check_invariants()

    @pytest.mark.parametrize("target, registers", [
        (1.5, False), (1.0, False), (np.float64(1.0), False), (np.int64(1), True),
        (True, True)], ids=repr)
    def test_offer_target_that_is_no_integer_registers_nothing(self, target, registers):
        env = SchedulingEnv(manual_config(num_agents=2, num_cores=2, num_slots=3), 0)
        place_job(env, 0, 0)
        place_job(env, 1, 0)
        env.step(JointActions(offers={(0, 0): 1}))
        # phase 2 grants core 0 to agent 0 before phase 6 reads the target
        result = env.step(JointActions(offers={(1, 0): target}))
        assert [trade.buyer for trade in result.trades] == [0] and env.time == 2
        assert [entry[:2] for entry in book_entries(env)] == ([(1, 0)] if registers else [])
        env.check_invariants()


class TestOfferPrices:
    def test_registered_price_follows_the_pricing_rules(self):
        types = (JobType(0, 3, 4, 0.0), JobType(1, 8, 4, 0.0))  # max_prio 8
        fixed = SchedulingEnv(manual_config(job_types=types, num_agents=1, num_slots=1), 0)
        place_job(fixed, 0, 0)
        fixed.step(JointActions(offers=offer(0, 0, 0), prices={(0, 0): 7}))
        assert [price for *_, price in book_entries(fixed)] == [3]  # FIXED ignores the bid

        free = SchedulingEnv(manual_config(job_types=types, num_agents=1, num_slots=4,
                                           pricing_mode=PricingMode.FREE_COMMERCIAL), 0)
        for slot in range(4):
            place_job(free, 0, slot)
        free.step(JointActions(offers={(0, slot): 1 for slot in range(4)},
                               prices={(0, 0): 20, (0, 1): -5, (0, 2): 6}))
        # above max_prio clamps down, negative clamps to 0, no bid is the priority
        assert {slot: price for _, slot, _, price in book_entries(free)} == {
            0: 8, 1: 0, 2: 6, 3: 3}

    @pytest.mark.parametrize("bid, price", [
        (float("nan"), 6), (float("inf"), 6), (float("-inf"), 6), (None, 6), (2.7, 6),
        ("3", 6), (np.int64(3), 3)], ids=repr)
    def test_a_bid_that_is_no_integer_counts_as_no_bid(self, bid, price):
        types = (JobType(0, 6, 4, 0.0), JobType(1, 8, 4, 0.0))  # max_prio 8
        env = SchedulingEnv(manual_config(job_types=types, num_agents=1, num_cores=1,
                                          num_slots=2,
                                          pricing_mode=PricingMode.FREE_COMMERCIAL), 0)
        place_job(env, 0, 0)
        place_job(env, 0, 1)
        env.step(JointActions(offers={(0, 0): 1, (0, 1): 1}, prices={(0, 0): bid, (0, 1): 2}))
        # the step completes: both offers are filed and time advances
        assert env.time == 1
        assert {slot: price for _, slot, _, price in book_entries(env)} == {0: price, 1: 2}
        assert all(type(price) is int for *_, price in book_entries(env))
        (grant,) = env.step(JointActions()).trades
        assert (grant.source_slot, grant.price) == (0, price)
        env.check_invariants()


class TestInputsOfNoIntegerCountAsNone:
    """A choice or target that does not compare with an integer, or an offer
    key that is no pair or indexes no slot, is no input: the step, whose
    earlier phases have run when these are read, completes and ends where a
    twin stepped without it does."""

    @pytest.mark.parametrize("kind, key, value", [
        ("offers", (0, 0), None), ("offers", (0, 0), "1"), ("accepts", (0, 0), None),
        ("offers", (0.0, 0), 1), ("offers", 0, 1), ("offers", (0, 0, 0), 1),
        ("offers", "ab", 1)], ids=repr)
    def test_the_step_completes_as_without_it(self, kind, key, value):
        env = SchedulingEnv(builtin_scenarios()["EXP1_TRADING"].env, seed=5)
        rng = derive_rng(5, STREAM_FUZZ)
        # agent 0 owns core 0, and offers are pending there
        while env.cores[0].owner != 0 or not book_entries(env, 0):
            env.step(random_actions(env, rng))
        kept = random_actions(env, rng)
        # (0.0, 0) == (0, 0): drop the int key too; a key that is no pair is in
        # no random action
        getattr(kept, kind).pop(key, None)
        joint = copy.deepcopy(kept)
        getattr(joint, kind)[key] = value
        twin, now = copy.deepcopy(env), env.time
        result = env.step(joint)
        assert env.time == now + 1
        assert result == twin.step(kept)
        assert [c.owner for c in env.cores] == [c.owner for c in twin.cores]
        assert env.slots == twin.slots and book_entries(env) == book_entries(twin)
        assert env._next_job_uid == twin._next_job_uid
        env.check_invariants()


class TestOffersAreBookEntries:
    """The step files each offer as a plain ``(agent, slot, job, price)``
    entry holding the slot's job itself, and sorts nothing."""

    @pytest.mark.parametrize("trading", [True, False], ids=["random", "scripted"])
    def test_the_step_builds_no_offer_and_sorts_nothing(self, monkeypatch, trading):
        sorts = []

        def counted_sorted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(marketsched.env, "sorted", counted_sorted, raising=False)
        cfg = replace(builtin_scenarios()["EXP2_ARCH_4X4"].env, trading_enabled=trading)
        env = SchedulingEnv(cfg, seed=1)
        rng = derive_rng(1, STREAM_FUZZ)
        filed = trades = 0
        for _ in range(300):
            actions = random_actions(env, rng) if trading else scripted_actions(env)
            trades += len(env.step(actions).trades)
            filed += sum(map(len, env._offer_book))
        assert sorts == []
        assert filed > 0 and trades > 0

        entries = book_entries(env)
        assert entries and all(type(entry) is tuple for entry in entries)
        assert all(env.slots[agent][slot] is job for agent, slot, job, _ in entries)


class TestStepRecords:
    """Every field of every record a step returns, read by name. Within a
    record no two fields share a value (a bool aside, read with ``is``), so
    a record built with two arguments swapped fails here."""

    def test_offer_grant_trade_completion_and_settlement(self):
        types = (JobType(5, 6, 9, 0.0), JobType(8, 7, 2, 0.0))
        cfg = manual_config(job_types=types, num_agents=2, num_cores=4, num_slots=5,
                            pricing_mode=PricingMode.FREE_COMMERCIAL)
        env = SchedulingEnv(cfg, 0)
        for _ in range(10):
            env.step(JointActions())
        env._next_job_uid = 50
        place_job(env, 1, 2, type_id=5, arrival=4)
        place_job(env, 0, 4, type_id=8, arrival=1)

        env.step(JointActions(offers={(1, 2): 4}, prices={(1, 2): 4}))  # t = 10
        ((agent, slot, job, price),) = book_entries(env, 3)
        assert (agent, slot, price) == (1, 2, 4) and job is env.slots[1][2]
        assert (job.uid, job.priority, job.remaining_burst) == (50, 6, 9)

        grant = env.step(JointActions(offers={(0, 4): 4}, prices={(0, 4): 2}))  # t = 11
        (trade,) = grant.trades
        assert trade.by_auctioneer is True
        assert trade._asdict() == dict(core=3, buyer=1, seller=AUCTIONEER, price=4,
                                       job_uid=50, job_type_id=5, job_priority=6,
                                       source_slot=2, by_auctioneer=True)
        assert env.cores[3].chain[0]._asdict() == dict(buyer=1, seller=AUCTIONEER, price=4)

        # agent 1 accepts agent 0's offer of slot 4: grid cell 0 * 5 + 4
        swap = env.step(JointActions(accepts={(1, 3): 1 + 4}))  # t = 12
        (trade,) = swap.trades
        assert trade.by_auctioneer is False
        assert trade._asdict() == dict(core=3, buyer=0, seller=1, price=2, job_uid=51,
                                       job_type_id=8, job_priority=7, source_slot=4,
                                       by_auctioneer=False)
        assert env.cores[3].chain[1]._asdict() == dict(buyer=0, seller=1, price=2)

        result = env.step(JointActions())  # t = 13: job 51 ends its burst of 2
        (completion,) = result.completions
        assert completion._asdict() == dict(
            job_uid=51, type_id=8, priority=7, core=3, arrival_time=1, completed_at=13,
            turnaround=12, normalized_turnaround=6.0)
        (settlement,) = result.settlements
        assert settlement._asdict() == dict(core=3, job_uid=51,
                                            payouts={AUCTIONEER: 4, 1: -2, 0: 5})
        assert result._asdict() == dict(time=13, trades=[], completions=[completion],
                                        settlements=[settlement], auctioneer_income=4,
                                        voided_acceptances=0)

    def test_spawned_job(self):
        cfg = make_config(job_types=(JobType(4, 5, 9, 1.0),), num_agents=3, num_cores=1,
                          num_slots=2)
        env = SchedulingEnv(cfg, 0)  # uids 0-5 fill every slot at time 0
        for _ in range(10):
            env.step(JointActions())
        env.step(JointActions(offers={(2, 1): 1}))  # t = 10
        env.step(JointActions())  # t = 11: slot (2, 1) is granted and refills
        # a job's remaining burst starts at its burst, so those two agree
        assert asdict(env.slots[2][1]) == dict(uid=6, type_id=4, priority=5, burst=9,
                                               arrival_time=12, remaining_burst=9,
                                               owner_agent=2)


class TestInvariantsUnderFuzz:
    @pytest.mark.parametrize("pricing", [mode.value for mode in PricingMode])
    def test_conservation_and_structure(self, pricing):
        cfg = make_config(job_types=(JobType(0, 1, 4, 0.4), JobType(1, 5, 2, 0.3)),
                          pricing_mode=pricing)
        env = SchedulingEnv(cfg, seed=5)
        rng = derive_rng(5, STREAM_FUZZ)
        payout_total = 0
        income_total = 0
        terminated_priority = 0
        completed = 0
        for _ in range(3000):
            result = env.step(random_actions(env, rng))
            env.check_invariants()
            assert all(0 <= price <= cfg.max_prio for *_, price in book_entries(env))
            # job conservation: every uid issued is in a slot, on a core or completed
            completed += len(result.completions)
            held = sum(job is not None for row in env.slots for job in row)
            running = sum(core.job is not None for core in env.cores)
            assert env._next_job_uid == held + running + completed
            for s in result.settlements:
                payout_total += sum(v for p, v in s.payouts.items() if p != AUCTIONEER)
            income_total += result.auctioneer_income
            terminated_priority += sum(c.priority for c in result.completions)
            for c in result.completions:
                assert c.normalized_turnaround >= 1.0
        assert payout_total + income_total == terminated_priority
        assert terminated_priority > 0

    def test_displaced_jobs_preserve_remaining_burst(self):
        cfg = make_config(job_types=(JobType(0, 2, 6, 0.5), JobType(1, 5, 3, 0.3)))
        env = SchedulingEnv(cfg, seed=9)
        rng = derive_rng(9, STREAM_FUZZ)
        burst_left = {}
        for _ in range(1500):
            running = {m: (c.job.uid, c.job.remaining_burst)
                       for m, c in enumerate(env.cores) if c.job is not None}
            result = env.step(random_actions(env, rng))
            for trade in result.trades:
                if not trade.by_auctioneer:
                    old_uid, old_left = running[trade.core]
                    if old_uid != trade.job_uid:
                        burst_left[old_uid] = old_left
            for row in env.slots:
                for job in row:
                    if job is not None and job.uid in burst_left:
                        assert job.remaining_burst == burst_left.pop(job.uid)


def test_golden_trace_is_deterministic(tmp_path):
    from marketsched.harness import builtin_scenarios, run_scenario
    from dataclasses import replace

    scenario = replace(builtin_scenarios()["BASE_DUO"], total_steps=300)
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        run_scenario(scenario, seed=13, trace_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0].count(b"\n") == 300
