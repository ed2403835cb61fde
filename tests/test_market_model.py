"""A model check of the market: random small configs, random and malformed
actions, and every step checked against what the market's rules say.

A Hypothesis state machine builds a config of 1-3 agents, cores and slots,
trading on or off, in any pricing mode, and steps it with random
``JointActions``: accepts that name a pending offer, a stale or empty cell,
the agent's own offer, a cell outside the grid, or no integer (a float,
``None`` or a string); offers to any core, to none, or to no integer, keyed
outside the grid or by a float, filed in a random order; bids that are
negative, above ``max_prio``, missing or no integer.
After every step it checks:

- ``check_invariants()`` and job conservation;
- phase 1 against a one-core-at-a-time model of its rule: the trades it
  makes, in core order, and the acceptances it voids;
- that self, cross and grant trades partition the step's trades, grants
  only on cores idle before the step;
- each core's payment chain: every trade is the next link of its core's
  chain, and each settlement pays out exactly its job's priority, split as
  the chain's cash flows say;
- this step's offer books, entry by entry, against the offers and bids that
  name a held job, each entry holding that very job;
- that what the market must ignore changes nothing: a twin market stepped
  without the voided acceptances, the inputs out of range or of no integer,
  bids included (and every accept when trading is off), ends in the same
  state with the same records.
"""

import copy
import math
from numbers import Integral

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from marketsched.config import EnvConfig, JobType, PricingMode
from marketsched.env import AUCTIONEER, ChainEntry, JointActions, SchedulingEnv

from helpers import book_entries


@st.composite
def configs(draw):
    count = draw(st.integers(1, 3))
    job_types = tuple(
        JobType(i, draw(st.integers(1, 5)), draw(st.integers(1, 6)),
                draw(st.sampled_from([0.0, 0.2, 0.5 / count, 1.0 / count])))
        for i in range(count))
    return EnvConfig(num_agents=draw(st.integers(1, 3)), num_cores=draw(st.integers(1, 3)),
                     num_slots=draw(st.integers(1, 3)), job_types=job_types,
                     pricing_mode=draw(st.sampled_from(PricingMode)),
                     trading_enabled=draw(st.sampled_from([True, True, False])))


# the forms an action's number takes: integers, as a Python int (three
# times as often) or a numpy integer, or no integer: a float equal to one or
# halfway, None, or its string, which no range test can compare with an int
FORMS = (int, int, int, np.int64, float, lambda value: value + 0.5, lambda value: None, str)
# a bid also takes forms that no number of the other inputs takes
BID_FORMS = FORMS + (lambda value: math.nan, lambda value: math.inf)


def number(rng, values, forms=FORMS):
    """One of ``values`` in one of ``forms``."""
    return forms[rng.integers(len(forms))](values[rng.integers(len(values))])


def joint_actions(env, rng):
    """Random actions for ``env`` from the numpy stream ``rng``."""
    cfg = env.config
    agents, cores, slots = cfg.num_agents, cfg.num_cores, cfg.num_slots
    cells = agents * slots
    joint = JointActions()
    for m, core in enumerate(env.cores):
        # the owner's accept, and at times another agent's, which counts for
        # nothing: a pending offer (possibly stale, or the owner's own) three
        # times as often as any other cell, empty or not, out of the grid, or
        # a decline
        live = [1 + agent * slots + slot for agent, slot, _, _ in book_entries(env, m)]
        choices = live * 3 + list(range(-1, cells + 2))
        keys = [(core.owner, m)] if core.owner != AUCTIONEER else []
        keys += [(int(rng.integers(agents)), m)] * int(rng.random() < 0.3)
        for key in keys:
            joint.accepts[key] = number(rng, choices)
    # an offer for each slot half the time, and at times one keyed outside
    # the grid or by a float equal to a slot's key (which, if that slot's
    # key is drawn too, keys one entry with the first drawn), in a random
    # order, to a core twice as often as to none or out of range; a bid half
    # the time, from 3 below 0 to 3 above max_prio
    keys = [(a, k) for a in range(agents) for k in range(slots) if rng.random() < 0.5]
    outside = [(-1, 0), (agents, 0), (0, slots), (0, -1), (0.0, 0), (0, float(slots - 1))]
    keys += [outside[rng.integers(len(outside))]] * int(rng.random() < 0.2)
    rng.shuffle(keys)
    targets = list(range(1, cores + 1)) * 2 + [-1, 0, cores + 1]
    bids = list(range(-3, cfg.max_prio + 4))
    for key in keys:
        joint.offers[key] = number(rng, targets)
        if rng.random() < 0.5:
            joint.prices[key] = number(rng, bids, BID_FORMS)
    return joint


def is_integer(value):
    return isinstance(value, Integral)


def phase_one(env, accepts):
    """Phase 1 of a step of ``env`` with ``accepts``, core by core, as its
    rule says: (the trades as (core, buyer, seller, price, job uid, source
    slot), the voided accept keys, the accept keys that do nothing)."""
    slots = [list(row) for row in env.slots]
    trades, voided, ignored = [], [], []
    for key, choice in sorted(accepts.items(), key=lambda item: item[0][1]):
        agent, m = key
        core = env.cores[m]
        if agent != core.owner or not env.config.trading_enabled:
            ignored.append(key)
            continue
        cell = choice - 1 if is_integer(choice) and choice > 0 else None
        entry = next((entry for entry in book_entries(env, m)
                      if entry[0] * env.config.num_slots + entry[1] == cell), None)
        if entry is None or slots[entry[0]][entry[1]] is not entry[2]:
            ignored.append(key)
            continue
        source, slot, job, price = entry
        # the offering slot is emptied first, so a self-trade always has room
        slots[source][slot] = None
        free = next((k for k, held in enumerate(slots[agent]) if held is None), None)
        if free is None:
            slots[source][slot] = job
            voided.append(key)
            continue
        slots[agent][free] = core.job
        trades.append((m, source, agent, price, job.uid, slot))
    return trades, voided, ignored


def ignored_offers(env, offers):
    """The offer keys the market must ignore: keyed by no integers in the
    grid, or naming no core by an integer."""
    cfg = env.config
    return [(agent, slot) for (agent, slot), target in offers.items()
            if not (is_integer(agent) and is_integer(slot) and is_integer(target)
                    and 0 <= agent < cfg.num_agents and 0 <= slot < cfg.num_slots
                    and 0 < target <= cfg.num_cores)]


def state(env):
    """Everything a step reads or writes, by value."""
    return (env.time, env._next_job_uid, env._spawn_rng.bit_generator.state,
            [(c.owner, c.job, c.chain) for c in env.cores], env.slots,
            [book_entries(env, m) for m in range(env.config.num_cores)])


def ledger(chain, priority, owner):
    """The chain's cash flows: each buyer pays its seller; the final owner
    collects the job's priority."""
    balance = {}
    for buyer, seller, price in chain:
        balance[buyer] = balance.get(buyer, 0) - price
        balance[seller] = balance.get(seller, 0) + price
    balance[owner] = balance.get(owner, 0) + priority
    return balance


class MarketModel(RuleBasedStateMachine):
    @initialize(config=configs(), seed=st.integers(0, 1 << 16))
    def build(self, config, seed):
        self.env = SchedulingEnv(config, seed)
        self.completed = 0

    @rule(seed=st.integers(0, (1 << 32) - 1))
    def step(self, seed):
        env = self.env
        joint = joint_actions(env, np.random.default_rng(seed))
        before = copy.deepcopy(env)
        trades, voided, ignored = phase_one(before, joint.accepts)
        result = env.step(joint)
        self.completed += len(result.completions)

        # phase 1 as its rule says; self, cross and grant trades partition the
        # step's trades, grants only on cores that were idle
        accepted = [t for t in result.trades if not t.by_auctioneer]
        assert [(t.core, t.buyer, t.seller, t.price, t.job_uid, t.source_slot)
                for t in accepted] == trades
        assert result.voided_acceptances == len(voided)
        grants = [t for t in result.trades if t.seller == AUCTIONEER]
        own = [t for t in accepted if t.buyer == t.seller]
        cross = [t for t in accepted if t.buyer != t.seller]
        assert all(t.by_auctioneer for t in grants)
        assert len(grants) + len(own) + len(cross) == len(result.trades)
        assert all(before.cores[t.core].owner == AUCTIONEER for t in grants)
        assert len({t.core for t in grants}) == len(grants)

        # every trade is the next link of its core's chain; a settlement pays
        # out its job's priority as the chain's cash flows say
        chains = [list(core.chain) for core in before.cores]
        for t in result.trades:
            chains[t.core].append(ChainEntry(t.buyer, t.seller, t.price))
        priority = {c.job_uid: c.priority for c in result.completions}
        settled = set()
        for s in result.settlements:
            owner = chains[s.core][-1].buyer if chains[s.core] else None
            assert sum(s.payouts.values()) == priority[s.job_uid]
            assert s.payouts == ledger(chains[s.core], priority[s.job_uid], owner)
            settled.add(s.core)
        assert result.auctioneer_income == sum(s.payouts.get(AUCTIONEER, 0)
                                               for s in result.settlements)
        for m, core in enumerate(env.cores):
            if m not in settled:
                assert core.chain == chains[m]

        # this step's offers: one per offer that names a core and a held job,
        # holding that very job, at the job's priority or the bid clamped to
        # [0, max_prio]
        cfg, now = env.config, before.time
        skip = set(ignored_offers(env, joint.offers))
        books = [[] for _ in env.cores]
        for (agent, slot), target in sorted(joint.offers.items()):
            job = env.slots[agent][slot] if (agent, slot) not in skip else None
            if job is None or job.arrival_time > now:  # none, or spawned after phase 6
                continue
            price, bid = job.priority, joint.prices.get((agent, slot))
            if cfg.pricing_mode.is_free and is_integer(bid):
                price = max(0, min(int(bid), cfg.max_prio))
            books[target - 1].append((agent, slot, job, price))
        for m, book in enumerate(books):
            entries = book_entries(env, m)
            assert [(a, s, p) for a, s, _, p in entries] == [(a, s, p) for a, s, _, p in book]
            assert all(got[2] is want[2] for got, want in zip(entries, book))

        # what the market ignores or voids changes nothing: the copy taken
        # before the step, stepped without it, ends where the market did
        kept = JointActions(
            accepts={k: v for k, v in joint.accepts.items() if k not in voided + ignored},
            offers={k: v for k, v in joint.offers.items() if k not in skip},
            prices={k: v for k, v in joint.prices.items() if is_integer(v)})
        assert before.step(kept) == result._replace(voided_acceptances=0)
        assert state(before) == state(env)

    @invariant()
    def structure_and_conservation(self):
        env = self.env
        env.check_invariants()
        held = sum(job is not None for row in env.slots for job in row)
        running = sum(core.job is not None for core in env.cores)
        assert env._next_job_uid == held + running + self.completed


MarketModel.TestCase.settings = settings(derandomize=True, max_examples=60,
                                         stateful_step_count=40, deadline=None)
TestMarketModel = MarketModel.TestCase
