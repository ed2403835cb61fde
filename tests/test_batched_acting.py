"""The batched acting pass against acting one unit at a time.

The reference acts the way every distributed unit acted before batching:
encode one observation vector, one 1-D ``forward``, one ``sample`` from the
unit's own stream, in row order (acceptors of owned cores, then each offer
maker followed by its price setter). A rollout length of 4 makes shared
parameter sets update in the middle of a pass.
"""

import numpy as np
import pytest

from marketsched import agents
from marketsched.agents import (
    ARCH_DIST,
    ARCH_DIST_PRICE,
    ARCH_DIST_PS,
    AgentBundle,
    deliver_rewards,
)
from marketsched.config import PricingMode
from marketsched.env import JointActions, SchedulingEnv
from marketsched.neural import PPOHyper, forward, sample
from marketsched.obs import encode_acceptor_obs, encode_offer_obs, encode_price_obs

from helpers import make_config

HYPER = PPOHyper(rollout_length=4, minibatch_size=2, epochs=2)
STEPS = 80


def act_unit_by_unit(bundle, env, joint):
    cfg, a = bundle.config, bundle.agent
    if cfg.trading_enabled:
        for m in range(cfg.num_cores):
            if env.cores[m].owner == a:
                obs = encode_acceptor_obs(env, a, m)
                joint.accepts[(a, m)] = bundle.units[("accept", m)].act(obs)
    for k in range(cfg.num_slots):
        choice = bundle.units[("offer", k)].act(encode_offer_obs(env, a, k))
        joint.offers[(a, k)] = choice
        if (bundle.arch == ARCH_DIST_PRICE and cfg.pricing_mode.is_free
                and choice > 0 and env.slots[a][k] is not None):
            unit = bundle.units[("price", k)]
            obs = encode_price_obs(env, a, k, choice - 1)
            logits, value = forward(unit.params, obs)
            price, logp = sample(logits, unit.sample_rng)
            unit.hold_price(env.time, obs, price, logp, value)
            joint.prices[(a, k)] = price


def acceptor_obs_from_sorted_offers(env, agent, core):
    """The acceptor layout built from the env's per-core sorted offer list,
    independently of the one-pass writer the encoders share."""
    cfg = env.config
    job, owner = env.cores[core].job, env.cores[core].owner
    vec = [0.0] * (3 + 4 * cfg.num_agents * cfg.num_slots)
    if job is not None:
        vec[0], vec[1] = job.priority / cfg.max_prio, job.remaining_burst / cfg.max_burst
    vec[2] = 1.0 if owner == agent else 0.0
    for offer in env.pending_offers(core):
        base = 3 + 4 * (offer.agent * cfg.num_slots + offer.slot)
        vec[base:base + 4] = (1.0, offer.price / cfg.max_prio,
                              offer.time_to_payment / cfg.max_burst,
                              offer.job_priority / cfg.max_prio)
    return np.array(vec)


def assert_rows_match_encoders(bundle, env, joint):
    """What each unit recorded this step is its encoder's vector."""
    a = bundle.agent
    for (agent, m) in joint.accepts:
        if agent == a:
            recorded = bundle.units[("accept", m)].open_sample[0]
            assert np.array_equal(recorded, encode_acceptor_obs(env, a, m))
            assert np.array_equal(recorded, acceptor_obs_from_sorted_offers(env, a, m))
    for k in range(bundle.config.num_slots):
        recorded = bundle.units[("offer", k)].open_sample[0]
        assert np.array_equal(recorded, encode_offer_obs(env, a, k))
        if (a, k) in joint.prices:
            recorded = bundle.units[("price", k)].pending_prices[env.time][0]
            expected = encode_price_obs(env, a, k, joint.offers[(a, k)] - 1)
            assert np.array_equal(recorded, expected)


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE])
def test_batched_pass_matches_unit_by_unit_acting(arch, monkeypatch):
    cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL
                      if arch == ARCH_DIST_PRICE else PricingMode.FIXED)
    env = SchedulingEnv(cfg, seed=21)
    batched = [AgentBundle(arch, a, cfg, HYPER, seed=21) for a in range(cfg.num_agents)]
    reference = [AgentBundle(arch, a, cfg, HYPER, seed=21) for a in range(cfg.num_agents)]

    batched_calls = []
    real_forward = agents.forward

    def counting_forward(params, obs, sets=None):
        if sets is not None:
            batched_calls.append(len(obs))
        return real_forward(params, obs, sets)

    monkeypatch.setattr(agents, "forward", counting_forward)
    passes = 0
    for _ in range(STEPS):
        joint, expected = JointActions(), JointActions()
        for bundle, ref in zip(batched, reference):
            bundle.act(env, joint)
            passes += 1 + any(agent == bundle.agent for agent, _ in joint.prices)
            assert_rows_match_encoders(bundle, env, joint)
            act_unit_by_unit(ref, env, expected)
        assert joint == expected
        result = env.step(joint)
        for bundle in batched + reference:
            deliver_rewards(bundle, result)

    for bundle, ref in zip(batched, reference):
        for key, unit in bundle.units.items():
            assert unit.updates == ref.units[key].updates
        for key, params in bundle.params.items():
            for (name, got), (_, want) in zip(params.tensors(), ref.params[key].tensors()):
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (key, name)
    assert sum(u.updates for b in batched for u in b.units.values()) > 0
    if arch != ARCH_DIST:
        # shared sets updated mid-pass, so later rows were evaluated again
        assert len(batched_calls) > passes


def test_stack_views_write_through_and_padding_stays_masked():
    cfg = make_config()
    bundle = AgentBundle(ARCH_DIST_PS, 0, cfg, HYPER, seed=3)
    stack = bundle.stack
    for index, params in enumerate(bundle.params.values()):
        params.bp += 1.0
        params.bv += 2.0
        width = params.action_count
        assert np.array_equal(stack.head_bias[index, :width], params.bp)
        assert np.all(stack.head_bias[index, width:-1] == -np.inf)
        assert stack.head_bias[index, -1] == params.bv[0]
        assert np.array_equal(stack.head[index, -1], params.wv)
