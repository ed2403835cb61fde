"""The batched acting pass against acting one unit at a time.

The reference acts the way every unit acted before batching: encode one
observation vector, one 1-D ``forward``, one ``sample`` from the unit's own
stream, in unit order (the acceptors, then the offer makers, each offer
maker followed by its price setter). An aggregated unit's vector is its
positions' encodings side by side, and ``mixed_radix_decode`` turns its
action into one digit per position; the digits of cores the agent does not
own are dropped. A rollout length of 4 makes shared parameter sets update in
the middle of a pass.
"""

import numpy as np
import pytest

from marketsched import agents
from marketsched.actions import mixed_radix_decode
from marketsched.agents import (
    ARCH_DIST,
    ARCH_DIST_PRICE,
    ARCH_DIST_PS,
    ARCH_FULL,
    ARCH_SEMI,
    AgentBundle,
    deliver_rewards,
)
from marketsched.config import PricingMode
from marketsched.env import JointActions, SchedulingEnv
from marketsched.neural import PPOHyper
from marketsched.obs import acceptor_obs_len

from helpers import make_config
from reference import (
    encode_acceptor_obs,
    encode_offer_obs,
    encode_price_obs,
    forward,
    sample,
)

HYPER = PPOHyper(rollout_length=4, minibatch_size=2, epochs=2)
STEPS = 80


def reference_obs(env, agent, spec):
    """A unit's observation from the encoders (layout in ``unit_layout``)."""
    parts = [encode_acceptor_obs(env, agent, m) for m in spec.cores]
    if len(spec.slots) == 1:
        parts.append(encode_offer_obs(env, agent, spec.slots[0]))
    elif spec.slots:
        parts.append(encode_offer_obs(env, agent, None))
    return np.concatenate(parts)


def act_unit_by_unit(bundle, env, joint):
    cfg, a = bundle.config, bundle.agent
    owned = {m for m in range(cfg.num_cores)
             if cfg.trading_enabled and env.cores[m].owner == a}
    for unit in bundle.units.values():
        spec = unit.spec
        if not spec.slots and not owned & set(spec.cores):
            continue  # price setters, and acceptors of cores the agent does not own
        obs = reference_obs(env, a, spec)
        logits, value = forward(bundle.stack.views[unit.param_set], obs)
        action, logp = sample(logits, unit.sample_rng)
        unit.record(obs, action, logp, value)
        for (kind, i), digit in zip(spec.positions,
                                    mixed_radix_decode(action, spec.radices)):
            if kind == "accept" and i in owned:
                joint.accepts[(a, i)] = digit
            elif kind == "offer":
                joint.offers[(a, i)] = digit
                act_price(bundle, env, joint, i)


def act_price(bundle, env, joint, k):
    cfg, a = bundle.config, bundle.agent
    choice = joint.offers[(a, k)]
    if (bundle.arch == ARCH_DIST_PRICE and cfg.pricing_mode.is_free
            and choice > 0 and env.slots[a][k] is not None):
        unit = bundle.units[("price", k)]
        obs = encode_price_obs(env, a, k, choice - 1)
        logits, value = forward(bundle.stack.views[unit.param_set], obs)
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
    """What each unit recorded this step is its encoders' vector."""
    a = bundle.agent
    for unit in bundle.units.values():
        spec = unit.spec
        acted = spec.slots or any((a, m) in joint.accepts for m in spec.cores)
        if not acted:
            continue
        recorded = unit.open_sample[0]
        assert np.array_equal(recorded, reference_obs(env, a, spec))
        width = acceptor_obs_len(bundle.config.num_agents, bundle.config.num_slots)
        for i, m in enumerate(spec.cores):
            block = recorded[i * width:(i + 1) * width]
            assert np.array_equal(block, acceptor_obs_from_sorted_offers(env, a, m))
    for (agent, k) in joint.prices:
        if agent == a:
            recorded = bundle.units[("price", k)].pending_prices[env.time][0]
            expected = encode_price_obs(env, a, k, joint.offers[(a, k)] - 1)
            assert np.array_equal(recorded, expected)


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE,
                                  ARCH_SEMI, ARCH_FULL])
def test_batched_pass_matches_unit_by_unit_acting(arch, monkeypatch):
    cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL
                      if arch == ARCH_DIST_PRICE else PricingMode.FIXED)
    env = SchedulingEnv(cfg, seed=21)
    batched = [AgentBundle(arch, a, cfg, HYPER, seed=21) for a in range(cfg.num_agents)]
    reference = [AgentBundle(arch, a, cfg, HYPER, seed=21) for a in range(cfg.num_agents)]

    forward_calls = []
    real_forward = agents.forward

    def counting_forward(stack, obs, sets):
        forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

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
    if arch in (ARCH_DIST_PS, ARCH_DIST_PRICE):
        # shared sets updated mid-pass, so later rows were evaluated again
        assert len(forward_calls) > passes
    else:
        assert len(forward_calls) == passes


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
