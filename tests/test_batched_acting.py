"""The batched acting pass against acting one unit at a time.

The reference acts the way every unit acted before batching: encode one
observation vector, one 1-D ``forward``, one ``sample`` from the unit's own
stream, in unit order (the acceptors, then the offer makers, each offer
maker followed by its price setter). An aggregated unit's vector is its
positions' encodings side by side, and ``mixed_radix_decode`` turns its
action into one digit per position; the digits of cores the agent does not
own are dropped. A rollout length of 4 makes shared parameter sets update in
the middle of a pass. The ``Trainer``'s step, one pass over every agent's
rows per parameter layout, is checked against the same reference and
against each bundle acting alone.
"""

import numpy as np
import pytest

from marketsched import agents
from marketsched.agents import (
    ARCH_DIST,
    ARCH_DIST_PRICE,
    ARCH_DIST_PS,
    ARCH_FULL,
    ARCH_SEMI,
    AgentBundle,
    Trainer,
    build_bundles,
    deliver_rewards,
    update_units,
)
from marketsched.config import PricingMode
from marketsched.env import JointActions, SchedulingEnv
from marketsched.neural import PPOHyper

from helpers import make_config
from reference import (
    encode_acceptor_obs,
    encode_offer_obs,
    encode_price_obs,
    forward,
    mixed_radix_decode,
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
        if unit.buffer.full:
            update_units(bundle.stack, [unit], [unit.param_set], [value])
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


def assert_rows_match_encoders(bundle, env, joint):
    """What each unit recorded this step is its encoders' vector."""
    a = bundle.agent
    for unit in bundle.units.values():
        spec = unit.spec
        acted = spec.slots or any((a, m) in joint.accepts for m in spec.cores)
        if not acted:
            continue
        recorded = unit.buffer.obs[len(unit.buffer) - 1]
        assert np.array_equal(recorded, reference_obs(env, a, spec))
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


def layout(bundle):
    """The padded layout that decides which bundles share a home stack."""
    return bundle.stack.w1.shape[1:], bundle.stack.head.shape[1:]


@pytest.mark.parametrize("archs", [
    (ARCH_DIST, ARCH_DIST), (ARCH_DIST_PS, ARCH_DIST_PS), (ARCH_DIST_PRICE, ARCH_DIST_PRICE),
    (ARCH_SEMI, ARCH_SEMI), (ARCH_FULL, ARCH_FULL), (ARCH_FULL, ARCH_DIST_PRICE),
    (ARCH_DIST, ARCH_FULL, ARCH_DIST_PS),  # DIST and DIST_PS share a layout
], ids="-".join)
def test_trainer_step_matches_unit_by_unit_acting(archs, monkeypatch):
    """One pass per step and layout over every agent's rows acts as each
    bundle acting alone and as every unit acting alone; its weights end
    bit-identical to those of bundles that act alone."""
    cfg = make_config(num_agents=len(archs), pricing_mode=PricingMode.FREE_COMMERCIAL
                      if ARCH_DIST_PRICE in archs else PricingMode.FIXED)
    env = SchedulingEnv(cfg, seed=21)
    batched = build_bundles(archs, cfg, HYPER, seed=21)
    alone, by_unit = ([AgentBundle(arch, a, cfg, HYPER, seed=21) for a, arch in enumerate(archs)]
                      for _ in range(2))
    layouts = {layout(bundle) for bundle in batched}
    assert len({id(bundle.stack.home) for bundle in batched}) == len(layouts)
    trainer = Trainer(env, batched)

    forward_calls = []
    real_forward = agents.forward

    def counting_forward(stack, obs, sets):
        forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

    monkeypatch.setattr(agents, "forward", counting_forward)
    passes = 0
    real_step = env.step

    def checked_step(joint):
        nonlocal passes
        priced = {layout(batched[a]) for a, _ in joint.prices}
        passes += len(layouts) + len(priced)
        calls = len(forward_calls)
        each, expected = JointActions(), JointActions()
        for bundle, ref in zip(alone, by_unit):
            bundle.act(env, each)
            act_unit_by_unit(ref, env, expected)
        del forward_calls[calls:]  # count the trainer's calls only
        assert joint == expected
        assert joint == each
        result = real_step(joint)
        for bundle in alone + by_unit:
            deliver_rewards(bundle, result)
        return result

    monkeypatch.setattr(env, "step", checked_step)
    for _ in range(STEPS):
        trainer.step()

    updates = sum(u.updates for b in batched for u in b.units.values())
    assert updates > 0
    for bundle, one, ref in zip(batched, alone, by_unit):
        for key, unit in bundle.units.items():
            assert unit.updates == one.units[key].updates == ref.units[key].updates
        for name in ("rows", "m", "v"):
            assert getattr(bundle.stack, name).tobytes() == getattr(one.stack, name).tobytes()
        assert bundle.stack.steps == one.stack.steps
        for key, params in bundle.params.items():
            for (name, got), (_, want) in zip(params.tensors(), ref.params[key].tensors()):
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (key, name)
    if set(archs) & {ARCH_DIST_PS, ARCH_DIST_PRICE}:
        # shared sets updated mid-pass, so later rows were evaluated again,
        # at most once per update
        assert passes < len(forward_calls) <= passes + updates
    else:
        assert len(forward_calls) == passes


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS, ARCH_FULL])
def test_a_bundle_in_a_home_acts_alone_as_a_standalone_one(arch):
    cfg = make_config()
    env = SchedulingEnv(cfg, seed=22)
    homed = build_bundles((arch, arch), cfg, HYPER, seed=22)
    alone = [AgentBundle(arch, a, cfg, HYPER, seed=22) for a in range(2)]
    assert homed[1].stack.first > 0
    for _ in range(30):
        got, want = JointActions(), JointActions()
        for bundle, one in zip(homed, alone):
            bundle.act(env, got)
            one.act(env, want)
        assert got == want
        result = env.step(got)
        for bundle in homed + alone:
            deliver_rewards(bundle, result)
    for bundle, one in zip(homed, alone):
        assert bundle.stack.rows.tobytes() == one.stack.rows.tobytes()


def due_updates(bundles, env):
    """The parameter sets (home rows) whose units are due to update in this
    step's pass, with how many of each set's acting units are due."""
    due = {}
    for bundle in bundles:
        for unit in bundle.units.values():
            acts = unit.spec.slots or any(env.cores[m].owner == bundle.agent
                                          for m in unit.spec.cores)
            if acts and unit.buffer.full:
                s = bundle.stack.first + unit.param_set
                due[s] = due.get(s, 0) + 1
    return due


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS])
def test_sets_due_together_update_in_one_call_per_wave_and_shape(arch, monkeypatch):
    """Wave k of a pass updates the set of each k-th due unit, one
    ``ppo_update`` per network shape; the Trainer still ends byte for byte
    where bundles acting alone end."""
    cfg = make_config(num_slots=3)
    env = SchedulingEnv(cfg, seed=23)
    batched = build_bundles((arch, arch), cfg, HYPER, seed=23)
    alone = [AgentBundle(arch, a, cfg, HYPER, seed=23) for a in range(2)]
    home = batched[0].stack.home
    trainer = Trainer(env, batched)

    calls, forward_calls = [], []
    real_update, real_forward = agents.ppo_update, agents.forward

    def counting_update(stack, sets, batches, hyper, rngs):
        if stack is home:  # the pass's waves, not the bundles acting alone
            calls.append(list(sets))
        return real_update(stack, sets, batches, hyper, rngs)

    def counting_forward(stack, obs, sets):
        if stack is home:
            forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

    monkeypatch.setattr(agents, "ppo_update", counting_update)
    monkeypatch.setattr(agents, "forward", counting_forward)
    real_step = env.step

    def lockstep(joint):
        each = JointActions()
        for bundle in alone:
            bundle.act(env, each)
        assert joint == each
        result = real_step(joint)
        for bundle in alone:
            deliver_rewards(bundle, result)
        return result

    monkeypatch.setattr(env, "step", lockstep)
    widest = 0
    for _ in range(STEPS):
        due = due_updates(batched, env)
        expected = []  # wave k: the sets with more than k due units, by shape
        for k in range(max(due.values(), default=0)):
            wave = [s for s in sorted(due) if due[s] > k]
            shapes = {home.shapes[s] for s in wave}
            expected += [[s for s in wave if home.shapes[s] == shape] for shape in shapes]
        calls.clear()
        trainer.step()
        assert sorted(calls) == sorted(expected)
        widest = max([widest] + [len(sets) for sets in calls])

    assert widest >= 2  # several sets' windows filled in one step
    updates = sum(u.updates for b in batched for u in b.units.values())
    for bundle, one in zip(batched, alone):
        for key, unit in bundle.units.items():
            assert unit.updates == one.units[key].updates
        for name in ("rows", "m", "v", "grads"):
            assert getattr(bundle.stack, name).tobytes() == getattr(one.stack, name).tobytes()
        assert bundle.stack.steps == one.stack.steps
    if arch == ARCH_DIST_PS:
        # a shared set's later rows are evaluated again once per wave
        assert STEPS < len(forward_calls) <= STEPS + updates
    else:
        assert len(forward_calls) == STEPS
