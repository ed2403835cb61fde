"""The batched acting pass against acting one unit at a time.

The reference acts the way every unit acted before batching: encode one
observation vector, one 1-D ``forward``, one ``sample`` from the unit's own
stream, in unit order (the acceptors, then the offer makers, each offer
maker followed by its price setter). An aggregated unit's vector is its
positions' encodings side by side, and ``mixed_radix_decode`` turns its
action into one digit per position; the digits of cores the agent does not
own are dropped. A rollout length of 4 makes shared parameter sets update in
the middle of a pass. A home's pass over every agent's rows, and the
``Trainer``'s step, one such pass per parameter layout, are checked against
the same reference and against agents that each act in a ``Home`` of their
own.
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
    Trainer,
    build_homes,
    route_rewards,
    unit_layout,
)
from marketsched.config import PricingMode
from marketsched.env import JointActions, SchedulingEnv
from marketsched.neural import PPOHyper
from marketsched.rng import STREAM_UNIT_SAMPLE, derive_rng

from helpers import (act, make_config, newest_obs, params_of, standalone, unit_rows,
                     update_counts)
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


def act_unit_by_unit(home, arch, env, joint):
    """The one agent of ``home``, of architecture ``arch``, acting one unit
    at a time, in ``unit_layout`` order; the units' windows are where the
    home's pass keeps them."""
    cfg, rows = home.config, unit_rows(home)
    (a,) = set(home.agents)
    owned = {m for m in range(cfg.num_cores)
             if cfg.trading_enabled and env.cores[m].owner == a}
    for spec in unit_layout(arch, cfg):
        if not spec.slots and not owned & set(spec.cores):
            continue  # price setters, and acceptors of cores the agent does not own
        u = rows[(a, spec.key)]
        obs = reference_obs(env, a, spec)
        logits, value = forward(params_of(home, a, spec.param_key), obs)
        action, logp = sample(logits, home.sample_rngs[u])
        if home.sizes[u] == home.length:
            home.update([u], [value])
        home.record(u, u * home.length + home.sizes[u], obs, action, logp, value)
        for (kind, i), digit in zip(spec.positions, mixed_radix_decode(action, spec.radices)):
            if kind == "accept" and i in owned:
                joint.accepts[(a, i)] = digit
            elif kind == "offer":
                joint.offers[(a, i)] = digit
                act_price(home, arch, a, env, joint, i)


def act_price(home, arch, a, env, joint, k):
    cfg = home.config
    choice = joint.offers[(a, k)]
    if (arch == ARCH_DIST_PRICE and cfg.pricing_mode.is_free
            and choice > 0 and env.slots[a][k] is not None):
        u = home.at[(a, ("price", k))]
        obs = encode_price_obs(env, a, k, choice - 1)
        logits, value = forward(params_of(home, a, "price"), obs)
        price, logp = sample(logits, home.sample_rngs[u])
        home.pending[u] = (obs, price, logp, value)
        joint.prices[(a, k)] = price


def assert_rows_match_encoders(home, env, joint):
    """What each unit of ``home`` recorded this step is its encoders' vector."""
    rows = unit_rows(home)
    for a, spec in zip(home.agents, home.specs):
        acted = spec.slots or any((a, m) in joint.accepts for m in spec.cores)
        if not acted:
            continue
        recorded = newest_obs(home, rows[(a, spec.key)])
        assert np.array_equal(recorded, reference_obs(env, a, spec))
    for (a, k) in joint.prices:
        if (a, ("price", k)) in home.at:
            recorded = home.pending[rows[(a, ("price", k))]][0]
            expected = encode_price_obs(env, a, k, joint.offers[(a, k)] - 1)
            assert np.array_equal(recorded, expected)


def named_sets(homes):
    """Each parameter set of ``homes`` by its checkpoint name: (its home's
    stack, its row)."""
    return {name: (home.stack, row) for home in homes for row, name in enumerate(home.names)}


def learned_state(homes):
    """The bytes of each set's row of its stack's weights, moments and step
    counts, by name."""
    return {name: [getattr(stack, field)[row].tobytes()
                   for field in ("rows", "m", "v", "step_counts")]
            for name, (stack, row) in named_sets(homes).items()}


def assert_params_close(homes, reference):
    """Every parameter set of ``homes`` is close to the same agent's set in
    the ``reference`` homes."""
    sets, ref = named_sets(homes), named_sets(reference)
    assert sets.keys() == ref.keys()
    for key, (stack, row) in sets.items():
        want = ref[key][0].views[ref[key][1]]
        for (name, got), (_, expected) in zip(stack.views[row].tensors(), want.tensors()):
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12), (key, name)


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE,
                                  ARCH_SEMI, ARCH_FULL])
def test_batched_pass_matches_unit_by_unit_acting(arch, monkeypatch):
    cfg = make_config(pricing_mode=PricingMode.FREE_COMMERCIAL
                      if arch == ARCH_DIST_PRICE else PricingMode.FIXED)
    env = SchedulingEnv(cfg, seed=21)
    batched = build_homes((arch,) * cfg.num_agents, cfg, HYPER, seed=21)
    reference = standalone((arch,) * cfg.num_agents, cfg, HYPER, seed=21)

    forward_calls = []
    real_forward = agents.forward

    def counting_forward(stack, obs, sets):
        forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

    monkeypatch.setattr(agents, "forward", counting_forward)
    passes = 0
    for _ in range(STEPS):
        joint, expected = act(batched, env), JointActions()
        passes += 1 + bool(joint.prices)  # the home's pass, then its price setters'
        for home in batched:
            assert_rows_match_encoders(home, env, joint)
        for ref in reference:
            act_unit_by_unit(ref, arch, env, expected)
        assert joint == expected
        result = env.step(joint)
        for home in batched + reference:
            route_rewards(home, result)

    assert update_counts(batched) == update_counts(reference)
    assert_params_close(batched, reference)
    assert sum(batched[0].updates) > 0
    if arch in (ARCH_DIST_PS, ARCH_DIST_PRICE):
        # shared sets updated mid-pass, so later rows were evaluated again
        assert len(forward_calls) > passes
    else:
        assert len(forward_calls) == passes


def test_stack_views_write_through_and_padding_stays_masked():
    cfg = make_config()
    (home,) = standalone((ARCH_DIST_PS,), cfg, HYPER, seed=3)
    stack = home.stack
    for index, params in enumerate(stack.views):
        params.bp += 1.0
        params.bv += 2.0
        width = params.action_count
        assert np.array_equal(stack.head_bias[index, :width], params.bp)
        assert np.all(stack.head_bias[index, width:-1] == -np.inf)
        assert stack.head_bias[index, -1] == params.bv[0]
        assert np.array_equal(stack.head[index, -1], params.wv)


def layout(home):
    """The padded layout that decides which agents share a home."""
    return home.stack.w1.shape[1:], home.stack.head.shape[1:]


@pytest.mark.parametrize("archs", [
    (ARCH_DIST, ARCH_DIST), (ARCH_DIST_PS, ARCH_DIST_PS), (ARCH_DIST_PRICE, ARCH_DIST_PRICE),
    (ARCH_SEMI, ARCH_SEMI), (ARCH_FULL, ARCH_FULL), (ARCH_FULL, ARCH_DIST_PRICE),
    (ARCH_DIST, ARCH_FULL, ARCH_DIST_PS),  # DIST and DIST_PS share a layout
], ids="-".join)
def test_trainer_step_matches_unit_by_unit_acting(archs, monkeypatch):
    """One pass per step and layout over every agent's rows acts as each
    agent acting alone and as every unit acting alone; its weights end
    bit-identical to those of agents that act alone."""
    cfg = make_config(num_agents=len(archs), pricing_mode=PricingMode.FREE_COMMERCIAL
                      if ARCH_DIST_PRICE in archs else PricingMode.FIXED)
    env = SchedulingEnv(cfg, seed=21)
    batched = build_homes(archs, cfg, HYPER, seed=21)
    alone, by_unit = (standalone(archs, cfg, HYPER, seed=21) for _ in range(2))
    layouts = {layout(home) for home in alone}
    assert {layout(home) for home in batched} == layouts and len(batched) == len(layouts)
    home_of = {a: home for home in batched for a in home.agents}
    trainer = Trainer(env, batched)

    forward_calls = []
    real_forward = agents.forward

    def counting_forward(stack, obs, sets):
        forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

    monkeypatch.setattr(agents, "forward", counting_forward)
    passes = 0
    real_step = env.step
    decisions = {}  # each price setter's priced decisions, by (agent, slot)

    def checked_step(joint):
        nonlocal passes
        priced = {id(home_of[a]) for a, _ in joint.prices}
        for a, k in joint.prices:
            decisions[a, k] = decisions.get((a, k), 0) + 1
        passes += len(layouts) + len(priced)
        calls = len(forward_calls)
        each, expected = act(alone, env), JointActions()
        for ref, arch in zip(by_unit, archs):
            act_unit_by_unit(ref, arch, env, expected)
        del forward_calls[calls:]  # count the trainer's calls only
        assert joint == expected
        assert joint == each
        result = real_step(joint)
        for home in alone + by_unit:
            route_rewards(home, result)
        return result

    monkeypatch.setattr(env, "step", checked_step)
    for _ in range(STEPS):
        trainer.step()

    updates = sum(update_counts(batched).values())
    assert updates > 0
    # a unit with an offer position drew once a step, a block of
    # rollout_length at a time: STEPS / 4 blocks, whose draws were the
    # reference's one at a time; row t of its draws is the draw of row t of
    # its window, the last block's
    index, spec = next((i, spec) for i, spec in enumerate(unit_layout(archs[0], cfg))
                       if spec.slots)
    stream = derive_rng(21, STREAM_UNIT_SAMPLE, 0, index)
    drawn = stream.random(STEPS)
    home, u = home_of[0], unit_rows(home_of[0])[(0, spec.key)]
    assert home.sample_rngs[u].bit_generator.state == stream.bit_generator.state
    assert home.updates[u] and home.sizes[u]
    assert home.draws[u, :home.sizes[u]].tobytes() == drawn[STEPS - home.sizes[u]:].tobytes()
    # a price setter drew once per priced decision, traded or not, so its
    # stream stands at its last decision, not at the end of a block
    for home in batched:
        for a, k, u in home.setters:
            index = unit_layout(archs[a], cfg).index(home.specs[u])
            stream = derive_rng(21, STREAM_UNIT_SAMPLE, a, index)
            stream.random(decisions.get((a, k), 0))
            assert home.sample_rngs[u].bit_generator.state == stream.bit_generator.state
    if ARCH_DIST_PRICE in archs:
        assert any(count % HYPER.rollout_length for count in decisions.values())
    assert update_counts(batched) == update_counts(alone) == update_counts(by_unit)
    assert learned_state(batched) == learned_state(alone)
    assert_params_close(batched, by_unit)
    if set(archs) & {ARCH_DIST_PS, ARCH_DIST_PRICE}:
        # shared sets updated mid-pass, so later rows were evaluated again,
        # at most once per update
        assert passes < len(forward_calls) <= passes + updates
    else:
        assert len(forward_calls) == passes


def pass_rows(home, env):
    """The (parameter set, due) of each row of this step's pass, in row
    order, which is unit order: each unit that acts, due if its window is
    full."""
    return [(int(home.sets[u]), bool(home.sizes[u] == home.length))
            for u, (agent, spec) in enumerate(zip(home.agents, home.specs))
            if spec.slots or any(env.cores[m].owner == agent for m in spec.cores)]


@pytest.mark.parametrize("arch", [ARCH_DIST, ARCH_DIST_PS])
def test_sets_due_together_update_in_one_call_per_wave_and_shape(arch, monkeypatch):
    """Wave k of a pass updates the set of each k-th due unit, one
    ``ppo_update`` per network shape, and a row of wave k >= 1 is forwarded
    again once, just before its wave; the Trainer still ends byte for byte
    where agents acting alone end."""
    cfg = make_config(num_slots=3)
    env = SchedulingEnv(cfg, seed=23)
    batched = build_homes((arch, arch), cfg, HYPER, seed=23)
    alone = standalone((arch, arch), cfg, HYPER, seed=23)
    (home,) = batched
    trainer = Trainer(env, batched)

    calls, forward_calls = [], []
    real_update, real_forward = agents.ppo_update, agents.forward

    def counting_update(stack, sets, batches, hyper, rngs):
        if stack is home.stack:  # the pass's waves, not the agents acting alone
            calls.append(list(sets))
        return real_update(stack, sets, batches, hyper, rngs)

    def counting_forward(stack, obs, sets):
        if stack is home.stack:
            forward_calls.append(len(obs))
        return real_forward(stack, obs, sets)

    monkeypatch.setattr(agents, "ppo_update", counting_update)
    monkeypatch.setattr(agents, "forward", counting_forward)
    real_step = env.step

    def lockstep(joint):
        assert joint == act(alone, env)
        result = real_step(joint)
        for one in alone:
            route_rewards(one, result)
        return result

    monkeypatch.setattr(env, "step", lockstep)
    widest, forwarded_again = 0, 0
    for _ in range(STEPS):
        rows = pass_rows(home, env)
        due = {}  # the due units of each set
        waves = []  # each row's wave: the due rows of its set before it
        for s, is_due in rows:
            waves.append(due.get(s, 0))
            due[s] = waves[-1] + is_due
        expected = []  # wave k: the sets with more than k due units, by shape
        for k in range(max(due.values(), default=0)):
            wave = [s for s in sorted(due) if due[s] > k]
            shapes = {home.stack.shapes[s] for s in wave}
            expected += [[s for s in wave if home.stack.shapes[s] == shape] for shape in shapes]
        calls.clear()
        forward_calls.clear()
        trainer.step()
        assert sorted(calls) == sorted(expected)
        widest = max([widest] + [len(sets) for sets in calls])
        # one forward of every row, then one of the rows of each later wave
        assert forward_calls == [len(rows)] + [waves.count(k) for k in range(1, max(waves) + 1)]
        forwarded_again += sum(forward_calls[1:])

    assert widest >= 2  # several sets' windows filled in one step
    assert update_counts(batched) == update_counts(alone)
    assert learned_state(batched) == learned_state(alone)
    # a shared set's rows after its first due unit were forwarded again
    assert bool(forwarded_again) == (arch == ARCH_DIST_PS)


@pytest.mark.parametrize("n", [1, 4, 256])
def test_a_block_of_draws_is_the_draws_one_at_a_time(n):
    """Units draw their uniforms a block at a time; the block must be the
    numbers, and leave the stream in the state, of one draw per decision."""
    block, single = (derive_rng(5, STREAM_UNIT_SAMPLE, 1, 3) for _ in range(2))
    drawn = block.random(n)
    assert drawn.tobytes() == np.array([single.random() for _ in range(n)]).tobytes()
    assert block.bit_generator.state == single.bit_generator.state


class FixedDraw:
    """A stream that gives one number."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def assert_newest_decisions_follow(homes, weights):
    """Each offer unit's latest decision in ``homes`` is what the same
    agent's parameter set in the homes ``weights`` decides on the recorded
    observation and draw."""
    for home in homes:
        for u, (agent, spec) in enumerate(zip(home.agents, home.specs)):
            if not spec.slots:
                continue
            t = home.sizes[u] - 1
            (other,) = [w for w in weights if agent in w.agents]
            logits, value = forward(params_of(other, agent, spec.param_key), newest_obs(home, u))
            action, logp = sample(logits, FixedDraw(home.draws[u, t]))
            assert home.actions[u, t] == action, (agent, spec.key)
            assert np.isclose(home.logps[u, t], logp, rtol=1e-12, atol=0), (agent, spec.key)
            assert np.isclose(home.values[u, t], value, rtol=1e-12, atol=0), (agent, spec.key)


def test_a_pass_acts_on_weights_loaded_between_steps(tmp_path):
    cfg = make_config(trading_enabled=False)  # every pass has the same rows and sets
    env = SchedulingEnv(cfg, seed=41)
    homes = build_homes((ARCH_DIST, ARCH_DIST), cfg, HYPER, seed=41)
    trainer = Trainer(env, homes)
    trainer.step()
    build_homes((ARCH_DIST, ARCH_DIST), cfg, HYPER, seed=42)[0].save(tmp_path / "home.npz")
    homes[0].load(tmp_path / "home.npz")
    trainer.step()
    fresh = build_homes((ARCH_DIST, ARCH_DIST), cfg, HYPER, seed=43)
    fresh[0].load(tmp_path / "home.npz")
    assert_newest_decisions_follow(homes, fresh)


def test_a_pass_after_an_update_wave_reads_the_updated_rows():
    cfg = make_config(trading_enabled=False)
    env = SchedulingEnv(cfg, seed=44)
    homes = build_homes((ARCH_DIST, ARCH_DIST), cfg, HYPER, seed=44)
    trainer = Trainer(env, homes)
    (home,) = homes
    offers = [u for u, spec in enumerate(home.specs) if spec.slots]
    while not any(home.updates[u] for u in offers):
        trainer.step()
    assert all(home.updates[u] == 1 for u in offers)  # all in one wave
    trainer.step()
    assert all(home.updates[u] == 1 for u in offers)
    assert_newest_decisions_follow(homes, homes)
