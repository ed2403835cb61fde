"""Observation layouts, normalization, and length formulas."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsched.config import EnvConfig, JobType, PricingMode
from marketsched.env import JointActions, SchedulingEnv
from marketsched.obs import (
    PRICE_OBS_LEN,
    acceptor_index,
    acceptor_obs_len,
    market_image,
    offer_index,
    offer_obs_len,
    price_index,
)
from marketsched.rng import STREAM_FUZZ, derive_rng

from helpers import manual_config, place_job, random_actions
from reference import encode_acceptor_obs, encode_offer_obs, encode_price_obs


def acceptor_row(env, agent, core):
    return market_image(env)[acceptor_index(env.config, agent, core)]


def offer_row(env, agent, slots):
    return market_image(env)[offer_index(env.config, agent, slots)]


def price_row(env, agent, slot, core):
    return market_image(env)[price_index(env.config, agent, slot, core)]


def test_idle_core_no_offers_is_zero_except_flags():
    env = SchedulingEnv(manual_config(), 0)
    vec = acceptor_row(env, 0, 0)
    assert vec.shape == (3 + 4 * 2 * 3,)
    assert np.all(vec == 0.0)


def test_acceptor_obs_own_core_with_offer():
    cfg = manual_config(job_types=(JobType(0, 5, 5, 0.0),),
                        num_agents=2, num_cores=1, num_slots=1)
    env = SchedulingEnv(cfg, 0)
    mine = place_job(env, 0, 0)
    env.step(JointActions(offers={(0, 0): 1}))
    env.step(JointActions())  # granted to agent 0
    place_job(env, 1, 0)
    env.step(JointActions(offers={(1, 0): 1}))  # fresh offer: price 5, ttp 5
    vec = acceptor_row(env, 0, 0)
    running = env.cores[0].job
    assert vec[0] == 1.0  # priority 5 / max 5
    assert vec[1] == running.remaining_burst / 5
    assert vec[2] == 1.0  # owned by observer
    # grid cell for (agent 1, slot 0) is index 1 with num_slots=1
    block = vec[3 + 4 * 1: 3 + 4 * 2]
    assert list(block) == [1.0, 1.0, 1.0, 1.0]
    # same core seen by the other agent: ownership flag flips
    assert acceptor_row(env, 1, 0)[2] == 0.0


def test_offer_obs_single_slot_layout():
    cfg = manual_config(num_agents=1, num_cores=2, num_slots=2)
    env = SchedulingEnv(cfg, 0)
    job = place_job(env, 0, 1)
    vec = offer_row(env, 0, [1])
    assert vec.shape == (3 * 2 + 3,)
    assert list(vec[6:]) == [1.0, 1.0, 1.0]
    empty = offer_row(env, 0, [0])
    assert list(empty[6:]) == [0.0, 0.0, 0.0]


def test_offer_obs_all_slots_layout():
    cfg = manual_config(num_agents=1, num_cores=2, num_slots=3)
    env = SchedulingEnv(cfg, 0)
    place_job(env, 0, 2)
    vec = offer_row(env, 0, range(3))
    assert vec.shape == (3 * 2 + 3 * 3,)
    assert vec[6 + 3 * 2] == 1.0  # validity of slot 2


def test_price_obs_fresh_job_idle_core():
    cfg = manual_config(job_types=(JobType(0, 5, 5, 0.0),),
                        num_agents=1, num_cores=1, num_slots=1)
    env = SchedulingEnv(cfg, 0)
    place_job(env, 0, 0)
    vec = price_row(env, 0, 0, 0)
    assert list(vec) == [1.0, 1.0, 0.0, 0.0]
    assert vec.shape == (PRICE_OBS_LEN,)
    again = price_row(env, 0, 0, 0)
    assert np.array_equal(vec, again)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_lengths_match_formulas(num_cores, num_agents, num_slots, seed):
    cfg = EnvConfig(num_agents, num_cores, num_slots,
                    job_types=(JobType(0, 3, 4, 0.5), JobType(1, 7, 2, 0.3)))
    env = SchedulingEnv(cfg, seed)
    assert acceptor_row(env, 0, 0).shape == (
        acceptor_obs_len(num_agents, num_slots),)
    assert acceptor_obs_len(num_agents, num_slots) == 3 + 4 * num_agents * num_slots
    assert offer_row(env, 0, [0]).shape == (3 * num_cores + 3,)
    assert offer_row(env, 0, range(num_slots)).shape == (
        offer_obs_len(num_cores, num_slots),)
    assert offer_obs_len(num_cores, num_slots) == 3 * num_cores + 3 * num_slots


def test_values_stay_in_unit_interval():
    cfg = EnvConfig(2, 2, 3, job_types=(JobType(0, 1, 10, 0.5), JobType(1, 5, 2, 0.3)),
                    pricing_mode="FREE_COMMERCIAL")
    env = SchedulingEnv(cfg, 21)
    rng = derive_rng(21, STREAM_FUZZ)
    for _ in range(300):
        env.step(random_actions(env, rng))
        for agent in range(2):
            for core in range(2):
                vec = acceptor_row(env, agent, core)
                assert np.all((vec >= 0.0) & (vec <= 1.0))
            for slot in range(3):
                vec = offer_row(env, agent, [slot])
                assert np.all((vec >= 0.0) & (vec <= 1.0))
                for core in range(2):
                    vec = price_row(env, agent, slot, core)
                    assert np.all((vec >= 0.0) & (vec <= 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.sampled_from(PricingMode),
       st.booleans(), st.integers(0, 30), st.integers(0, 10_000))
def test_image_rows_match_the_reference_encoders(num_agents, num_cores, num_slots, pricing,
                                                 trading, steps, seed):
    cfg = EnvConfig(num_agents, num_cores, num_slots,
                    job_types=(JobType(0, 1, 4, 0.4), JobType(1, 5, 2, 0.3)),
                    pricing_mode=pricing, trading_enabled=trading)
    env = SchedulingEnv(cfg, seed)
    rng = derive_rng(seed, STREAM_FUZZ)
    for _ in range(steps):
        env.step(random_actions(env, rng))
    image = market_image(env)
    for agent in range(num_agents):
        rows = [(acceptor_index(cfg, agent, m), encode_acceptor_obs(env, agent, m))
                for m in range(num_cores)]
        rows += [(offer_index(cfg, agent, [k]), encode_offer_obs(env, agent, k))
                 for k in range(num_slots)]
        rows.append((offer_index(cfg, agent, range(num_slots)),
                     encode_offer_obs(env, agent, None)))
        rows += [(price_index(cfg, agent, k, m), encode_price_obs(env, agent, k, m))
                 for k in range(num_slots) for m in range(num_cores)]
        for index, expected in rows:
            assert 0 <= min(index) and max(index) < len(image)
            assert image[index].tobytes() == expected.tobytes()
