"""Shared builders for environment-level and learner tests."""

import numpy as np

from marketsched.agents import Home, _parameter_sets
from marketsched.config import EnvConfig, JobType
from marketsched.env import AUCTIONEER, Job, JointActions
from marketsched.ppo import TrainBatch
from marketsched.obs import market_image


def make_config(**kwargs):
    defaults = dict(
        num_agents=2,
        num_cores=2,
        num_slots=3,
        job_types=(JobType(0, 1, 10, 0.9), JobType(1, 5, 2, 0.1)),
        trading_enabled=True,
    )
    defaults.update(kwargs)
    return EnvConfig(**defaults)


def manual_config(job_types=(JobType(0, 5, 5, 0.0),), **kwargs):
    """Config whose slots never refill; tests place jobs by hand."""
    return make_config(job_types=job_types, **kwargs)


def place_job(env, agent, slot, type_id=0, arrival=None):
    (jt,) = [t for t in env.config.job_types if t.id == type_id]
    job = Job(
        uid=env._next_job_uid,
        type_id=jt.id,
        priority=jt.priority,
        burst=jt.burst,
        arrival_time=env.time if arrival is None else arrival,
        remaining_burst=jt.burst,
        owner_agent=agent,
    )
    env._next_job_uid += 1
    env.slots[agent][slot] = job
    return job


def offer(agent, slot, core):
    return {(agent, slot): core + 1}


def book_entries(env, core=None):
    """The offer book entries ``(agent, slot, job, price)`` of ``core``, or of
    every core in core order, each book's in grid order: by (agent, slot)."""
    books = env._offer_book if core is None else [env._offer_book[core]]
    return [entry for book in books for _, entry in sorted(book.items())]


def random_actions(env, rng):
    """Uniformly random actions for every acting position. Under free
    pricing a bid may fall below 0 or above ``max_prio``, or be missing."""
    cfg = env.config
    actions = JointActions()
    for m in range(cfg.num_cores):
        if env.cores[m].owner != AUCTIONEER:
            actions.accepts[(env.cores[m].owner, m)] = int(
                rng.integers(0, cfg.num_agents * cfg.num_slots + 1))
    for agent in range(cfg.num_agents):
        for slot in range(cfg.num_slots):
            actions.offers[(agent, slot)] = int(rng.integers(0, cfg.num_cores + 1))
            if cfg.pricing_mode.is_free:
                price = int(rng.integers(-2, cfg.max_prio + 4))
                if price <= cfg.max_prio + 2:  # the top draw makes no bid
                    actions.prices[(agent, slot)] = price
    return actions


def stacked(*batches):
    """The windows ``batches`` as one TrainBatch with a leading window axis,
    the form ``ppo_update`` takes."""
    return TrainBatch(*map(np.stack, zip(*batches)))


def newest_obs(home, u):
    """The observation of unit u's latest recorded decision."""
    return home.obs[u, home.sizes[u] - 1, :home.specs[u].obs_width]


def unit_rows(home):
    """The row of each unit of ``home``, by (agent, unit key)."""
    return {(agent, spec.key): u for u, (agent, spec) in enumerate(zip(home.agents, home.specs))}


def update_counts(homes):
    """How many updates each unit of ``homes`` took, by (agent, unit key)."""
    return {unit: home.updates[u] for home in homes for unit, u in unit_rows(home).items()}


def standalone(archs, cfg, hyper, seed):
    """One home per agent, agent i's of architecture ``archs[i]``: the
    per-agent reference that a home of ``build_homes`` is checked
    against."""
    return [Home({a: _parameter_sets(arch, cfg)}, cfg, hyper, seed)
            for a, arch in enumerate(archs)]


def params_of(home, agent, key):
    """The views of agent ``agent``'s parameter set ``key`` in ``home``."""
    return home.stack.views[home.names.index(f"agent{agent}/{key}")]


def act(homes, env, joint=None):
    """One acting pass of each of ``homes``, in order, into ``joint`` (a new
    JointActions if None), which it returns."""
    joint = JointActions() if joint is None else joint
    image = market_image(env)
    for home in homes:
        home.act(env, joint, image)
    return joint
