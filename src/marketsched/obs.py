"""Observation layouts. All values are scaled into [0, 1].

Priorities are divided by the scenario's maximum priority, burst counters by
the maximum burst. Empty positions are zero-filled and carry a validity flag
of 0, so every layout has a fixed length that depends only on the config.

``market_image`` writes every value any observation reads into one flat
vector per step, and an observation is a row of indices into it:
``acceptor_index``, ``offer_index`` and ``price_index`` give each layout's
row. Index 0 of the image holds a constant 0.0, so a row padded with zeros
reads 0.0 there, and all rows of an acting pass are one gather. The image is
built in a zeroed float buffer, each nonzero cell written once, and numpy
reads that buffer without a copy; each step's image is a buffer of its own.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

import numpy as np

from .config import EnvConfig
from .env import AUCTIONEER, SchedulingEnv


def acceptor_obs_len(num_agents: int, num_slots: int) -> int:
    return 3 + 4 * num_agents * num_slots


def offer_obs_len(num_cores: int, num_slots: int) -> int:
    return 3 * num_cores + 3 * num_slots


PRICE_OBS_LEN = 4

# one float 0.0, repeated into each image's zeroed buffer
_ZERO = array("d", [0.0])


def _starts(config: EnvConfig) -> tuple[int, int, int, int]:
    """Where each block of the image starts, after the 0.0 at index 0: the
    [running priority, remaining burst] pair of each core, the owned-by-agent
    flag of each (agent, core), the [validity, price, time to payment,
    offered priority] cell of each (core, source agent, source slot), and the
    [validity, priority, remaining burst] state of each (agent, slot)."""
    m, n, k = config.num_cores, config.num_agents, config.num_slots
    owned = 1 + 2 * m
    offers = owned + n * m
    return 1, owned, offers, offers + 4 * m * n * k


def market_image(env: SchedulingEnv) -> np.ndarray:
    """Every value an observation of the current state reads, laid out as
    ``_starts`` says: a new zeroed float buffer, each nonzero cell written
    into it once, read by numpy without a copy. A core the auctioneer owns
    sets no owned flag."""
    cfg = env.config
    max_prio, max_burst = cfg.max_prio, cfg.max_burst
    m, k = cfg.num_cores, cfg.num_slots
    cores, owned, offers, states = _starts(cfg)
    image = _ZERO * (states + 3 * cfg.num_agents * k)
    cell = cores
    for c, core in enumerate(env.cores):
        job = core.job
        if job is not None:
            image[cell] = job.priority / max_prio
            image[cell + 1] = job.remaining_burst / max_burst
        if core.owner != AUCTIONEER:
            image[owned + core.owner * m + c] = 1.0
        cell += 2
    grid = 4 * cfg.num_agents * k
    # each core's book, keyed by the offer's grid cell agent * k + slot; a
    # slot job does not run, so its state is what the offer carries
    for c, book in enumerate(env._offer_book):
        for g, (_, _, job, price) in book.items():
            cell = offers + grid * c + 4 * g
            image[cell] = 1.0
            image[cell + 1] = price / max_prio
            image[cell + 2] = job.remaining_burst / max_burst
            image[cell + 3] = job.priority / max_prio
    cell = states
    for agent_slots in env.slots:
        for job in agent_slots:
            if job is not None:
                image[cell] = 1.0
                image[cell + 1] = job.priority / max_prio
                image[cell + 2] = job.remaining_burst / max_burst
            cell += 3
    return np.frombuffer(image)


def _core(config: EnvConfig, agent: int, core: int) -> list[int]:
    """``core``'s running priority, remaining burst and owned-by-``agent`` flag."""
    cores, owned, _, _ = _starts(config)
    return [cores + 2 * core, cores + 2 * core + 1, owned + agent * config.num_cores + core]


def acceptor_index(config: EnvConfig, agent: int, core: int) -> list[int]:
    """What ``agent``'s acceptor of ``core`` sees: the core, then the offer
    cell of each (source agent, source slot) on it."""
    grid = 4 * config.num_agents * config.num_slots
    start = _starts(config)[2] + grid * core
    return _core(config, agent, core) + list(range(start, start + grid))


def offer_index(config: EnvConfig, agent: int, slots: Iterable[int]) -> list[int]:
    """What an offer maker of ``agent``'s ``slots`` sees: every core, then
    the state of each of the slots, side by side."""
    states = _starts(config)[3] + 3 * agent * config.num_slots
    index = [i for m in range(config.num_cores) for i in _core(config, agent, m)]
    for k in slots:
        index += range(states + 3 * k, states + 3 * k + 3)
    return index


def price_index(config: EnvConfig, agent: int, slot: int, core: int) -> list[int]:
    """What the price setter of ``agent``'s offer of ``slot`` to ``core``
    sees: the slot's priority and remaining burst, then the core's."""
    cores, _, _, states = _starts(config)
    job = states + 3 * (agent * config.num_slots + slot)
    return [job + 1, job + 2, cores + 2 * core, cores + 2 * core + 1]
