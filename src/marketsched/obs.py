"""Observation encoders. All values are scaled into [0, 1].

Priorities are divided by the scenario's maximum priority, burst counters by
the maximum burst. Empty positions are zero-filled and carry a validity flag
of 0, so every layout has a fixed length that depends only on the config.

The ``fill_*`` writers put observations straight into rows of a caller's
zeroed array, so one agent's acting units can share one (units, width)
array per step; the ``encode_*`` functions return one vector each and are
built from the same writers.
"""

from __future__ import annotations

import numpy as np

from .env import SchedulingEnv


def acceptor_obs_len(num_agents: int, num_slots: int) -> int:
    return 3 + 4 * num_agents * num_slots


def offer_obs_len(num_cores: int, num_slots: int, single_slot: bool) -> int:
    return 3 * num_cores + (3 if single_slot else 3 * num_slots)


PRICE_OBS_LEN = 4


def core_block(env: SchedulingEnv, agent: int) -> np.ndarray:
    """[running priority, remaining burst, owned-by-agent flag] per core,
    scaled and flattened to length 3 * num_cores."""
    cfg = env.config
    max_prio, max_burst = cfg.max_prio, cfg.max_burst
    values = []
    for core in env.cores:
        job = core.job
        if job is None:
            values += (0.0, 0.0)
        else:
            values += (job.priority / max_prio, job.remaining_burst / max_burst)
        values.append(1.0 if core.owner == agent else 0.0)
    return np.array(values)


def fill_acceptor_rows(env: SchedulingEnv, block: np.ndarray, cores: list[int],
                       out: np.ndarray) -> None:
    """Row i of ``out`` gets the acceptor observation of ``cores[i]``.

    Layout: the core's entry of ``block`` (see ``core_block``), then one
    [validity, price, time to payment, offered priority] block per (source
    agent, source slot) grid cell, filled from one pass over the offer book.
    """
    cfg = env.config
    max_prio, max_burst, num_slots = cfg.max_prio, cfg.max_burst, cfg.num_slots
    row_of = {}
    for i, m in enumerate(cores):
        out[i, :3] = block[3 * m:3 * m + 3]
        row_of[m] = i
    for offer in env.offers():
        i = row_of.get(offer.target_core)
        if i is None:
            continue
        row = out[i]
        base = 3 + 4 * (offer.agent * num_slots + offer.slot)
        row[base] = 1.0
        row[base + 1] = offer.price / max_prio
        row[base + 2] = offer.time_to_payment / max_burst
        row[base + 3] = offer.job_priority / max_prio


def fill_slot_state(env: SchedulingEnv, agent: int, slots, out: np.ndarray) -> None:
    """Row i of the (len(slots), 3) array ``out`` gets [validity, priority,
    remaining burst] of the agent's slot ``slots[i]``, scaled."""
    cfg = env.config
    for i, k in enumerate(slots):
        job = env.slots[agent][k]
        if job is not None:
            out[i, 0] = 1.0
            out[i, 1] = job.priority / cfg.max_prio
            out[i, 2] = job.remaining_burst / cfg.max_burst


def fill_offer_rows(env: SchedulingEnv, agent: int, block: np.ndarray,
                    slots, out: np.ndarray) -> None:
    """Row i of ``out`` gets the single-slot offer observation of
    ``slots[i]``: the core block, then that slot's state."""
    width = len(block)
    out[:len(slots), :width] = block
    fill_slot_state(env, agent, slots, out[:, width:width + 3])


def fill_price_rows(env: SchedulingEnv, agent: int, targets: list[tuple[int, int]],
                    out: np.ndarray) -> None:
    """Row i of ``out`` gets what the price setter of the offer
    ``targets[i] = (slot, target core)`` sees: its job, then the targeted
    core's running job."""
    cfg = env.config
    max_prio, max_burst = cfg.max_prio, cfg.max_burst
    for i, (slot, core) in enumerate(targets):
        job = env.slots[agent][slot]
        if job is None:
            raise ValueError(f"agent {agent} slot {slot} holds no job to price")
        row = out[i]
        row[0] = job.priority / max_prio
        row[1] = job.remaining_burst / max_burst
        running = env.cores[core].job
        if running is not None:
            row[2] = running.priority / max_prio
            row[3] = running.remaining_burst / max_burst


def encode_acceptor_rows(env: SchedulingEnv, agent: int, cores) -> np.ndarray:
    """One acceptor observation per core in ``cores``, as rows."""
    cfg = env.config
    rows = np.zeros((len(cores), acceptor_obs_len(cfg.num_agents, cfg.num_slots)))
    fill_acceptor_rows(env, core_block(env, agent), cores, rows)
    return rows


def encode_acceptor_obs(env: SchedulingEnv, agent: int, core: int) -> np.ndarray:
    """Core job state, an ownership flag, and the offer grid for this core
    (layout in ``fill_acceptor_rows``)."""
    return encode_acceptor_rows(env, agent, [core])[0]


def encode_offer_obs(env: SchedulingEnv, agent: int, slot: int | None) -> np.ndarray:
    """Per-core job states plus the agent's slot state(s).

    With a slot index the vector covers that single slot (distributed
    layout); with ``slot=None`` all of the agent's slots are concatenated
    (aggregated layouts).
    """
    cfg = env.config
    single = slot is not None
    vec = np.zeros(offer_obs_len(cfg.num_cores, cfg.num_slots, single))
    block = core_block(env, agent)
    vec[:len(block)] = block
    fill_slot_state(env, agent, (slot,) if single else range(cfg.num_slots),
                    vec[len(block):].reshape(-1, 3))
    return vec


def encode_price_obs(env: SchedulingEnv, agent: int, slot: int, target_core: int) -> np.ndarray:
    """What a price setter sees: its job and the targeted core's job."""
    vec = np.zeros(PRICE_OBS_LEN)
    fill_price_rows(env, agent, [(slot, target_core)], vec[None])
    return vec
