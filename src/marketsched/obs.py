"""Observation encoders. All values are scaled into [0, 1].

Priorities are divided by the scenario's maximum priority, burst counters by
the maximum burst. Empty positions are zero-filled and carry a validity flag
of 0, so every layout has a fixed length that depends only on the config.

The ``fill_*`` writers put observations straight into rows of a caller's
zeroed array, so one agent's acting units share one (units, width) array
per acting pass, whatever the number of rows.
"""

from __future__ import annotations

import numpy as np

from .env import SchedulingEnv


def acceptor_obs_len(num_agents: int, num_slots: int) -> int:
    return 3 + 4 * num_agents * num_slots


def offer_obs_len(num_cores: int, num_slots: int) -> int:
    return 3 * num_cores + 3 * num_slots


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
    agent, source slot) grid cell, filled from that core's pending offers.
    """
    cfg = env.config
    max_prio, max_burst, num_slots = cfg.max_prio, cfg.max_burst, cfg.num_slots
    for row, m in zip(out, cores):
        row[:3] = block[3 * m:3 * m + 3]
        for offer in env.pending_offers(m):
            base = 3 + 4 * (offer.agent * num_slots + offer.slot)
            row[base] = 1.0
            row[base + 1] = offer.price / max_prio
            row[base + 2] = offer.time_to_payment / max_burst
            row[base + 3] = offer.job_priority / max_prio


def fill_offer_rows(env: SchedulingEnv, agent: int, block: np.ndarray,
                    slots, out: np.ndarray) -> None:
    """Every row of ``out`` gets an offer observation: the core block, then
    [validity, priority, remaining burst] of each slot of its equal share of
    ``slots``, scaled. With one slot per row each row is a single-slot
    observation; a single row gets the agent's slots side by side."""
    cfg = env.config
    width = len(block)
    out[:, :width] = block
    states = out[:, width:width + 3 * (len(slots) // len(out))].reshape(len(slots), 3)
    for i, k in enumerate(slots):
        job = env.slots[agent][k]
        if job is not None:
            states[i, 0] = 1.0
            states[i, 1] = job.priority / cfg.max_prio
            states[i, 2] = job.remaining_burst / cfg.max_burst


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
