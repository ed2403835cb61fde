"""Learner-free baseline: scripted bidding plus an independent twin model.

The scripted policy gives every slot a static home core, ``(agent *
num_slots + slot) % num_cores``, and offers its job there every step. It
accepts no offer and bids no price, so each job's price is its priority at
fixed and free prices alike. With trading on or off, the environment then
behaves like a set of per-core queues where the auctioneer serves the
highest-priority waiting job first, ties broken by arrival, agent, slot.

``fcfs_trace`` reimplements that queue model directly, without offers,
chains or settlement, reproducing the same spawn stream. The two completion
traces must agree step for step; this is the oracle the environment's
offer/grant timing is checked against.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import EnvConfig
from .env import JointActions, SchedulingEnv
from .rng import STREAM_ENV_SPAWN, derive_rng


class CompletionEvent(NamedTuple):
    time: int
    type_id: int
    turnaround: int
    normalized_turnaround: float


def scripted_actions(env: SchedulingEnv) -> JointActions:
    """Bid every waiting job on its slot's home core; never accept."""
    k, m = env.config.num_slots, env.config.num_cores
    joint = JointActions()
    offers = joint.offers
    for agent, agent_slots in enumerate(env.slots):
        for slot, job in enumerate(agent_slots):
            if job is not None:
                offers[(agent, slot)] = (agent * k + slot) % m + 1
    return joint


def scripted_env_trace(config: EnvConfig, seed: int, steps: int) -> list[CompletionEvent]:
    """Completion trace of the real environment under the scripted policy."""
    env = SchedulingEnv(config, seed)
    events: list[CompletionEvent] = []
    for _ in range(steps):
        result = env.step(scripted_actions(env))
        for c in result.completions:
            events.append(CompletionEvent(c.completed_at, c.type_id, c.turnaround,
                                          c.normalized_turnaround))
    return events


class _QueuedJob(NamedTuple):
    arrival: int
    agent: int
    slot: int
    type_id: int
    priority: int
    burst: int


def fcfs_trace(config: EnvConfig, seed: int, steps: int) -> list[CompletionEvent]:
    """Priority-first FCFS queue model with the same timing conventions.

    A job spawned during step t becomes visible at t + 1, bids from then on,
    and can be granted one step later. A core that finishes during step t
    serves its next job at t + 1 with no idle gap.
    """
    rng = derive_rng(seed, STREAM_ENV_SPAWN)
    cumulative = []
    acc = 0.0
    for jt in config.job_types:
        acc += jt.spawn_prob
        cumulative.append((acc, jt))

    slots: list[list[_QueuedJob | None]] = [
        [None] * config.num_slots for _ in range(config.num_agents)
    ]

    def spawn(agent: int, slot: int, arrival: int) -> None:
        u = rng.random()
        for threshold, jt in cumulative:
            if u < threshold:
                slots[agent][slot] = _QueuedJob(arrival, agent, slot, jt.id,
                                                jt.priority, jt.burst)
                break

    for agent in range(config.num_agents):
        for slot in range(config.num_slots):
            spawn(agent, slot, arrival=0)

    # core state: (job, remaining) or None
    running: list[tuple[_QueuedJob, int] | None] = [None] * config.num_cores
    events: list[CompletionEvent] = []

    for t in range(steps):
        # grants: an idle core serves the best job that bid last step
        for m in range(config.num_cores):
            if running[m] is not None:
                continue
            best: _QueuedJob | None = None
            for agent in range(config.num_agents):
                for slot in range(config.num_slots):
                    job = slots[agent][slot]
                    if job is None or job.arrival > t - 1:
                        continue
                    if (agent * config.num_slots + slot) % config.num_cores != m:
                        continue
                    if best is None or (-job.priority, job.arrival, agent, slot) < (
                            -best.priority, best.arrival, best.agent, best.slot):
                        best = job
            if best is not None:
                slots[best.agent][best.slot] = None
                running[m] = (best, best.burst)

        # compute and terminate
        for m in range(config.num_cores):
            if running[m] is None:
                continue
            job, remaining = running[m]
            remaining -= 1
            if remaining == 0:
                turnaround = t - job.arrival
                events.append(CompletionEvent(t, job.type_id, turnaround,
                                              turnaround / job.burst))
                running[m] = None
            else:
                running[m] = (job, remaining)

        # spawn into empty slots, visible from next step
        for agent in range(config.num_agents):
            for slot in range(config.num_slots):
                if slots[agent][slot] is None:
                    spawn(agent, slot, arrival=t + 1)

    return events
