"""One-unit reference versions of acting, for tests to compare against.

``forward`` runs one network on one observation vector and ``sample`` draws
one action from the unit's own stream; the ``encode_*`` functions return one
observation vector each, read straight from the env's cores, slots and
offer books. The package acts through the batched ``forward`` and
``sample_rows`` only, on rows gathered from ``obs.market_image``.
``mixed_radix_decode`` and ``mixed_radix_encode`` translate an aggregated
unit's action to and from its per-position digits one at a time, where the
package takes each digit by weight and radix.
"""

import numpy as np

from marketsched.actions import space_size
from marketsched.neural import log_softmax


def forward(params, obs):
    """Policy logits and value estimate of one NetParams on one observation."""
    if obs.shape != (params.in_width,):
        raise ValueError(f"observation shape {obs.shape} does not match input width "
                         f"{params.in_width}")
    h = np.tanh(obs @ params.w1 + params.b1)
    logits = h @ params.wp + params.bp
    value = float(h @ params.wv + params.bv[0])
    return logits, value


def sample(logits, rng):
    """Draw an action from softmax(logits); reproducible given the stream state."""
    logp = log_softmax(logits)
    cumulative = np.cumsum(np.exp(logp))
    u = rng.random()
    action = int(np.searchsorted(cumulative, u, side="right"))
    action = min(action, logits.shape[0] - 1)
    return action, float(logp[action])


def _core_state(env, agent, core):
    """[running priority, remaining burst, owned-by-agent flag] of a core."""
    cfg = env.config
    job = env.cores[core].job
    state = [0.0, 0.0] if job is None else [job.priority / cfg.max_prio,
                                            job.remaining_burst / cfg.max_burst]
    return state + [1.0 if env.cores[core].owner == agent else 0.0]


def encode_acceptor_obs(env, agent, core):
    """The core's state, then one [validity, price, time to payment, offered
    priority] cell per (source agent, source slot), filled from the core's
    pending offers in the order the env lists them."""
    cfg = env.config
    grid = [0.0] * (4 * cfg.num_agents * cfg.num_slots)
    for offer in env.pending_offers(core):
        base = 4 * (offer.agent * cfg.num_slots + offer.slot)
        grid[base:base + 4] = (1.0, offer.price / cfg.max_prio,
                               offer.time_to_payment / cfg.max_burst,
                               offer.job_priority / cfg.max_prio)
    return np.array(_core_state(env, agent, core) + grid)


def encode_offer_obs(env, agent, slot):
    """Every core's state, then [validity, priority, remaining burst] of the
    agent's slot(s).

    With a slot index the vector covers that single slot (distributed
    layout); with ``slot=None`` all of the agent's slots are concatenated
    (aggregated layouts).
    """
    cfg = env.config
    vec = [x for m in range(cfg.num_cores) for x in _core_state(env, agent, m)]
    for k in range(cfg.num_slots) if slot is None else [slot]:
        job = env.slots[agent][k]
        vec += [0.0, 0.0, 0.0] if job is None else [1.0, job.priority / cfg.max_prio,
                                                    job.remaining_burst / cfg.max_burst]
    return np.array(vec)


def encode_price_obs(env, agent, slot, target_core):
    """What a price setter sees: its job's priority and remaining burst, then
    the targeted core's running job's; an empty slot or idle core reads 0."""
    cfg = env.config
    vec = []
    for job in (env.slots[agent][slot], env.cores[target_core].job):
        vec += [0.0, 0.0] if job is None else [job.priority / cfg.max_prio,
                                               job.remaining_burst / cfg.max_burst]
    return np.array(vec)


def mixed_radix_decode(index, radices):
    """Little-endian digits of ``index`` in the given radices."""
    if not 0 <= index < space_size(radices):
        raise ValueError(f"index {index} out of range for radices {list(radices)}")
    digits = []
    rest = index
    for r in radices:
        digits.append(rest % r)
        rest //= r
    return digits


def mixed_radix_encode(digits, radices):
    """The index whose little-endian digits in the given radices are ``digits``."""
    if len(digits) != len(radices):
        raise ValueError("digit/radix length mismatch")
    index = 0
    weight = 1
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for radix {r}")
        index += d * weight
        weight *= r
    return index
