"""One-unit reference versions of acting, for tests to compare against.

``forward`` runs one network on one observation vector and ``sample`` draws
one action from the unit's own stream; the ``encode_*`` functions return one
observation vector each, built from the package's ``fill_*`` writers. The
package acts through the batched ``forward`` and ``sample_rows`` only.
``mixed_radix_decode`` and ``mixed_radix_encode`` translate an aggregated
unit's action to and from its per-position digits one at a time, where the
package takes each digit by weight and radix.
"""

import numpy as np

from marketsched.actions import space_size
from marketsched.neural import log_softmax
from marketsched.obs import (
    PRICE_OBS_LEN,
    acceptor_obs_len,
    core_block,
    fill_acceptor_rows,
    fill_offer_rows,
    fill_price_rows,
    offer_obs_len,
)


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


def encode_acceptor_obs(env, agent, core):
    """Core job state, an ownership flag, and the offer grid for this core
    (layout in ``fill_acceptor_rows``)."""
    cfg = env.config
    vec = np.zeros(acceptor_obs_len(cfg.num_agents, cfg.num_slots))
    fill_acceptor_rows(env, core_block(env, agent), [core], vec[None])
    return vec


def encode_offer_obs(env, agent, slot):
    """Per-core job states plus the agent's slot state(s).

    With a slot index the vector covers that single slot (distributed
    layout); with ``slot=None`` all of the agent's slots are concatenated
    (aggregated layouts).
    """
    cfg = env.config
    single = slot is not None
    vec = np.zeros(offer_obs_len(cfg.num_cores, 1 if single else cfg.num_slots))
    fill_offer_rows(env, agent, core_block(env, agent),
                    (slot,) if single else range(cfg.num_slots), vec[None])
    return vec


def encode_price_obs(env, agent, slot, target_core):
    """What a price setter sees: its job and the targeted core's job."""
    vec = np.zeros(PRICE_OBS_LEN)
    fill_price_rows(env, agent, [(slot, target_core)], vec[None])
    return vec


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
