"""One-unit reference versions of acting, for tests to compare against.

``forward`` runs one network on one observation vector and ``sample`` draws
one action from the unit's own stream; the ``encode_*`` functions return one
observation vector each, read straight from the env's cores, slots and
offer books. The package acts through the batched ``forward`` and
``sample_rows`` only, on rows gathered from ``obs.market_image``.
``mixed_radix_decode`` and ``mixed_radix_encode`` translate an aggregated
unit's action to and from its per-position digits one at a time, where the
package takes each digit by weight and radix. ``ppo_update`` updates one
network at a time with the one-network ``surrogate_objective`` and
``ascend``, where the package updates several networks of one shape in one
stacked minibatch loop.
"""

import numpy as np

from marketsched.actions import space_size
from marketsched.neural import NonFiniteLossError, log_softmax


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


def surrogate_work(params, rows):
    """``surrogate_objective``'s scratch: four (``rows`` or hidden) x actions rows."""
    return np.empty((4, max(rows, params.wp.shape[0]) * params.action_count))


def surrogate_objective(params, grads, batch, hyper, indices, work=None):
    """Clipped-surrogate objective and its analytic gradient on a minibatch
    of one network: (objective, stats), the gradient written into ``grads``."""
    x = batch.obs[indices]
    acts = batch.actions[indices]
    adv = batch.advantages[indices]
    ret = batch.returns[indices]
    logp_old = batch.logp_old[indices]
    n = len(indices)
    hidden, actions = params.wp.shape
    work = surrogate_work(params, n) if work is None else work
    lp, pr, dl = (w[:n * actions].reshape(n, actions) for w in work[:3])

    z1 = x @ params.w1 + params.b1
    h = np.tanh(z1)
    logits = np.matmul(h, params.wp, out=lp)
    logits += params.bp
    values = h @ params.wv + params.bv[0]

    z = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=lp)
    logp_all = np.subtract(z, np.log(np.exp(z, out=pr).sum(axis=-1, keepdims=True)), out=lp)
    probs = np.exp(logp_all, out=pr)
    logp_act = logp_all[np.arange(n), acts]
    ratio = np.exp(logp_act - logp_old)
    clipped = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip)
    surr_unclipped = ratio * adv
    surr_clipped = clipped * adv
    surrogate = np.minimum(surr_unclipped, surr_clipped)
    entropy = -np.multiply(probs, logp_all, out=dl).sum(axis=1)
    value_err = values - ret
    value_loss = (value_err**2).mean()
    mean_entropy = entropy.mean()

    objective = float(surrogate.mean()
                      - hyper.value_coef * value_loss
                      + hyper.entropy_coef * mean_entropy)

    use_unclipped = surr_unclipped <= surr_clipped
    coef = np.where(use_unclipped, ratio * adv, 0.0) / n
    dl.fill(0.0)
    dl[np.arange(n), acts] = 1.0
    d_logits = np.multiply(coef[:, None], np.subtract(dl, probs, out=dl), out=dl)
    term = np.multiply(np.negative(probs, out=pr),
                       np.add(logp_all, entropy[:, None], out=lp), out=pr)
    d_logits += np.divide(np.multiply(hyper.entropy_coef, term, out=pr), n, out=pr)

    d_values = -2.0 * hyper.value_coef * value_err / n

    d_h = d_logits @ params.wp.T + d_values[:, None] * params.wv[None, :]
    d_z1 = d_h * (1.0 - h * h)
    grads.w1[...] = x.T @ d_z1
    grads.b1[...] = d_z1.sum(axis=0)
    dw = work[3, :hidden * actions].reshape(hidden, actions)
    grads.wp[...] = np.matmul(h.T, d_logits, out=dw)
    grads.bp[...] = d_logits.sum(axis=0)
    grads.wv[...] = h.T @ d_values
    grads.bv[...] = d_values.sum()
    stats = {
        "objective": objective,
        "value_loss": float(value_loss),
        "entropy": float(mean_entropy),
        "clip_fraction": float((~use_unclipped).mean()),
    }
    return objective, stats


def ascend(stack, index, lr):
    """One Adam ascent step of row ``index`` of a ParamStack along its
    gradient, in place, in the operation order m = b1*m + (1-b1)*g;
    v = b2*v + ((1-b2)*g)*g; row += lr*m_hat / (sqrt(v_hat)+eps)."""
    grad, m, v = stack.grads[index], stack.m[index], stack.v[index]
    t = int(stack.step_counts[index]) + 1
    stack.step_counts[index] = t
    m *= stack.beta1
    m += grad * (1.0 - stack.beta1)
    v *= stack.beta2
    v += grad * (1.0 - stack.beta2) * grad
    step = m / (1.0 - stack.beta1**t)
    step *= lr
    step /= np.sqrt(v / (1.0 - stack.beta2**t)) + stack.eps
    stack.rows[index] += step


def ppo_update(stack, index, batch, hyper, rng):
    """The clipped-surrogate update of network ``index`` of ``stack`` alone,
    in place; returns aggregate stats."""
    params, grads, grad_row = stack.views[index], stack.grad_views[index], stack.grads[index]
    adv = batch.advantages
    batch = batch._replace(advantages=(adv - adv.mean()) / (adv.std() + 1e-8))

    count = len(batch.actions)
    totals = dict.fromkeys(("objective", "value_loss", "entropy", "clip_fraction"), 0.0)
    minibatches = 0
    work = surrogate_work(params, min(count, hyper.minibatch_size))
    for _ in range(hyper.epochs):
        order = rng.permutation(count)
        for start in range(0, count, hyper.minibatch_size):
            indices = order[start:start + hyper.minibatch_size]
            objective, stats = surrogate_objective(params, grads, batch, hyper, indices,
                                                   work)
            if not np.isfinite(objective) or not np.isfinite(grad_row).all():
                raise NonFiniteLossError(
                    f"non-finite update: objective={objective!r}, "
                    f"value_loss={stats['value_loss']!r}, batch size {len(indices)}"
                )
            ascend(stack, index, hyper.learning_rate)
            for key in totals:
                totals[key] += stats[key]
            minibatches += 1
    return {**{key: total / max(minibatches, 1) for key, total in totals.items()},
            "minibatches": minibatches}
