"""Minimal actor-critic networks and the clipped-surrogate policy update.

One tanh hidden layer feeds a categorical policy head and a scalar value
head. Gradients are computed by hand (verified against finite differences in
the test suite) and applied by the Adam step written here, so there is no
external autodiff or optimizer dependency. Each network is one padded row of
a ``ParamStack``; its gradient and Adam moments are vectors of the same row
layout, so an Adam step is a fixed handful of whole-row operations. The
padding stays fixed: its gradient is 0, so its step is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Iterator, NamedTuple

import numpy as np


class NonFiniteLossError(RuntimeError):
    """An update produced a non-finite loss or gradient and was aborted."""


@dataclass
class PPOHyper:
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 64
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    rollout_length: int = 256

    def validate(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.clip <= 0.0:
            raise ValueError(f"clip must be > 0, got {self.clip}")
        if self.rollout_length < 1 or self.minibatch_size < 1 or self.epochs < 1:
            raise ValueError("rollout_length, minibatch_size and epochs must be >= 1")

    def to_dict(self) -> dict:
        return {
            "discount": self.discount,
            "gae_lambda": self.gae_lambda,
            "clip": self.clip,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "minibatch_size": self.minibatch_size,
            "entropy_coef": self.entropy_coef,
            "value_coef": self.value_coef,
            "rollout_length": self.rollout_length,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PPOHyper":
        hyper = cls(**{k: data[k] for k in cls().to_dict() if k in data})
        hyper.validate()
        return hyper


@dataclass
class NetParams:
    """Weights of one actor-critic network."""

    w1: np.ndarray  # (in, hidden)
    b1: np.ndarray  # (hidden,)
    wp: np.ndarray  # (hidden, actions)
    bp: np.ndarray  # (actions,)
    wv: np.ndarray  # (hidden,)
    bv: np.ndarray  # (1,)

    @property
    def in_width(self) -> int:
        return self.w1.shape[0]

    @property
    def action_count(self) -> int:
        return self.wp.shape[1]

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        yield from (("w1", self.w1), ("b1", self.b1), ("wp", self.wp),
                    ("bp", self.bp), ("wv", self.wv), ("bv", self.bv))

    def copy(self) -> "NetParams":
        return NetParams(*(t.copy() for _, t in self.tensors()))


class ParamStack:
    """Several networks' weights, one zero-padded row of ``rows`` each.

    Row i is network i's whole parameter vector: its w1 (in, hidden), b1
    (hidden,), head (actions + 1, hidden) and head_bias (actions + 1,) blocks,
    each at the stack's widest in_width, hidden width and action count.
    ``w1``, ``b1``, ``head`` and ``head_bias`` view those blocks of every row,
    and ``views[i]`` is network i as a NetParams of views into its unpadded
    part, so an in-place update of a view or row (an Adam step, a checkpoint
    load) is what the batched ``forward`` reads next. ``grads`` has the same
    layout, and ``grad_views`` the same views into it. ``head`` holds one row
    of hidden weights per output, the policy's actions first and the value
    last, so one product yields logits and value; ``wp`` is the transpose of
    its first rows. The padding is fixed: weights 0, which add nothing to a
    sum, and logit biases -inf, which give padded actions probability 0.
    """

    def __init__(self, shapes: list[tuple[int, int, int]]):
        """``shapes`` holds one (in_width, hidden_width, action_count) per network."""
        self.in_width, hidden, actions = (max(dim) for dim in zip(*shapes))
        layout = ((self.in_width, hidden), (hidden,), (actions + 1, hidden), (actions + 1,))
        ends = list(accumulate(prod(shape) for shape in layout))

        def blocks_and_views(rows: np.ndarray) -> tuple[list, list[NetParams]]:
            w1, b1, head, bias = (rows[:, start:end].reshape(-1, *shape)
                                  for start, end, shape in zip([0] + ends, ends, layout))
            return [w1, b1, head, bias], [NetParams(
                w1=w1[i, :w, :h], b1=b1[i, :h], wp=head[i, :a, :h].T, bp=bias[i, :a],
                wv=head[i, -1, :h], bv=bias[i, -1:]) for i, (w, h, a) in enumerate(shapes)]

        self.rows = np.zeros((len(shapes), ends[-1]))
        self.grads = np.zeros(self.rows.shape)
        (self.w1, self.b1, self.head, self.head_bias), self.views = blocks_and_views(self.rows)
        self.grad_views = blocks_and_views(self.grads)[1]
        self.last_action = np.array([a for _, _, a in shapes]) - 1
        self.head_bias[:, :-1] = np.where(
            np.arange(actions) <= self.last_action[:, None], 0.0, -np.inf)


def _orthogonal(out: np.ndarray, gain: float, rng: np.random.Generator) -> None:
    rows, cols = out.shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    np.multiply(q[:rows, :cols], gain, out=out)


def init_params(params: NetParams, rng: np.random.Generator) -> None:
    """Write orthogonally scaled weights into ``params``, for example a fresh
    ParamStack view; the small policy-head gain keeps the policy near uniform."""
    _orthogonal(params.w1, np.sqrt(2.0), rng)
    _orthogonal(params.wp, 0.01, rng)
    _orthogonal(params.wv[:, None], 1.0, rng)


def forward(params: NetParams | ParamStack, obs: np.ndarray,
            sets: np.ndarray | None = None):
    """Policy logits and value estimate.

    With a NetParams and one observation vector: (logits, value). With a
    ParamStack, one observation per row of ``obs`` and ``sets`` naming each
    row's network: (logits, values), row by row, with -inf logits on the
    padded actions of networks narrower than the stack.
    """
    if sets is not None:
        h = np.tanh(np.matmul(obs[:, None, :], params.w1.take(sets, axis=0))[:, 0]
                    + params.b1.take(sets, axis=0))
        out = (np.matmul(params.head.take(sets, axis=0), h[:, :, None])[:, :, 0]
               + params.head_bias.take(sets, axis=0))
        return out[:, :-1], out[:, -1]
    if obs.shape != (params.in_width,):
        raise ValueError(f"observation shape {obs.shape} does not match input width "
                         f"{params.in_width}")
    h = np.tanh(obs @ params.w1 + params.b1)
    logits = h @ params.wp + params.bp
    value = float(h @ params.wv + params.bv[0])
    return logits, value


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Draw an action from softmax(logits); reproducible given the stream state."""
    logp = log_softmax(logits)
    cumulative = np.cumsum(np.exp(logp))
    u = rng.random()
    action = int(np.searchsorted(cumulative, u, side="right"))
    action = min(action, logits.shape[0] - 1)
    return action, float(logp[action])


def sample_rows(logits: np.ndarray, u: np.ndarray, last: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``sample`` for every row of ``logits`` at once, given each row's
    uniform draw ``u`` and last valid action ``last``. It is the same
    inverse-CDF rule, so a row draws what ``sample`` draws from the same
    ``u`` up to float rounding."""
    logp = log_softmax(logits)
    cumulative = np.cumsum(np.exp(logp), axis=1)
    actions = np.minimum((cumulative <= u[:, None]).sum(axis=1), last)
    return actions, logp[np.arange(len(actions)), actions]


def gae(rewards: np.ndarray, values: np.ndarray, bootstrap_value: float,
        discount: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and returns for one rollout window.

    The task is continuing, so there are no terminal cuts; the window is
    closed with the supplied bootstrap value.
    """
    if len(rewards) != len(values):
        raise ValueError("rewards and values must have equal length")
    advantages = np.empty(len(rewards))
    carry = 0.0
    next_value = bootstrap_value
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + discount * next_value - values[t]
        carry = delta + discount * lam * carry
        advantages[t] = carry
        next_value = values[t]
    return advantages, advantages + values


class TrainBatch(NamedTuple):
    obs: np.ndarray        # (T, in)
    actions: np.ndarray    # (T,) int
    logp_old: np.ndarray   # (T,)
    advantages: np.ndarray  # (T,)
    returns: np.ndarray    # (T,)


class RolloutBuffer:
    """Per-unit experience window in preallocated arrays; ``add`` copies a
    row in. Cleared after each update."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.obs: np.ndarray | None = None  # (capacity, width) from the first add
        self.actions = np.empty(capacity, dtype=np.intp)
        self.logps = np.empty(capacity)
        self.values = np.empty(capacity)
        self.rewards = np.empty(capacity)
        self.size = 0

    def add(self, obs: np.ndarray, action: int, logp: float, value: float,
            reward: float) -> None:
        if self.obs is None:
            self.obs = np.empty((self.capacity, obs.shape[0]))
        i = self.size
        self.obs[i] = obs
        self.actions[i] = action
        self.logps[i] = logp
        self.values[i] = value
        self.rewards[i] = reward
        self.size = i + 1

    def __len__(self) -> int:
        return self.size

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def clear(self) -> None:
        self.size = 0

    def to_batch(self, bootstrap_value: float, hyper: PPOHyper) -> TrainBatch:
        """The window as a batch of views, valid until the next ``add``."""
        n = self.size
        values = self.values[:n]
        advantages, returns = gae(self.rewards[:n], values, bootstrap_value,
                                  hyper.discount, hyper.gae_lambda)
        return TrainBatch(
            obs=self.obs[:n],
            actions=self.actions[:n],
            logp_old=self.logps[:n],
            advantages=advantages,
            returns=returns,
        )


class AdamState:
    """Adam's first and second moments of one parameter row, laid out as the
    row, and its step count."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.steps = 0

    def ascend(self, row: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One Adam ascent step on ``row`` in place, in the operation order
        m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g; lr*m_hat / (sqrt(v_hat)+eps)."""
        self.steps += 1
        self.m *= self.beta1
        self.m += grad * (1.0 - self.beta1)
        self.v *= self.beta2
        self.v += grad * (1.0 - self.beta2) * grad
        step = self.m / (1.0 - self.beta1**self.steps)
        step *= lr
        step /= np.sqrt(self.v / (1.0 - self.beta2**self.steps)) + self.eps
        row += step


def surrogate_objective(params: NetParams, grads: NetParams, batch: TrainBatch,
                        hyper: PPOHyper, indices: np.ndarray) -> tuple[float, dict]:
    """Clipped-surrogate objective and its analytic gradient on a minibatch.

    Returns (objective, stats) and writes into ``grads`` the gradient, which
    points in the ascent direction of objective = policy surrogate
    - c_v * value loss + c_e * entropy.
    """
    x = batch.obs[indices]
    acts = batch.actions[indices]
    adv = batch.advantages[indices]
    ret = batch.returns[indices]
    logp_old = batch.logp_old[indices]
    n = len(indices)

    z1 = x @ params.w1 + params.b1
    h = np.tanh(z1)
    logits = h @ params.wp + params.bp
    values = h @ params.wv + params.bv[0]

    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    logp_act = logp_all[np.arange(n), acts]
    ratio = np.exp(logp_act - logp_old)
    clipped = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip)
    surr_unclipped = ratio * adv
    surr_clipped = clipped * adv
    surrogate = np.minimum(surr_unclipped, surr_clipped)
    entropy = -(probs * logp_all).sum(axis=1)
    value_err = values - ret

    objective = (surrogate.mean()
                 - hyper.value_coef * (value_err**2).mean()
                 + hyper.entropy_coef * entropy.mean())

    # d objective / d logits. The unclipped branch carries gradient whenever
    # it attains the min; a clipped-and-active branch has zero gradient.
    use_unclipped = surr_unclipped <= surr_clipped
    coef = np.where(use_unclipped, ratio * adv, 0.0) / n
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), acts] = 1.0
    d_logits = coef[:, None] * (one_hot - probs)
    d_logits += hyper.entropy_coef * (-probs * (logp_all + entropy[:, None])) / n

    d_values = -2.0 * hyper.value_coef * value_err / n

    d_h = d_logits @ params.wp.T + d_values[:, None] * params.wv[None, :]
    d_z1 = d_h * (1.0 - h * h)
    grads.w1[...] = x.T @ d_z1
    grads.b1[...] = d_z1.sum(axis=0)
    grads.wp[...] = h.T @ d_logits
    grads.bp[...] = d_logits.sum(axis=0)
    grads.wv[...] = h.T @ d_values
    grads.bv[...] = d_values.sum()
    stats = {
        "objective": float(objective),
        "value_loss": float((value_err**2).mean()),
        "entropy": float(entropy.mean()),
        "clip_fraction": float((~use_unclipped).mean()),
    }
    return float(objective), stats


def ppo_update(stack: ParamStack, index: int, opt: AdamState, batch: TrainBatch,
               hyper: PPOHyper, rng: np.random.Generator) -> dict:
    """Run the clipped-surrogate update of network ``index`` of ``stack`` in
    place; returns aggregate stats.

    Advantages are normalized once per update. A non-finite loss or gradient
    aborts before any parameter is touched by the offending minibatch.
    """
    params, grads = stack.views[index], stack.grad_views[index]
    row, grad_row = stack.rows[index], stack.grads[index]
    adv = batch.advantages
    std = adv.std()
    normalized = (adv - adv.mean()) / (std + 1e-8)
    batch = batch._replace(advantages=normalized)

    count = len(batch.actions)
    stats_acc: dict[str, float] = {"objective": 0.0, "value_loss": 0.0,
                                   "entropy": 0.0, "clip_fraction": 0.0}
    minibatches = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(count)
        for start in range(0, count, hyper.minibatch_size):
            indices = order[start:start + hyper.minibatch_size]
            objective, stats = surrogate_objective(params, grads, batch, hyper, indices)
            if not np.isfinite(objective) or not np.isfinite(grad_row).all():
                raise NonFiniteLossError(
                    f"non-finite update: objective={objective!r}, "
                    f"value_loss={stats['value_loss']!r}, batch size {len(indices)}"
                )
            opt.ascend(row, grad_row, hyper.learning_rate)
            for key in stats_acc:
                stats_acc[key] += stats[key]
            minibatches += 1
    for key in stats_acc:
        stats_acc[key] /= max(minibatches, 1)
    stats_acc["minibatches"] = minibatches
    return stats_acc


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_params: dict[str, NetParams]) -> None:
    """Dump every tensor of every network to one .npz; bit-exact on reload."""
    arrays = {"__version__": np.array([CHECKPOINT_VERSION])}
    for name, params in named_params.items():
        for tensor_name, tensor in params.tensors():
            arrays[f"{name}/{tensor_name}"] = tensor
    np.savez(path, **arrays)


def load_checkpoint(path) -> dict[str, NetParams]:
    with np.load(path) as data:
        version = int(data["__version__"][0])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        names = sorted({key.split("/")[0] for key in data.files if "/" in key})
        return {
            name: NetParams(**{t: data[f"{name}/{t}"]
                               for t in ("w1", "b1", "wp", "bp", "wv", "bv")})
            for name in names
        }
