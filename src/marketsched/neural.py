"""Minimal actor-critic networks and the clipped-surrogate policy update.

One tanh hidden layer feeds a categorical policy head and a scalar value
head. Gradients are computed by hand (verified against finite differences in
the test suite) and applied by the Adam step written here, so there is no
external autodiff or optimizer dependency. Each network is one padded row of
a ``ParamStack``, which holds all of its learned state: the weights ``rows``,
the gradient ``grads`` and Adam's moments ``m`` and ``v``, all of the same row
layout, plus one Adam step count per row. An Adam step is a fixed handful of
whole-row operations. The padding stays fixed: its gradient is 0, so its step
is 0. A checkpoint is one ``.npz`` of that state: a format version, the
parameter-set names in row order, ``rows``, ``m``, ``v`` and the step counts,
so a loaded stack continues training exactly as the saved one would. The
weights alone are a ``ParamRows``, which can also hold the rows of several
stacks of one layout so that one ``forward`` reads them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Iterator, NamedTuple

import numpy as np

from .config import check_keys, finite_number, whole_number


CHECKPOINT_VERSION = 2


class NonFiniteLossError(RuntimeError):
    """An update produced a non-finite loss or gradient and was aborted."""


@dataclass(frozen=True)
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

    integer_fields = ("rollout_length", "minibatch_size", "epochs")

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name in self.integer_fields and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            finite_number(value, name)
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.clip <= 0.0:
            raise ValueError(f"clip must be > 0, got {self.clip}")
        if self.rollout_length < 1 or self.minibatch_size < 1 or self.epochs < 1:
            raise ValueError("rollout_length, minibatch_size and epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.entropy_coef < 0.0 or self.value_coef < 0.0:
            raise ValueError("entropy_coef and value_coef must be >= 0")

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "PPOHyper":
        check_keys(cls, data, "hyper")
        return cls(**{k: whole_number(v, k) if k in cls.integer_fields else v
                      for k, v in data.items()})


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


class ParamRows:
    """Several networks' weights, one zero-padded row of ``rows`` each.

    Row i is network i's whole parameter vector: its w1 (in, hidden), b1
    (hidden,), head (actions + 1, hidden) and head_bias (actions + 1,) blocks,
    each at the widest in_width, hidden width and action count of
    ``shapes``, the layout. ``w1``, ``b1``, ``head`` and ``head_bias`` view
    those blocks of every row, and ``views[i]`` is network i as a NetParams
    of views into its unpadded part, so an in-place update of a view or row
    (an Adam step, a checkpoint load) is what ``forward`` reads next.
    ``head`` holds one row of hidden weights per output, the policy's actions
    first and the value last, so one product yields logits and value; ``wp``
    is the transpose of its first rows. The padding is fixed: weights 0,
    which add nothing to a sum, and logit biases -inf, which give padded
    actions probability 0.
    """

    def __init__(self, shapes: list[tuple[int, int, int]], home: ParamRows | None = None,
                 first: int = 0):
        """``shapes`` holds one (in_width, hidden_width, action_count) per
        network. With ``home``, a ParamRows of the same layout whose networks
        from ``first`` on are these, the weights are its rows ``first``,
        ``first + 1``, ..., which the two then share, so one ``forward`` on
        ``home`` reads them beside home's other rows. Else they are a new
        array's, and ``home`` is the ParamRows itself."""
        self.shapes = shapes
        self.in_width, hidden, actions = (max(dim) for dim in zip(*shapes))
        self._layout = ((self.in_width, hidden), (hidden,), (actions + 1, hidden),
                        (actions + 1,))
        if home is None:
            rows = np.zeros((len(shapes), sum(prod(s) for s in self._layout)))
        elif (first < 0 or home.shapes[first:first + len(shapes)] != list(shapes)
              or home._layout != self._layout):
            raise ValueError(f"rows {first}.. of a stack of networks {home.shapes} "
                             f"cannot hold networks {shapes}")
        else:
            rows = home.rows[first:first + len(shapes)]
        self._home, self.first, self.rows = home, first, rows
        (self.w1, self.b1, self.head, self.head_bias), self.views = self._lay_out(self.rows)
        self.last_action = np.array([a for _, _, a in shapes]) - 1
        self.head_bias[:, :-1] = np.where(
            np.arange(actions) <= self.last_action[:, None], 0.0, -np.inf)

    @property
    def home(self) -> ParamRows:
        return self if self._home is None else self._home  # no reference cycle

    def _lay_out(self, rows: np.ndarray) -> tuple[list[np.ndarray], list[NetParams]]:
        """The w1, b1, head and head_bias blocks of ``rows``, and each
        network's NetParams of views into them."""
        ends = list(accumulate(prod(shape) for shape in self._layout))
        w1, b1, head, bias = (rows[:, start:end].reshape(-1, *shape)
                              for start, end, shape in zip([0] + ends, ends, self._layout))
        return [w1, b1, head, bias], [NetParams(
            w1=w1[i, :w, :h], b1=b1[i, :h], wp=head[i, :a, :h].T, bp=bias[i, :a],
            wv=head[i, -1, :h], bv=bias[i, -1:]) for i, (w, h, a) in enumerate(self.shapes)]


class ParamStack(ParamRows):
    """ParamRows with their learned state, all in the same row layout.

    ``grads`` holds the gradient of each row, and ``grad_views`` the same
    views into it. ``m`` and ``v`` are Adam's first and second moments of
    each row, and ``steps[i]`` (a Python int) is row i's Adam step count.
    Their padding stays 0. ``save`` and ``load`` move exactly this state,
    ``rows``, ``m``, ``v`` and ``steps``, through one ``.npz`` file: a stack
    whose weights are rows of a larger home writes and reads its own rows
    only.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes: list[tuple[int, int, int]], home: ParamRows | None = None,
                 first: int = 0):
        super().__init__(shapes, home, first)
        self.grads = np.zeros(self.rows.shape)
        self.m = np.zeros(self.rows.shape)
        self.v = np.zeros(self.rows.shape)
        self.steps = [0] * len(shapes)
        self.grad_views = self._lay_out(self.grads)[1]

    def ascend(self, index: int, lr: float) -> None:
        """One Adam ascent step of row ``index`` along its gradient, in place,
        in the operation order m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        row += lr*m_hat / (sqrt(v_hat)+eps)."""
        grad, m, v = self.grads[index], self.m[index], self.v[index]
        self.steps[index] = t = self.steps[index] + 1
        m *= self.beta1
        m += grad * (1.0 - self.beta1)
        v *= self.beta2
        v += grad * (1.0 - self.beta2) * grad
        step = m / (1.0 - self.beta1**t)
        step *= lr
        step /= np.sqrt(v / (1.0 - self.beta2**t)) + self.eps
        self.rows[index] += step

    def save(self, path, names: list[str]) -> None:
        """Write the learned state, with ``names`` naming the rows in order,
        to one ``.npz``; ``load`` restores it bit for bit."""
        np.savez(path, version=CHECKPOINT_VERSION, names=np.array(names, dtype=str),
                 rows=self.rows, m=self.m, v=self.v, steps=np.array(self.steps))

    def load(self, path, names: list[str]) -> None:
        """Restore in place the state ``save`` wrote for rows named ``names``.
        A file of another format version, with a key missing, other names,
        another row shape or anything but one non-negative integer step count
        per row is rejected with ValueError and leaves the stack untouched."""
        with np.load(path, allow_pickle=False) as data:
            version = data.get("version")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            missing = [key for key in ("names", "rows", "m", "v", "steps") if key not in data]
            if missing:
                raise ValueError(f"checkpoint has no {', '.join(missing)}")
            saved = data["names"].tolist()
            if saved != list(names):
                raise ValueError(f"checkpoint parameter sets {saved} do not match {list(names)}")
            rows, m, v, steps = (data[key] for key in ("rows", "m", "v", "steps"))
            if {rows.shape, m.shape, v.shape} != {self.rows.shape}:
                raise ValueError(f"checkpoint rows of shape {rows.shape} do not match "
                                 f"the stack's {self.rows.shape}")
            if (steps.shape != (len(rows),) or steps.dtype.kind not in "iu"
                    or (steps < 0).any()):
                raise ValueError("checkpoint steps must be one non-negative integer per row, "
                                 f"got {steps.tolist()}")
            self.rows[...], self.m[...], self.v[...] = rows, m, v
            self.steps = steps.tolist()


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


def forward(stack: ParamRows, obs: np.ndarray, sets: np.ndarray):
    """Policy logits and value estimates, one observation per row of ``obs``
    and ``sets`` naming each row's network: (logits, values), row by row,
    with -inf logits on the padded actions of networks narrower than the
    stack."""
    # rows of the sets lo, lo+1, ..., lo+R-1 in turn (FULL's, with the large
    # head, are such a run) read a view of the blocks instead of copying
    # them for each row: the same products
    w1, b1, head, head_bias = stack.w1, stack.b1, stack.head, stack.head_bias
    lo, count = int(sets[0]), len(sets)
    if sets.tolist() == list(range(lo, lo + count)):
        run = slice(lo, lo + count)
        w1, b1, head, head_bias = w1[run], b1[run], head[run], head_bias[run]
    else:
        w1, b1, head, head_bias = (w1.take(sets, axis=0), b1.take(sets, axis=0),
                                   head.take(sets, axis=0), head_bias.take(sets, axis=0))
    h = np.tanh(np.matmul(obs[:, None, :], w1)[:, 0] + b1)
    out = np.matmul(head, h[:, :, None])[:, :, 0] + head_bias
    return out[:, :-1], out[:, -1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sample_rows(logits: np.ndarray, u: np.ndarray, last: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of ``logits`` from its softmax by inverse
    CDF: row i's action is the number of cumulative probabilities at or
    below its uniform draw ``u[i]``, capped at its last valid action
    ``last[i]``. Returns the actions and their log-probabilities; the same
    draws give the same actions."""
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

    def __init__(self, capacity: int, width: int):
        self.capacity = capacity
        self.obs = np.empty((capacity, width))
        self.actions = np.empty(capacity, dtype=np.intp)
        self.logps = np.empty(capacity)
        self.values = np.empty(capacity)
        self.rewards = np.empty(capacity)
        self.size = 0

    def add(self, obs: np.ndarray, action: int, logp: float, value: float,
            reward: float) -> None:
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


def surrogate_work(params: NetParams, rows: int) -> np.ndarray:
    """``surrogate_objective``'s scratch: four (``rows`` or hidden) x actions rows."""
    return np.empty((4, max(rows, params.wp.shape[0]) * params.action_count))


def surrogate_objective(params: NetParams, grads: NetParams, batch: TrainBatch,
                        hyper: PPOHyper, indices: np.ndarray,
                        work: np.ndarray | None = None) -> tuple[float, dict]:
    """Clipped-surrogate objective and its analytic gradient on a minibatch.

    Returns (objective, stats) and writes into ``grads`` the gradient, which
    points in the ascent direction of objective = policy surrogate
    - c_v * value loss + c_e * entropy. Every (rows x actions) array lives
    in ``work`` (``surrogate_work``), which an update's minibatches share:
    freed after each minibatch, such arrays' pages may go back to the OS and
    be faulted in again on the next one, depending on the heap's layout.
    """
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

    # log_softmax in place: logits, z and logp_all all live in lp
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

    # d objective / d logits. The unclipped branch carries gradient whenever
    # it attains the min; a clipped-and-active branch has zero gradient.
    use_unclipped = surr_unclipped <= surr_clipped
    coef = np.where(use_unclipped, ratio * adv, 0.0) / n
    dl.fill(0.0)  # one_hot, then d_logits
    dl[np.arange(n), acts] = 1.0
    d_logits = np.multiply(coef[:, None], np.subtract(dl, probs, out=dl), out=dl)
    # += c_e * (-probs * (logp_all + entropy)) / n; probs and logp_all are done
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


def ppo_update(stack: ParamStack, index: int, batch: TrainBatch, hyper: PPOHyper,
               rng: np.random.Generator) -> dict:
    """Run the clipped-surrogate update of network ``index`` of ``stack`` in
    place; returns aggregate stats.

    Advantages are normalized once per update. A non-finite loss or gradient
    aborts before any parameter is touched by the offending minibatch.
    """
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
            stack.ascend(index, hyper.learning_rate)
            for key in totals:
                totals[key] += stats[key]
            minibatches += 1
    return {**{key: total / max(minibatches, 1) for key, total in totals.items()},
            "minibatches": minibatches}
