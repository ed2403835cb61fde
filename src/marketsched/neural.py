"""Minimal actor-critic networks and the clipped-surrogate policy update.

One tanh hidden layer feeds a categorical policy head and a scalar value
head. Gradients are computed by hand (verified against finite differences in
the test suite) and applied by the Adam step written here, so there is no
external autodiff or optimizer dependency. Each network is one padded row of
a ``ParamStack``, which holds all of its learned state: the weights ``rows``,
the gradient ``grads`` and Adam's moments ``m`` and ``v``, all of the same row
layout, plus one Adam step count per row. A stack whose rows are rows of a
home stack shares all of that state with the home, so one update on the
home can step the networks of several agents. The padding stays fixed: its
gradient is 0, so its step is 0. A checkpoint is one ``.npz`` of that state:
a format version, the parameter-set names in row order, ``rows``, ``m``,
``v`` and the step counts, so a loaded stack continues training exactly as
the saved one would. The weights alone are a ``ParamRows``, which can also
hold the rows of several stacks of one layout so that one ``forward`` reads
them all.

``ppo_update`` updates S >= 1 networks of one shape at once, each on its own
window with its own sample stream and its own Adam step count, in one
minibatch loop over (S, rows, ...) arrays: every product is a 3-D
``np.matmul`` whose item s is the product the network alone would take, so
each network ends bit for bit where updating it alone would leave it. The
Adam step is a fixed handful of whole-row operations on all S rows at once,
with each row's bias corrections as a column, a block of rows at a time
that fits in a core's cache (``ADAM_BLOCK_BYTES``): all the small
distributed networks at once, a 1323-action head's row alone. Every array
of the loop that scales with the rows, the hidden width or the actions
lives in one scratch (``UpdateWork``) allocated per update: the loop
allocates no row-sized or (rows x actions)-sized temporary, so a large
head's pages are neither freed nor faulted in again between minibatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Iterator, NamedTuple, Sequence

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
    """Weights of one actor-critic network, or of several networks of one
    shape, each tensor with a leading network axis."""

    w1: np.ndarray  # (in, hidden)
    b1: np.ndarray  # (hidden,)
    wp: np.ndarray  # (hidden, actions)
    bp: np.ndarray  # (actions,)
    wv: np.ndarray  # (hidden,)
    bv: np.ndarray  # (1,)

    @property
    def in_width(self) -> int:
        return self.w1.shape[-2]

    @property
    def action_count(self) -> int:
        return self.wp.shape[-1]

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
        blocks = self._blocks(rows)
        return blocks, [_unpadded([block[i] for block in blocks], shape)
                        for i, shape in enumerate(self.shapes)]

    def _blocks(self, rows: np.ndarray) -> list[np.ndarray]:
        """The w1, b1, head and head_bias blocks of ``rows``, rows of this
        layout, as views with a leading row axis."""
        ends = list(accumulate(prod(shape) for shape in self._layout))
        return [rows[:, start:end].reshape(-1, *shape)
                for start, end, shape in zip([0] + ends, ends, self._layout)]


def _unpadded(blocks: list[np.ndarray], shape: tuple[int, int, int]) -> NetParams:
    """Views of the unpadded (in_width, hidden_width, action_count) part of
    padded w1, b1, head and head_bias blocks, of one network or, with a
    leading axis, of several."""
    w, h, a = shape
    w1, b1, head, bias = blocks
    return NetParams(w1=w1[..., :w, :h], b1=b1[..., :h], wp=head[..., :a, :h].swapaxes(-1, -2),
                     bp=bias[..., :a], wv=head[..., -1, :h], bv=bias[..., -1:])


def _span(sets: np.ndarray) -> slice | np.ndarray:
    """``sets`` as an index of rows: a slice if they are a run lo, lo+1,
    ..., so that ``_rows`` views the rows, else the array itself, so that
    ``_rows`` copies them. Either way row i of the result is row sets[i]."""
    lo, count = int(sets[0]), len(sets)
    return slice(lo, lo + count) if sets.tolist() == list(range(lo, lo + count)) else sets


def _rows(array: np.ndarray, span: slice | np.ndarray) -> np.ndarray:
    """The rows ``span`` (``_span``) of ``array``: a view or a copy."""
    return array[span] if isinstance(span, slice) else array.take(span, axis=0)


# The most bytes of a row block that one Adam step runs its operations on at
# once: a 1323-action head's two rows, stepped together, ran 12-23% slower
# than one at a time on a 2 MB-L2 core, where 12 small rows gain from going
# together.
ADAM_BLOCK_BYTES = 1 << 20


class ParamStack(ParamRows):
    """ParamRows with their learned state, all in the same row layout.

    ``grads`` holds the gradient of each row's latest update, and
    ``grad_views`` the same views into it. ``m`` and ``v`` are Adam's first
    and second moments of each row, and ``step_counts[i]`` is row i's Adam
    step count (``steps`` as a list). Their padding stays 0. A stack whose
    home is a ParamStack views the home's state as well as its weights, so
    an update of the home's rows is an update of its. ``save`` and ``load``
    move exactly this state, ``rows``, ``m``, ``v`` and the step counts,
    through one ``.npz`` file: a stack whose weights are rows of a larger
    home writes and reads its own rows only.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes: list[tuple[int, int, int]], home: ParamRows | None = None,
                 first: int = 0):
        super().__init__(shapes, home, first)
        if isinstance(home, ParamStack):
            span = slice(first, first + len(shapes))
            self.grads, self.m, self.v, self.step_counts = (
                home.grads[span], home.m[span], home.v[span], home.step_counts[span])
        else:
            self.grads, self.m, self.v = (np.zeros(self.rows.shape) for _ in range(3))
            self.step_counts = np.zeros(len(shapes), dtype=np.int64)
        self.grad_views = self._lay_out(self.grads)[1]

    @property
    def steps(self) -> list[int]:
        """Each row's Adam step count."""
        return self.step_counts.tolist()

    def ascend(self, sets: Sequence[int], lr: float) -> None:
        """One Adam ascent step of each row of ``sets`` along its row of
        ``grads``, in place (see ``_step``)."""
        state = self._take(np.asarray(sets))
        self._step(*state[1:], lr, np.empty((2, state[1].size)))
        self._put(*state)

    def _take(self, sets: np.ndarray) -> list:
        """The span of ``sets`` (``_span``), then their rows of ``rows``,
        ``grads``, ``m``, ``v`` and ``step_counts``: views of a run, else
        copies for ``_put`` to write back."""
        span = _span(sets)
        return [span] + [_rows(a, span) for a in (self.rows, self.grads, self.m, self.v,
                                                  self.step_counts)]

    def _put(self, span, rows, grads, m, v, step_counts) -> None:
        """Write back what ``_take`` copied; a run's views need nothing."""
        if not isinstance(span, slice):
            for whole, part in zip((self.rows, self.grads, self.m, self.v, self.step_counts),
                                   (rows, grads, m, v, step_counts)):
                whole[span] = part

    def _step(self, rows: np.ndarray, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
              step_counts: np.ndarray, lr: float, temp: np.ndarray) -> None:
        """One Adam ascent step of ``rows`` along ``grads``, all in place and
        every row at once, in the operation order m = b1*m + (1-b1)*g;
        v = b2*v + ((1-b2)*g)*g; row += lr*m_hat / (sqrt(v_hat)+eps). Row i's
        bias corrections are the Python floats 1 - b**t of its step count t,
        as a column. The rows go a block of at most ``ADAM_BLOCK_BYTES`` at a
        time (at least one row), so that a block's arrays stay in a core's
        cache from one operation to the next. ``temp`` holds two arrays of
        the rows' shape (or more room), which every intermediate is written
        into."""
        step_counts += 1
        counts = step_counts.tolist()
        first = np.array([[1.0 - self.beta1**t] for t in counts])
        second = np.array([[1.0 - self.beta2**t] for t in counts])
        per_block = max(1, ADAM_BLOCK_BYTES // rows[0].nbytes)
        for block in (slice(lo, lo + per_block) for lo in range(0, len(rows), per_block)):
            row, grad, m_row, v_row = rows[block], grads[block], m[block], v[block]
            step, root = (part[:row.size].reshape(row.shape) for part in temp[:2])
            m_row *= self.beta1
            m_row += np.multiply(grad, 1.0 - self.beta1, out=step)
            v_row *= self.beta2
            v_row += np.multiply(np.multiply(grad, 1.0 - self.beta2, out=step), grad, out=step)
            np.divide(m_row, first[block], out=step)
            step *= lr
            np.add(np.sqrt(np.divide(v_row, second[block], out=root), out=root), self.eps,
                   out=root)
            step /= root
            row += step

    def save(self, path, names: list[str]) -> None:
        """Write the learned state, with ``names`` naming the rows in order,
        to one ``.npz``; ``load`` restores it bit for bit."""
        np.savez(path, version=CHECKPOINT_VERSION, names=np.array(names, dtype=str),
                 rows=self.rows, m=self.m, v=self.v, steps=self.step_counts)

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
            self.step_counts[...] = steps


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
    span = _span(sets)
    w1, b1, head, head_bias = (_rows(block, span) for block in
                               (stack.w1, stack.b1, stack.head, stack.head_bias))
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
    # Python floats: the same double arithmetic as numpy scalars, at a
    # fraction of the cost per operation
    rewards_t, values_t = rewards.tolist(), values.tolist()
    advantages = [0.0] * len(rewards_t)
    carry = 0.0
    next_value = bootstrap_value
    for t in range(len(rewards_t) - 1, -1, -1):
        delta = rewards_t[t] + discount * next_value - values_t[t]
        carry = delta + discount * lam * carry
        advantages[t] = carry
        next_value = values_t[t]
    advantages = np.array(advantages)
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


STATS = ("objective", "value_loss", "entropy", "clip_fraction", "approx_kl")


class UpdateWork(NamedTuple):
    """One update's scratch, for S networks of one shape and minibatches of
    up to ``rows`` rows: ``wide`` holds three arrays of (S, rows or hidden,
    actions) or of (S, row width), whichever is larger (the surrogate's
    log-probabilities, probabilities and logit gradients, then the policy
    head's gradient, then Adam's two intermediates); ``narrow`` three of
    (S, rows or in-width, hidden) (hidden activations, their gradient, and
    a temporary that ends as the first layer's gradient); ``finite`` one
    bool per gradient entry."""

    wide: np.ndarray
    narrow: np.ndarray
    finite: np.ndarray


def update_work(sets: int, shape: tuple[int, int, int], rows: int,
                row_width: int = 0) -> UpdateWork:
    """``UpdateWork`` for ``sets`` networks of ``shape`` in rows of
    ``row_width`` (0: no Adam step) and minibatches of up to ``rows`` rows."""
    in_width, hidden, actions = shape
    wide = sets * max(max(rows, hidden) * actions, row_width)
    narrow = sets * max(rows, in_width) * hidden
    return UpdateWork(np.empty((3, wide)), np.empty((3, narrow)),
                      np.empty((sets, row_width), dtype=bool))


def _part(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a 1-D scratch buffer, as a
    contiguous array of ``shape``."""
    return buffer[:prod(shape)].reshape(shape)


def surrogate_objective(params: NetParams, grads: NetParams, batch: TrainBatch,
                        hyper: PPOHyper, indices: np.ndarray,
                        work: UpdateWork | None = None) -> tuple[np.ndarray, dict]:
    """Clipped-surrogate objective and its analytic gradient on a minibatch
    of each of S networks of one shape.

    ``params`` and ``grads`` hold the S networks as NetParams with a leading
    network axis, ``batch`` their windows as (S, T, ...) arrays, and row s of
    ``indices`` network s's minibatch rows. Returns the (S,) objectives and
    a dict of (S,) stats, and writes into ``grads`` the gradients, which
    point in the ascent direction of objective = policy surrogate - c_v *
    value loss + c_e * entropy. Network s's results are bit for bit those
    of computing it alone. ``approx_kl`` is the estimator
    mean((ratio - 1) - log ratio) of the KL divergence from the window's
    policy. Every (rows x hidden) and (rows x actions) array lives in
    ``work`` (``update_work``), which an update's minibatches share.
    """
    count, n = indices.shape
    hidden, actions = params.wp.shape[-2:]
    in_width = params.in_width
    if work is None:
        work = update_work(count, (in_width, hidden, actions), n)
    networks = np.arange(count)[:, None]
    x, acts, logp_old, adv, ret = (field[networks, indices] for field in batch)
    lp, pr, dl = work.wide[:, :count * n * actions].reshape(3, count, n, actions)
    h, d_h, temp = work.narrow[:, :count * n * hidden].reshape(3, count, n, hidden)
    rows = np.arange(n)

    np.matmul(x, params.w1, out=h)
    h += params.b1[:, None]
    np.tanh(h, out=h)
    logits = np.matmul(h, params.wp, out=lp)
    logits += params.bp[:, None]
    values = np.matmul(h, params.wv[..., None])[..., 0] + params.bv

    # log_softmax in place: logits, z and logp_all all live in lp
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=lp)
    logp_all = np.subtract(z, np.log(np.exp(z, out=pr).sum(axis=-1, keepdims=True)), out=lp)
    probs = np.exp(logp_all, out=pr)
    logp_act = logp_all[networks, rows, acts]
    log_ratio = logp_act - logp_old
    ratio = np.exp(log_ratio)
    clipped = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip)
    surr_unclipped = ratio * adv
    surr_clipped = clipped * adv
    surrogate = np.minimum(surr_unclipped, surr_clipped)
    entropy = -np.multiply(probs, logp_all, out=dl).sum(axis=-1)
    value_err = values - ret
    # each mean is the sum over the minibatch / n, as ndarray.mean takes it
    value_loss = (value_err**2).sum(axis=-1) / n
    mean_entropy = entropy.sum(axis=-1) / n

    objective = (surrogate.sum(axis=-1) / n
                 - hyper.value_coef * value_loss
                 + hyper.entropy_coef * mean_entropy)

    # d objective / d logits. The unclipped branch carries gradient whenever
    # it attains the min; a clipped-and-active branch has zero gradient.
    use_unclipped = surr_unclipped <= surr_clipped
    coef = np.where(use_unclipped, ratio * adv, 0.0) / n
    dl.fill(0.0)  # one_hot, then d_logits
    dl[networks, rows, acts] = 1.0
    d_logits = np.multiply(coef[..., None], np.subtract(dl, probs, out=dl), out=dl)
    # += c_e * (-probs * (logp_all + entropy)) / n; probs and logp_all are done
    term = np.multiply(np.negative(probs, out=pr),
                       np.add(logp_all, entropy[..., None], out=lp), out=pr)
    d_logits += np.divide(np.multiply(hyper.entropy_coef, term, out=pr), n, out=pr)

    d_values = -2.0 * hyper.value_coef * value_err / n

    np.matmul(d_logits, params.wp.swapaxes(-1, -2), out=d_h)
    d_h += np.multiply(d_values[..., None], params.wv[:, None], out=temp)
    d_z1 = np.multiply(d_h, np.subtract(1.0, np.multiply(h, h, out=temp), out=temp), out=d_h)
    grads.w1[...] = np.matmul(x.swapaxes(-1, -2), d_z1,
                              out=_part(work.narrow[2], count, in_width, hidden))
    grads.b1[...] = d_z1.sum(axis=-2)
    # the head's gradient goes through a contiguous array: a product written
    # straight into the transposed head block is not summed in the same order
    grads.wp[...] = np.matmul(h.swapaxes(-1, -2), d_logits,
                              out=_part(work.wide[0], count, hidden, actions))
    grads.bp[...] = d_logits.sum(axis=-2)
    grads.wv[...] = np.matmul(h.swapaxes(-1, -2), d_values[..., None])[..., 0]
    grads.bv[...] = d_values.sum(axis=-1, keepdims=True)
    stats = {
        "objective": objective,
        "value_loss": value_loss,
        "entropy": mean_entropy,
        "clip_fraction": np.count_nonzero(~use_unclipped, axis=-1) / n,
        "approx_kl": ((ratio - 1.0) - log_ratio).sum(axis=-1) / n,
    }
    return objective, stats


def ppo_update(stack: ParamStack, sets: Sequence[int], batches: Sequence[TrainBatch],
               hyper: PPOHyper, rngs: Sequence[np.random.Generator]) -> list[dict]:
    """Run the clipped-surrogate update of the networks ``sets`` of
    ``stack``, distinct and all of one (in_width, hidden_width, action_count)
    shape, each on its own window ``batches[i]`` (all of one length) with its
    own stream ``rngs[i]``, in place; returns each network's aggregate stats.

    The networks share one minibatch loop, and each ends bit for bit where
    updating it alone would leave it: its own permutations, advantages
    normalized once over its own window, its own stats and its own Adam step
    count. A non-finite loss or gradient in any network raises
    NonFiniteLossError naming it, before the offending minibatch touches any
    of the networks.
    """
    shape, count = stack.shapes[sets[0]], len(batches[0].actions)
    if (len(set(sets)) < len(sets) or any(stack.shapes[s] != shape for s in sets)
            or any(len(batch.actions) != count for batch in batches)):
        raise ValueError(f"one update takes distinct networks of one shape and windows "
                         f"of one length, got networks {list(sets)} of shapes "
                         f"{[stack.shapes[s] for s in sets]} and windows of "
                         f"{[len(batch.actions) for batch in batches]}")
    data = TrainBatch(*(np.stack(field) for field in zip(*batches)))
    adv = data.advantages
    data = data._replace(advantages=(adv - adv.mean(axis=1, keepdims=True))
                         / (adv.std(axis=1, keepdims=True) + 1e-8))

    span, rows, grads, m, v, step_counts = stack._take(np.asarray(sets))
    params, grad_params = (_unpadded(stack._blocks(a), shape) for a in (rows, grads))
    work = update_work(len(sets), shape, min(count, hyper.minibatch_size), rows.shape[1])
    totals = np.zeros((len(STATS), len(sets)))
    minibatches = 0
    try:
        for _ in range(hyper.epochs):
            order = np.stack([rng.permutation(count) for rng in rngs])
            for start in range(0, count, hyper.minibatch_size):
                indices = order[:, start:start + hyper.minibatch_size]
                objective, stats = surrogate_objective(params, grad_params, data, hyper,
                                                       indices, work)
                finite = np.isfinite(objective) & np.isfinite(grads, out=work.finite).all(axis=1)
                if not finite.all():
                    i = int(np.argmin(finite))
                    raise NonFiniteLossError(
                        f"non-finite update of parameter set {sets[i]}: "
                        f"objective={objective[i]!r}, value_loss={stats['value_loss'][i]!r}, "
                        f"batch size {indices.shape[1]}")
                stack._step(rows, grads, m, v, step_counts, hyper.learning_rate, work.wide)
                totals += [stats[key] for key in STATS]
                minibatches += 1
    finally:
        stack._put(span, rows, grads, m, v, step_counts)
    return [{**{key: float(total) / max(minibatches, 1) for key, total in zip(STATS, column)},
             "minibatches": minibatches} for column in totals.T]
