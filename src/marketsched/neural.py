"""Minimal actor-critic networks and their learned state.

One tanh hidden layer feeds a categorical policy head and a scalar value
head. Gradients are computed by hand (verified against finite differences in
the test suite) and applied by the Adam step of ``marketsched.ppo``, so
there is no external autodiff or optimizer dependency. Each network is one
padded row of a ``ParamStack``, which holds exactly what a checkpoint saves:
the weights ``rows`` and Adam's moments ``m`` and ``v``, all of the same row
layout, plus one Adam step count per row. A checkpoint is one ``.npz`` of
that state: a format version, the parameter-set names in row order,
``rows``, ``m``, ``v`` and the step counts, so a loaded stack continues
training exactly as the saved one would. One stack holds the networks of
every agent of a home (see ``marketsched.agents``), so one ``forward`` reads
them all and one update steps them.
Besides that state a stack keeps the rows ``forward`` last gathered, one
copy of the whole rows taken at once, until its next update or load.
``init_params`` draws each network's initial weights from its own stream
and orthogonalizes the matrices of one tensor and one shape with one
stacked QR, which gives each matrix the bits of a QR of its own.

``marketsched.ppo`` updates the networks of a stack on their own entries alone,
a narrower network's as a copy in its shape's own layout
(``ParamStack._take``), which moves no bit: the padding's gradient is 0 and its
moments stay 0, so a step of the whole row leaves it where it was. Its Adam
step (``ppo._adam``) steps all the rows of a minibatch loop at once, with the
betas and eps of ``ParamStack``, which define the ``m`` and ``v`` it saves.

The arrays of an acting pass are small, so much of an operation's cost is
its call. The reductions call the ufuncs' ``reduce`` and ``accumulate``,
the loops that ``ndarray.sum``, ``max`` and ``cumsum`` reach through a
Python-level wrapper, and entries are picked by one flat index with
``take``, which reads what a multi-axis fancy index reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import prod, sqrt
from typing import Iterator

import numpy as np

from .config import ConfigError, check_int, check_keys, finite_number, whole_number


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
            if name in self.integer_fields:
                check_int(value, name, 1)
            else:
                finite_number(value, name)
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError(f"discount must be in (0, 1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.clip <= 0.0:
            raise ConfigError(f"clip must be > 0, got {self.clip}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.entropy_coef < 0.0 or self.value_coef < 0.0:
            raise ConfigError("entropy_coef and value_coef must be >= 0")

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


def _unpadded(blocks: list[np.ndarray], shape: tuple[int, int, int]) -> NetParams:
    """Views of the unpadded (in_width, hidden_width, action_count) part of
    padded w1, b1, head and head_bias blocks, of one network or, with a
    leading axis, of several."""
    w, h, a = shape
    w1, b1, head, bias = blocks
    return NetParams(w1=w1[..., :w, :h], b1=b1[..., :h], wp=head[..., :a, :h].swapaxes(-1, -2),
                     bp=bias[..., :a], wv=head[..., -1, :h], bv=bias[..., -1:])


@cache
def _layout(shape: tuple[int, int, int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, end, block shape) of the w1, b1, head and head_bias blocks of
    a row of a network of ``shape``; the last end is the row's width."""
    in_width, hidden, actions = shape
    layout = ((in_width, hidden), (hidden,), (actions + 1, hidden), (actions + 1,))
    ends = list(accumulate(prod(block) for block in layout))
    return list(zip([0] + ends, ends, layout))


def _blocks(rows: np.ndarray, shape: tuple[int, int, int]) -> list[np.ndarray]:
    """The w1, b1, head and head_bias blocks of ``rows``, rows of the layout
    of ``shape`` (``_layout``), as views with a leading row axis."""
    return [rows[:, start:end].reshape(-1, *block) for start, end, block in _layout(shape)]


@cache
def _columns(shape: tuple[int, int, int], widest: tuple[int, int, int]) -> np.ndarray:
    """The columns of a row of ``widest``'s layout that hold a network of
    ``shape``, in the order of ``shape``'s own layout, read-only."""
    own, padded = (np.arange(_layout(s)[-1][1])[None] for s in (shape, widest))
    for (_, mine), (_, theirs) in zip(_unpadded(_blocks(own, shape), shape).tensors(),
                                      _unpadded(_blocks(padded, widest), shape).tensors()):
        mine[...] = theirs
    own.flags.writeable = False
    return own[0]


def _span(sets: np.ndarray) -> slice | np.ndarray:
    """``sets`` as an index of rows: a slice if they are a run lo, lo+1,
    ..., so that ``_rows`` views the rows, else the array itself, so that
    ``_rows`` copies them. Either way row i of the result is row sets[i]."""
    lo, count = int(sets[0]), len(sets)
    return slice(lo, lo + count) if sets.tolist() == list(range(lo, lo + count)) else sets


def _rows(array: np.ndarray, span: slice | np.ndarray) -> np.ndarray:
    """The rows ``span`` (``_span``) of ``array``: a view or a copy."""
    return array[span] if isinstance(span, slice) else array.take(span, axis=0)


class ParamStack:
    """Several networks' learned state, exactly what a checkpoint saves.

    Row i of ``rows`` is network i's whole parameter vector, in the layout
    (``_layout``) of ``widest``, the widest in_width, hidden width and
    action count of ``shapes``. ``w1``, ``b1``, ``head`` and ``head_bias``
    view those blocks of every row, and ``views[i]`` is network i as a
    NetParams of views into its unpadded part, so an in-place update of a
    view or row (an Adam step, a checkpoint load) is what ``forward`` reads
    next. ``head`` holds one row of hidden weights per output, the policy's
    actions first and the value last, so one product yields logits and
    value; ``wp`` is the transpose of its first rows. ``m`` and ``v`` are
    Adam's first and second moments of each row under ``beta1``, ``beta2``
    and ``eps`` (``marketsched.ppo._adam``), in the same layout, and
    ``step_counts[i]`` is row i's Adam step count (``steps`` as a list). The
    padding is fixed: weights 0, which add nothing to a sum, logit biases
    -inf, which give padded actions probability 0, and moments 0. ``save``
    and ``load`` move exactly this state through one ``.npz`` file. The
    gradient is not part of it: it belongs to one update
    (``marketsched.ppo.UpdateWork``), which works on each network's own
    entries (``_take``). ``writes`` counts the updates and loads of the
    rows, and ``gather`` keeps the blocks it last gathered until that count
    moves; anything else that writes the rows in place between two
    ``forward`` calls advances it too.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shapes: list[tuple[int, int, int]]):
        """``shapes`` holds one (in_width, hidden_width, action_count) per
        network."""
        self.shapes = shapes
        self.widest = tuple(max(dim) for dim in zip(*shapes))
        self.in_width, _, actions = self.widest
        width = _layout(self.widest)[-1][1]
        self.rows, self.m, self.v = (np.zeros((len(shapes), width)) for _ in range(3))
        self.step_counts = np.zeros(len(shapes), dtype=np.int64)
        self.writes = 0
        self._gathered: tuple = (None, [])
        blocks = self.w1, self.b1, self.head, self.head_bias = _blocks(self.rows, self.widest)
        self.views = [_unpadded([block[i] for block in blocks], shape)
                      for i, shape in enumerate(shapes)]
        self.last_action = np.array([a for _, _, a in shapes]) - 1
        self.head_bias[:, :-1] = np.where(
            np.arange(actions) <= self.last_action[:, None], 0.0, -np.inf)

    @property
    def steps(self) -> list[int]:
        """Each row's Adam step count."""
        return self.step_counts.tolist()

    def gather(self, sets: np.ndarray) -> list[np.ndarray]:
        """The w1, b1, head and head_bias blocks of the networks ``sets``:
        views of ``rows`` if they are a run lo, lo+1, ... (FULL's, with the
        large head), else views of one copy of their rows, taken at once,
        with the two bias blocks copied again to be contiguous. Either is
        kept and given again for the same ``sets`` until the rows are next
        written (``writes``)."""
        key = sets.tolist(), self.writes
        if key != self._gathered[0]:
            span = _span(sets)
            w1, b1, head, head_bias = _blocks(_rows(self.rows, span), self.widest)
            if not isinstance(span, slice):
                # forward adds a contiguous bias in one loop, a strided one
                # row by row
                b1, head_bias = np.ascontiguousarray(b1), np.ascontiguousarray(head_bias)
            self._gathered = key, [w1, b1, head, head_bias]
        return self._gathered[1]

    def _take(self, sets: np.ndarray) -> list:
        """An index for ``_put``, then the networks ``sets``' rows of
        ``rows``, ``m``, ``v`` and ``step_counts``: views of a run lo, lo+1,
        ..., else copies. A shape narrower than the row gets, of ``rows``,
        ``m`` and ``v``, a copy of each row's own entries (``_columns``), so
        that no update reads, steps or checks the padding: that moves no bit,
        since the padding's gradient is 0 and its moments stay 0 (``load``
        takes no others)."""
        span, shape = _span(sets), self.shapes[sets[0]]
        if shape == self.widest:
            return [span] + [_rows(a, span) for a in (self.rows, self.m, self.v, self.step_counts)]
        entries = sets[:, None] * self.rows.shape[1] + _columns(shape, self.widest)
        return [(sets, entries), *(a.take(entries) for a in (self.rows, self.m, self.v)),
                self.step_counts[sets]]

    def _put(self, index, rows, m, v, step_counts) -> None:
        """Write back what ``_take`` copied, a narrower shape's own entries
        alone (a 2-D index into the flattened rows), so the padding stays as
        it was; a run's views need nothing."""
        if not isinstance(index, slice):
            sets, entries = index if isinstance(index, tuple) else (index, index)
            self.step_counts[sets] = step_counts
            for whole, part in zip((self.rows, self.m, self.v), (rows, m, v)):
                (whole.reshape(-1) if entries.ndim > 1 else whole)[entries] = part

    def save(self, path, names: list[str]) -> None:
        """Write the learned state, with ``names`` naming the rows in order,
        to one ``.npz``; ``load`` restores it bit for bit."""
        np.savez(path, version=CHECKPOINT_VERSION, names=np.array(names, dtype=str),
                 rows=self.rows, m=self.m, v=self.v, steps=self.step_counts)

    def load(self, path, names: list[str]) -> None:
        """Restore in place the state ``save`` wrote for rows named ``names``.
        A file of another format version, with a key missing, other names,
        another row shape, anything but finite floats in ``rows``, ``m`` and
        ``v`` outside the padding, a negative ``v``, padding other than the
        stack's own, or anything but one non-negative integer step count per
        row is rejected with ValueError naming the key, and leaves the stack
        untouched."""
        with np.load(path, allow_pickle=False) as data:
            version = data.get("version")
            if (version is None or version.shape or version.dtype.kind not in "iu"
                    or version != CHECKPOINT_VERSION):
                raise ValueError(f"checkpoint version must be the integer {CHECKPOINT_VERSION}, "
                                 f"got {None if version is None else version.tolist()}")
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
            padding = np.ones(self.rows.shape, dtype=bool)
            for row, shape in zip(padding, self.shapes):
                row[_columns(shape, self.widest)] = False
            for key, array, own in (("rows", rows, self.rows), ("m", m, self.m),
                                    ("v", v, self.v)):
                if array.dtype.kind != "f" or not np.isfinite(array[~padding]).all():
                    raise ValueError(f"checkpoint {key} must be finite floats")
                if not np.array_equal(array[padding], own[padding]):
                    raise ValueError(f"checkpoint {key} padding differs from the stack's")
            if (v < 0.0).any():
                raise ValueError("checkpoint v must not be negative")
            if (steps.shape != (len(rows),) or steps.dtype.kind not in "iu"
                    or (steps < 0).any()):
                raise ValueError("checkpoint steps must be one non-negative integer per row, "
                                 f"got {steps.tolist()}")
            self.rows[...], self.m[...], self.v[...] = rows, m, v
            self.step_counts[...] = steps
            self.writes += 1


def _orthogonal(group: list[tuple[np.ndarray, np.random.Generator]], gain: float) -> None:
    """Write ``gain`` times an orthogonal matrix (Saxe et al., 2014) into
    each matrix of ``group``, (matrix, stream) pairs of one shape: all drawn
    into one array, then one stacked QR. A column's sign fix and the gain
    are one exact factor, +-gain."""
    rows, cols = group[0][0].shape
    a = np.empty((len(group), max(rows, cols), min(rows, cols)))
    for block, (_, rng) in zip(a, group):
        rng.standard_normal(out=block)
    q, r = np.linalg.qr(a)
    scales = np.sign(r.diagonal(0, -2, -1)) * gain
    for (out, _), matrix, scale in zip(group, q, scales):
        np.multiply(matrix, scale, out=out if rows >= cols else out.T)


def init_params(nets: list[NetParams], rngs: list[np.random.Generator]) -> None:
    """Write orthogonally scaled weights into ``nets``, for example fresh
    ParamStack views, network i's from its own stream ``rngs[i]`` (w1,
    policy head, value head, in that order). The matrices of one tensor and
    one shape share one stacked QR: on a ``DIST`` agent one for the accept
    sets' w1, one for the offer sets' w1, and so on. The small policy-head
    gain keeps the policy near uniform."""
    for outs, gain in (([net.w1 for net in nets], sqrt(2.0)), ([net.wp for net in nets], 0.01),
                       ([net.wv[:, None] for net in nets], 1.0)):
        groups: dict[tuple[int, ...], list] = {}
        for out, rng in zip(outs, rngs):
            groups.setdefault(out.shape, []).append((out, rng))
        for group in groups.values():
            _orthogonal(group, gain)


def forward(stack: ParamStack, obs: np.ndarray, sets: np.ndarray):
    """Policy logits and value estimates, one observation per row of ``obs``
    and ``sets`` naming each row's network: (logits, values), row by row,
    with -inf logits on the padded actions of networks narrower than the
    stack."""
    w1, b1, head, head_bias = stack.gather(sets)
    h = np.matmul(obs[:, None, :], w1)[:, 0]
    h += b1
    out = np.matmul(head, np.tanh(h, out=h)[:, :, None])[:, :, 0]
    out += head_bias
    return out[:, :-1], out[:, -1]


def log_softmax(logits: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Each row's log-softmax, into ``out`` (may be ``logits``) with the
    exponentials in ``scratch``; either is a new array when not given."""
    # positional outs: as keywords they cost sample_rows 1.5% on 10 rows of 7 actions
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out)
    z -= np.log(np.add.reduce(np.exp(z, scratch), axis=-1, keepdims=True))
    return z


def sample_rows(logits: np.ndarray, u: np.ndarray, last: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of ``logits`` from its softmax by inverse
    CDF: row i's action is the number of cumulative probabilities at or
    below its uniform draw ``u[i]``, capped at its last valid action
    ``last[i]``. Returns the actions and their log-probabilities; the same
    draws give the same actions."""
    logp = log_softmax(logits)
    cumulative = np.add.accumulate(np.exp(logp), axis=1)
    actions = np.minimum(np.add.reduce(cumulative <= u[:, None], axis=1), last)
    return actions, logp.take(actions + np.arange(0, logp.size, logp.shape[1]))


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
