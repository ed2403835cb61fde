"""The clipped-surrogate policy update of a ``ParamStack``'s networks.

``ppo_update`` updates S >= 1 networks of one shape at once, each on its own
window with its own sample stream and its own Adam step count, in one
minibatch loop over (S, rows, ...) arrays: every product is a 3-D
``np.matmul`` whose item s is the product the network alone would take, so
each network ends bit for bit where updating it alone would leave it. It
works on each network's own entries, never on a narrower network's padding
(``ParamStack._take``): the surrogate, the scratch, the finiteness check and
the Adam step (``_adam``, a fixed handful of whole-array operations on all
the loop's rows at once) all see rows of the shape's own layout. Every array
of the loop that scales with the rows, the hidden width or the actions lives
in one scratch (``UpdateWork``) allocated per update: the loop allocates no
row-sized or (rows x actions)-sized temporary, so a large head's pages are
neither freed nor faulted in again between minibatches. The loop does only
the arithmetic; everything that depends only on the update, the epoch or the
minibatch size is laid out before it. Per update: each field of the windows
flattened to (S * T, ...) rows, the scratch's views for each minibatch size
(``minibatch_views``; at most two sizes, ``minibatch_size`` and a
remainder), and the Adam step's bias corrections. Per epoch: each network's
permutation as flat row indices, of which a minibatch takes a slice. A
minibatch's five stats are one reduction over their per-row terms, written
into one (5, S) row that is added to the update's totals. The reductions
call the ufuncs' ``reduce`` directly, and entries are picked by one flat
index with ``take``: a minibatch's arrays are small, so much of an
operation's cost is its call.

Two or more networks whose minibatch is wide (``SPLIT_BYTES``), as a
1323-action head's is, are split into two contiguous halves of the S if
numpy's BLAS is an OpenBLAS, whatever its thread count; under any other BLAS
they run unsplit. A wide update sets OpenBLAS to one thread until it
returns, since two halves on a many-thread BLAS would oversubscribe the
cores, and a wide product on two OpenBLAS threads is not always bit for bit
the one-thread one. Each half runs the minibatch loop an unsplit update
runs, on its own networks alone: the calling thread the first half, and a
worker thread, started once and joined once before the update returns, the
second. The numpy calls that carry the cost release the interpreter lock,
so the halves overlap on two cores. The halves meet only at the join: each
writes its own networks' rows, moments and step counts, its own S-slice of
the one scratch, allocated before the worker starts, and its own columns of
the stats' totals, and every network's arithmetic is the one-thread loop's.
A half stops at its own first non-finite minibatch, before that minibatch's
Adam step, while the other half runs on; after the join the first half's
error is raised if it has one, else the second's.
"""

from __future__ import annotations

import ctypes
import threading
from functools import cache
from math import prod
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .neural import (NetParams, NonFiniteLossError, ParamStack, PPOHyper, _blocks, _layout,
                     _unpadded, log_softmax)


class TrainBatch(NamedTuple):
    """One window of T samples, or, each field with a leading window axis,
    several windows of one length (the form ``ppo_update`` takes)."""

    obs: np.ndarray        # (T, in)
    actions: np.ndarray    # (T,) int
    logp_old: np.ndarray   # (T,)
    advantages: np.ndarray  # (T,)
    returns: np.ndarray    # (T,)


STATS = ("objective", "value_loss", "entropy", "clip_fraction", "approx_kl")

# The bytes of one network's (minibatch rows x actions) array from which an
# update of two or more networks runs on two threads. With 64-row minibatches
# and hidden width 64, on a 2-core Xeon with one BLAS thread, two threads took
# 0.56x the one-thread time at 1323 actions (677 kB), 0.92x at 256 (128 kB),
# 1.02x at 192 and 1.31x at 128; twelve 5-action networks (2.5 kB) took 1.66x.
SPLIT_BYTES = 1 << 17


@cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's OpenBLAS's query of how many threads it runs a product on and
    its setter of that count, or None if numpy's BLAS is no OpenBLAS that
    exports both."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        query = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if query is not None and setter is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return query, setter
    return None


def set_one_blas_thread() -> None:
    """Run numpy's OpenBLAS's products on one thread from now on; nothing
    if numpy's BLAS is no OpenBLAS that can be set."""
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)


def on_one_thread_if_wide(stack: ParamStack, call: Callable[..., Any], *args) -> Any:
    """``call(*args)``, on one OpenBLAS thread, the caller's count restored
    after, if the widest head of ``stack`` has one-row logits of
    ``SPLIT_BYTES`` or more: on two threads, OpenBLAS's QR of a 28561-action
    head and its product with one row differ from those on one thread."""
    blas = _openblas_threads() if stack.widest[2] * stack.rows.itemsize >= SPLIT_BYTES else None
    threads = blas[0]() if blas else 1
    if threads == 1:
        return call(*args)
    blas[1](1)
    try:
        return call(*args)
    finally:
        blas[1](threads)


class UpdateWork(NamedTuple):
    """One update's scratch, for S networks of one shape and minibatches of up
    to ``rows`` rows: ``wide`` holds three arrays of (S, rows or hidden,
    actions) or of (S, row width), whichever is larger (the surrogate's
    log-probabilities, probabilities and logit gradients, then the policy
    head's gradient and one finiteness flag per gradient entry, then Adam's two
    intermediates); ``narrow`` three of (S, rows or in-width, hidden) (hidden
    activations, their gradient, and a temporary that ends as the first layer's
    gradient); ``grad`` the networks' gradient rows, in the shape's own layout
    (``neural._layout``), zero-filled; ``terms`` room for the five stats'
    per-row terms, (5, S, rows); and ``stats`` the five stats (``STATS``) of a
    minibatch, (5, S). Each network's part of every field is a contiguous slice
    (``networks``)."""

    wide: np.ndarray
    narrow: np.ndarray
    grad: np.ndarray
    terms: np.ndarray
    stats: np.ndarray

    def networks(self, lo: int, hi: int) -> "UpdateWork":
        """The scratch of networks lo, ..., hi - 1 alone: views of their
        parts of every field."""
        count = len(self.grad)
        wide, narrow, terms = (a.shape[-1] // count
                               for a in (self.wide, self.narrow, self.terms))
        return UpdateWork(self.wide[:, lo * wide:hi * wide],
                          self.narrow[:, lo * narrow:hi * narrow], self.grad[lo:hi],
                          self.terms[lo * terms:hi * terms], self.stats[:, lo:hi])


def update_work(sets: int, shape: tuple[int, int, int], rows: int) -> UpdateWork:
    """``UpdateWork`` for ``sets`` networks of ``shape``, in rows of that
    shape's own layout, and minibatches of up to ``rows`` rows."""
    in_width, hidden, actions = shape
    row_width = _layout(shape)[-1][1]
    wide = sets * max(max(rows, hidden) * actions, row_width)
    narrow = sets * max(rows, in_width) * hidden
    return UpdateWork(np.empty((3, wide)), np.empty((3, narrow)), np.zeros((sets, row_width)),
                      np.empty(len(STATS) * sets * rows), np.empty((len(STATS), sets)))


def minibatch_views(work: UpdateWork, shape: tuple[int, int, int], n: int) -> tuple:
    """The views of ``work``, scratch for S networks of ``shape``, that a
    minibatch of n rows of each reads and writes, laid out once per update
    and minibatch size: ``lp``, ``pr`` and ``dl`` (S, n, actions); ``h``,
    ``d_h`` and ``temp`` (S, n, hidden); ``terms`` (5, S, n); the first
    layer's and the policy head's gradients, (S, in-width, hidden) and (S,
    hidden, actions); and ``offsets``, where row t of network s starts in a
    flattened (S, n, actions) array."""
    in_width, hidden, actions = shape
    count = len(work.grad)
    return (*work.wide[:, :count * n * actions].reshape(3, count, n, actions),
            *work.narrow[:, :count * n * hidden].reshape(3, count, n, hidden),
            _part(work.terms, len(STATS), count, n),
            _part(work.narrow[2], count, in_width, hidden),
            _part(work.wide[0], count, hidden, actions),
            np.arange(0, count * n * actions, actions).reshape(count, n))


def _part(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a 1-D scratch buffer, as a
    contiguous array of ``shape``."""
    return buffer[:prod(shape)].reshape(shape)


def surrogate_objective(params: NetParams, grads: NetParams, minibatch: TrainBatch,
                        hyper: PPOHyper, views: tuple, stats: np.ndarray) -> None:
    """Clipped-surrogate objective and its analytic gradient on a minibatch
    of each of S networks of one shape.

    ``params`` and ``grads`` hold the S networks as NetParams with a leading
    network axis, and ``minibatch`` their minibatches' rows as (S, n, ...)
    arrays. Writes the five stats (``STATS``), each of shape (S,), into the
    rows of ``stats``, and into ``grads`` the gradients, which point in the
    ascent direction of objective = policy surrogate - c_v * value loss +
    c_e * entropy. Network s's results are bit for bit those of computing
    it alone. ``approx_kl`` is the estimator mean((ratio - 1) - log ratio)
    of the KL divergence from the window's policy. Every (rows x hidden)
    and (rows x actions) array lives in the ``views`` of the update's
    scratch for minibatches of n rows (``minibatch_views``).
    """
    x, acts, logp_old, adv, ret = minibatch
    lp, pr, dl, h, d_h, temp, terms, grad_w1, grad_head, offsets = views
    n = offsets.shape[1]
    # the taken actions' entries of a (count, n, actions) array, flattened
    taken = acts + offsets

    np.matmul(x, params.w1, out=h)
    h += params.b1[:, None]
    np.tanh(h, out=h)
    logits = np.matmul(h, params.wp, out=lp)
    logits += params.bp[:, None]
    values = np.matmul(h, params.wv[..., None])[..., 0] + params.bv

    logp_all = log_softmax(logits, lp, pr)  # in place of the logits
    probs = np.exp(logp_all, out=pr)
    logp_act = logp_all.take(taken)
    log_ratio = logp_act - logp_old
    ratio = np.exp(log_ratio)
    # np.clip's bits, without its Python-level wrapper
    clipped = np.minimum(np.maximum(ratio, 1.0 - hyper.clip), 1.0 + hyper.clip)
    surr_unclipped = ratio * adv
    surr_clipped = clipped * adv
    # each stat is the sum of its term over the minibatch / n, as
    # ndarray.mean takes a mean: surrogate, squared value error, entropy,
    # clipped or not, and the KL estimate
    surrogate, value_sq, entropy, clipped_out, kl = terms
    np.minimum(surr_unclipped, surr_clipped, out=surrogate)
    np.negative(np.add.reduce(np.multiply(probs, logp_all, out=dl), axis=-1), out=entropy)
    value_err = values - ret
    np.square(value_err, out=value_sq)
    # The unclipped branch carries gradient whenever it attains the min; a
    # clipped-and-active branch has zero gradient.
    use_unclipped = surr_unclipped <= surr_clipped
    np.logical_not(use_unclipped, out=clipped_out)
    np.subtract(ratio - 1.0, log_ratio, out=kl)
    np.divide(np.add.reduce(terms, axis=-1), n, out=stats)
    objective, value_loss, mean_entropy = stats[:3]
    np.add(objective - hyper.value_coef * value_loss, hyper.entropy_coef * mean_entropy,
           out=objective)

    # d objective / d logits
    coef = np.where(use_unclipped, surr_unclipped, 0.0) / n
    # coef * (one_hot - probs), the one-hot added at the taken actions
    d_logits = np.subtract(0.0, probs, out=dl)
    d_logits.reshape(-1)[taken] += 1.0
    d_logits *= coef[..., None]
    # += -c_e * (probs * (logp_all + entropy)) / n; probs and logp_all are done
    term = np.multiply(probs, np.add(logp_all, entropy[..., None], out=lp), out=pr)
    d_logits += np.divide(np.multiply(-hyper.entropy_coef, term, out=pr), n, out=pr)

    d_values = -2.0 * hyper.value_coef * value_err / n

    np.matmul(d_logits, params.wp.swapaxes(-1, -2), out=d_h)
    d_h += np.multiply(d_values[..., None], params.wv[:, None], out=temp)
    d_z1 = np.multiply(d_h, np.subtract(1.0, np.multiply(h, h, out=temp), out=temp), out=d_h)
    grads.w1[...] = np.matmul(x.swapaxes(-1, -2), d_z1, out=grad_w1)
    grads.b1[...] = np.add.reduce(d_z1, axis=-2)
    # the head's gradient goes through a contiguous array: a product written
    # straight into the transposed head block is not summed in the same order
    grads.wp[...] = np.matmul(h.swapaxes(-1, -2), d_logits, out=grad_head)
    grads.bp[...] = np.add.reduce(d_logits, axis=-2)
    grads.wv[...] = np.matmul(h.swapaxes(-1, -2), d_values[..., None])[..., 0]
    grads.bv[...] = np.add.reduce(d_values, axis=-1, keepdims=True)


def _adam(rows: np.ndarray, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
          step_counts: np.ndarray, lr: float, temp: np.ndarray,
          steps: int) -> Callable[[int], None]:
    """A function whose call with k takes the (k+1)-th of ``steps`` Adam
    ascent steps of ``rows`` along ``grads``, under ``ParamStack``'s betas
    and eps, all in place and every row at once, in the operation order
    m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g; row += lr*m_hat /
    (sqrt(v_hat)+eps), and advances ``step_counts``. Row i's bias
    corrections are the Python floats 1 - b**t of its step count t, as a
    column, all laid out here, once. ``temp`` holds two arrays of the rows'
    shape (or more room), which every intermediate is written into."""
    b1, b2, eps = ParamStack.beta1, ParamStack.beta2, ParamStack.eps
    counts = step_counts.tolist()
    first, second = (np.array([[[1.0 - beta**(t + k)] for t in counts]
                               for k in range(1, steps + 1)]) for beta in (b1, b2))
    step, root = (part[:rows.size].reshape(rows.shape) for part in temp[:2])

    def ascend(k: int) -> None:
        np.add(step_counts, 1, out=step_counts)
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(grads, 1.0 - b1, out=step), out=m)
        np.multiply(v, b2, out=v)
        np.add(v, np.multiply(np.multiply(grads, 1.0 - b2, out=step), grads, out=step), out=v)
        np.multiply(np.divide(m, first[k], out=step), lr, out=step)
        np.add(np.sqrt(np.divide(v, second[k], out=root), out=root), eps, out=root)
        np.add(rows, np.divide(step, root, out=step), out=rows)
    return ascend


def ppo_update(stack: ParamStack, sets: Sequence[int], batch: TrainBatch,
               hyper: PPOHyper, rngs: Sequence[np.random.Generator]) -> list[dict]:
    """Run the clipped-surrogate update of the networks ``sets`` of
    ``stack``, distinct and all of one (in_width, hidden_width, action_count)
    shape, each on its own window, item i of every field of ``batch``, with
    its own stream ``rngs[i]``, in place, on its own entries alone; returns
    each network's aggregate stats. Advances the stack's ``writes``.

    The networks share one minibatch loop, or, in a wide update
    (``SPLIT_BYTES``), each contiguous half of them runs that loop on its own
    thread. Each network ends bit for bit where updating it alone would leave
    it: its own permutations, advantages normalized once over its own window,
    its own stats and its own Adam step count. Each minibatch ends in one Adam
    step (``_adam``) of all the loop's networks at once. A non-finite loss or
    gradient raises NonFiniteLossError naming the first such network of the
    first minibatch that has one, before that minibatch's Adam step moves any
    network of its loop. In a split update each half stops at its own first
    such minibatch while the other runs on, and the first half's error is
    raised, else the second's. No thread outlives the call.
    """
    shape, count = stack.shapes[sets[0]], batch.actions.shape[1]
    if (len(set(sets)) < len(sets) or any(stack.shapes[s] != shape for s in sets)
            or any(field.shape[:2] != (len(sets), count) for field in batch)):
        raise ValueError(f"one update takes distinct networks of one shape and one window "
                         f"each, all of one length, got networks {list(sets)} of shapes "
                         f"{[stack.shapes[s] for s in sets]} and windows of "
                         f"{[field.shape[:2] for field in batch]}")
    adv = batch.advantages
    advantages = (adv - adv.mean(axis=1, keepdims=True)) / (adv.std(axis=1, keepdims=True)
                                                           + 1e-8)
    # network s's row t of a (S, T, ...) field is row s * T + t of its first
    # two axes flattened
    rows_total = len(sets) * count
    obs = batch.obs.reshape(rows_total, batch.obs.shape[2])
    actions = batch.actions.reshape(rows_total)
    floats = [field.reshape(rows_total) for field in (batch.logp_old, advantages, batch.returns)]
    offsets = np.arange(0, rows_total, count)[:, None]

    index, rows, m, v, step_counts = stack._take(np.asarray(sets))
    size, n = hyper.minibatch_size, min(count, hyper.minibatch_size)
    work = update_work(len(sets), shape, n)
    starts = range(0, count, size)
    minibatches = hyper.epochs * len(starts)
    totals = np.zeros((len(STATS), len(sets)))

    def update(lo: int, hi: int) -> None:
        """The update of networks lo, ..., hi - 1 alone, in their part of the
        scratch and of ``totals``; raises the NonFiniteLossError of the first
        of them whose objective or gradient is not finite, before that
        minibatch's Adam step."""
        part = work.networks(lo, hi)
        views = {k: minibatch_views(part, shape, k) for k in {n, count % size} if k}
        params, grads = (_unpadded(_blocks(a, shape), shape) for a in (rows[lo:hi], part.grad))
        stats, objective, total = part.stats, part.stats[0], totals[:, lo:hi]
        # the logit gradients are spent once the surrogate returns
        finite = part.wide[2].view(bool)[:part.grad.size].reshape(part.grad.shape)
        ascend = _adam(rows[lo:hi], part.grad, m[lo:hi], v[lo:hi], step_counts[lo:hi],
                       hyper.learning_rate, part.wide, minibatches)
        for epoch in range(hyper.epochs):
            order = np.stack([rng.permutation(count) for rng in rngs[lo:hi]])
            order += offsets[lo:hi]
            for k, start in enumerate(starts, epoch * len(starts)):
                indices = order[:, start:start + size]
                surrogate_objective(
                    params, grads, TrainBatch(obs.take(indices, axis=0), actions.take(indices),
                                              *[field.take(indices) for field in floats]),
                    hyper, views[indices.shape[1]], stats)
                if not (np.logical_and.reduce(np.isfinite(objective))
                        and np.logical_and.reduce(np.isfinite(part.grad, out=finite), axis=None)):
                    i = int(np.argmin(np.isfinite(objective) & np.isfinite(part.grad).all(1)))
                    raise NonFiniteLossError(
                        f"non-finite update of parameter set {sets[lo + i]}: "
                        f"objective={objective[i]!r}, value_loss={stats[1, i]!r}, "
                        f"batch size {indices.shape[1]}")
                np.add(total, stats, out=total)
                ascend(k)

    # a wide update runs on one OpenBLAS thread, and splits two or more networks
    blas = _openblas_threads() if n * shape[2] * work.wide.itemsize >= SPLIT_BYTES else None
    mid = len(sets) // 2 if blas and len(sets) > 1 else len(sets)
    errors: list[BaseException] = []
    worker = (threading.Thread(target=_worker, args=(update, mid, len(sets), errors),
                               name="ppo_update") if mid < len(sets) else None)
    threads = blas[0]() if blas else 0  # the caller's BLAS thread count, restored after
    try:
        if blas:
            blas[1](1)
        if worker:
            worker.start()
        update(0, mid)
    finally:
        if worker and worker.ident is not None:
            worker.join()
        if blas:
            blas[1](threads)
        stack._put(index, rows, m, v, step_counts)
        stack.writes += 1
    if errors:
        raise errors[0]
    return [{**{key: float(total) / minibatches for key, total in zip(STATS, column)},
             "minibatches": minibatches} for column in totals.T]


def _worker(update: Callable[[int, int], None], lo: int, hi: int,
            errors: list[BaseException]) -> None:
    """A split update's worker thread: ``update(lo, hi)``, appending the
    error it raises, if any, to ``errors``, for the calling thread to raise."""
    try:
        update(lo, hi)
    except BaseException as error:
        errors.append(error)
