"""Networks, sampling, advantage estimation, and the policy update."""

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from marketsched import neural, ppo
from marketsched.agents import ARCH_DIST, ARCH_FULL, build_homes
from marketsched.config import ConfigError
from marketsched.harness import builtin_scenarios
from marketsched.neural import (
    CHECKPOINT_VERSION,
    NetParams,
    NonFiniteLossError,
    ParamStack,
    PPOHyper,
    forward,
    gae,
    init_params,
    log_softmax,
    sample_rows,
)
from marketsched.ppo import (
    STATS,
    TrainBatch,
    minibatch_views,
    ppo_update,
    surrogate_objective,
    update_work,
)
from marketsched.rng import derive_rng

import reference
from helpers import stacked
from reference import forward as unit_forward


def small_stack(seed=0, in_width=4, hidden=8, actions=3):
    """One network, as a stack of one."""
    stack = ParamStack([(in_width, hidden, actions)])
    init_params(stack.views, [derive_rng(seed, 99)])
    return stack


def small_net(seed=0, in_width=4, hidden=8, actions=3):
    return small_stack(seed, in_width, hidden, actions).views[0]


def gradient_rows(stack):
    """A zero-filled gradient array of ``stack``'s row layout, owned by the
    caller, and each network's NetParams of views into it: a fresh stack's,
    zeroed."""
    grads = ParamStack(stack.shapes)
    grads.rows[...] = 0.0
    return grads.rows, grads.views


def minibatch(batch, indices):
    """The rows ``indices`` of every field of ``batch``."""
    return TrainBatch(*(field[indices] for field in batch))


def one_network(params, grads, batch, hyper, indices, work=None):
    """``surrogate_objective`` on the rows ``indices`` of ``batch`` for the
    one network ``params``, its gradient written into ``grads``, in
    ``work`` or a fresh scratch: (objective, stats) as Python floats."""
    shape = (params.in_width, params.w1.shape[1], params.action_count)
    if work is None:
        work = update_work(1, shape, len(indices))
    surrogate_objective(
        NetParams(*(t[None] for _, t in params.tensors())),
        NetParams(*(t[None] for _, t in grads.tensors())),
        stacked(minibatch(batch, indices)), hyper, minibatch_views(work, shape, len(indices)),
        work.stats)
    stats = dict(zip(STATS, work.stats[:, 0].tolist()))
    return stats["objective"], stats


def gradient(params, batch, hyper, indices):
    """``surrogate_objective`` with its gradient written into a fresh gradient
    row: (objective, the gradient views by tensor name, stats)."""
    shape = (params.in_width, params.w1.shape[1], params.action_count)
    grads = gradient_rows(ParamStack([shape]))[1][0]
    objective, stats = one_network(params, grads, batch, hyper, indices)
    return objective, dict(grads.tensors()), stats


def draw(logits, rng):
    """One ``sample_rows`` draw from 1-D ``logits``: (action, logp)."""
    actions, logps = sample_rows(logits[None], np.array([rng.random()]),
                                 np.array([len(logits) - 1]))
    return int(actions[0]), float(logps[0])


class TestForward:
    def test_zero_weights_give_uniform_policy_and_zero_value(self):
        stack = small_stack()
        for _, tensor in stack.views[0].tensors():
            tensor[...] = 0.0
        logits, value = forward(stack, np.ones((1, 4)), np.array([0]))
        assert np.all(logits == 0.0)
        assert value == 0.0

    def test_deterministic(self):
        stack = small_stack()
        obs = derive_rng(1, 0).standard_normal((1, 4))
        logits_a, value_a = forward(stack, obs, np.array([0]))
        logits_b, value_b = forward(stack, obs, np.array([0]))
        assert np.array_equal(logits_a, logits_b) and value_a == value_b

    def test_softmax_normalization(self):
        logits, _ = forward(small_stack(), np.ones((1, 4)) * 0.3, np.array([0]))
        probs = np.exp(log_softmax(logits))
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_stack(), np.ones((1, 5)), np.array([0]))

    def test_one_set_stack_matches_a_gathered_stack(self):
        # one set repeated over the rows and two sets in no run both gather
        # the blocks per row: the products, and so the outputs, are the same
        one = small_stack(seed=3)
        two = ParamStack([(4, 8, 3), (4, 8, 3)])
        two.rows[...] = one.rows[0]
        obs = derive_rng(3, 1).standard_normal((5, 4))
        for got, want in zip(forward(one, obs, np.zeros(5, dtype=int)),
                             forward(two, obs, np.array([0, 1, 1, 0, 1]))):
            assert np.array_equal(got, want)


    def test_a_run_of_sets_reads_the_bytes_the_gather_reads(self):
        # rows of the sets lo, lo+1, ... read a view of the blocks; any other
        # sets gather them per row. Both give each row its own set's bytes.
        stack = ParamStack([(4, 8, 3), (3, 8, 2), (4, 6, 3), (4, 8, 3), (2, 8, 3), (4, 8, 1)])
        init_params(stack.views, [derive_rng(5, index) for index in range(6)])
        obs = derive_rng(5, 9).standard_normal((4, 4))

        def gathered(sets):
            """Row i of ``forward`` on ``sets``, each row taken through the
            gather: sets[i] paired with another set, in no run."""
            rows = [forward(stack, obs[[i, i]], np.array([s, (s + 2) % 6]))
                    for i, s in enumerate(sets)]
            return np.concatenate([l[:1] for l, _ in rows]), np.array([v[0] for _, v in rows])

        for sets in ([1, 2, 3, 4], [0, 1], [5], [2, 5, 5, 5], [3, 1, 2], [4, 4]):
            sets = np.array(sets)
            got = forward(stack, obs[:len(sets)], sets)
            for got_part, want_part in zip(got, gathered(sets)):
                assert got_part.tobytes() == want_part.tobytes(), sets
        one = small_stack(seed=3)
        two = ParamStack([(4, 8, 3), (4, 8, 3)])
        two.rows[1] = one.rows[0]
        logits, values = forward(one, obs[:1], np.array([0]))
        want_logits, want_values = forward(two, obs[[0, 0]], np.array([1, 0]))
        assert logits.tobytes() == want_logits[:1].tobytes()
        assert values.tobytes() == want_values[:1].tobytes()


    def test_gathered_rows_are_kept_until_the_writes_count_moves(self):
        stack = ParamStack([(4, 8, 3)] * 3)
        init_params(stack.views, [derive_rng(7, index) for index in range(3)])
        obs = derive_rng(7, 9).standard_normal((3, 4))
        sets = np.array([2, 0, 2])
        assert not any(np.shares_memory(block, stack.rows) for block in stack.gather(sets))
        assert all(np.shares_memory(block, stack.rows)
                   for block in stack.gather(np.array([0, 1, 2])))
        before = forward(stack, obs, sets)
        stack.views[2].w1 += 1.0  # an in-place write that does not advance writes
        for got, kept in zip(forward(stack, obs, sets), before):
            assert got.tobytes() == kept.tobytes()
        stack.writes += 1
        after = forward(stack, obs, sets)
        fresh = ParamStack([(4, 8, 3)] * 3)
        fresh.rows[...] = stack.rows
        for got, want in zip(after, forward(fresh, obs, sets)):
            assert got.tobytes() == want.tobytes()
        assert not np.array_equal(after[1], before[1])


class TestSample:
    def test_near_degenerate_distribution(self):
        rng = derive_rng(2, 0)
        logits = np.array([30.0, -30.0])
        draws = [draw(logits, rng)[0] for _ in range(10_000)]
        assert np.mean(np.array(draws) == 0) >= 0.999

    def test_uniform_frequencies_within_three_sigma(self):
        rng = derive_rng(3, 0)
        n, k = 100_000, 4
        actions, _ = sample_rows(np.zeros((n, k)), rng.random(n), np.full(n, k - 1))
        counts = np.bincount(actions, minlength=k)
        p = 1 / k
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_reproducible_given_stream_state(self):
        logits = np.array([0.3, -0.2, 1.1])
        a = [draw(logits, derive_rng(4, 0))[0] for _ in range(10)]
        b = [draw(logits, derive_rng(4, 0))[0] for _ in range(10)]
        assert a == b

    def test_logp_matches_drawn_action(self):
        logits = np.array([0.5, -1.0, 2.0])
        action, logp = draw(logits, derive_rng(5, 0))
        assert logp == pytest.approx(log_softmax(logits)[action])


class TestGae:
    def test_lambda_zero_reduces_to_td_error(self):
        rng = derive_rng(6, 0)
        r, v = rng.standard_normal(10), rng.standard_normal(10)
        boot = 0.7
        adv, _ = gae(r, v, boot, discount=0.9, lam=0.0)
        next_v = np.append(v[1:], boot)
        assert np.allclose(adv, r + 0.9 * next_v - v)

    def test_gamma_zero_is_reward_minus_value(self):
        rng = derive_rng(6, 1)
        r, v = rng.standard_normal(10), rng.standard_normal(10)
        adv, _ = gae(r, v, 0.0, discount=1e-12, lam=0.95)
        assert np.allclose(adv, r - v, atol=1e-10)

    def test_matches_direct_summation_oracle(self):
        rng = derive_rng(6, 2)
        n, discount, lam = 12, 0.97, 0.9
        r, v = rng.standard_normal(n), rng.standard_normal(n)
        boot = float(rng.standard_normal())
        adv, ret = gae(r, v, boot, discount, lam)
        next_v = np.append(v[1:], boot)
        delta = r + discount * next_v - v
        for t in range(n):
            direct = sum((discount * lam) ** k * delta[t + k] for k in range(n - t))
            assert adv[t] == pytest.approx(direct, abs=1e-10)
        assert np.allclose(ret, adv + v)


def make_batch(params, n, seed=7, jitter=0.05):
    """Batch whose old log-probabilities keep every ratio inside the clip
    band, so the surrogate is smooth for finite differences."""
    rng = derive_rng(seed, 0)
    obs = rng.standard_normal((n, params.in_width))
    acts = rng.integers(0, params.action_count, n)
    logp_old = np.array(
        [log_softmax(unit_forward(params, o)[0])[a] for o, a in zip(obs, acts)])
    logp_old += rng.uniform(-jitter, jitter, n)
    adv = rng.standard_normal(n)
    ret = rng.standard_normal(n)
    return TrainBatch(obs, np.asarray(acts, dtype=np.intp), logp_old, adv, ret)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        params = small_net(seed=11)
        batch = make_batch(params, 64)
        hyper = PPOHyper()
        idx = np.arange(64)
        _, grads, _ = gradient(params, batch, hyper, idx)
        eps = 1e-6
        worst = 0.0
        for name, tensor in params.tensors():
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                keep = tensor[ix]
                tensor[ix] = keep + eps
                up = gradient(params, batch, hyper, idx)[0]
                tensor[ix] = keep - eps
                down = gradient(params, batch, hyper, idx)[0]
                tensor[ix] = keep
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grads[name][ix]), 1e-8)
                worst = max(worst, abs(fd - grads[name][ix]) / denom)
        assert worst < 1e-4

    def test_clipped_ratio_contributes_zero_gradient(self):
        # old log-probs far below current ones push every ratio above
        # 1 + clip; with positive advantages the clipped branch is active
        # and the policy gradient through the logits must vanish.
        params = small_net(seed=12)
        rng = derive_rng(12, 1)
        n = 16
        obs = rng.standard_normal((n, 4))
        acts = rng.integers(0, 3, n)
        logp_now = np.array(
            [log_softmax(unit_forward(params, o)[0])[a] for o, a in zip(obs, acts)])
        batch = TrainBatch(obs, np.asarray(acts, dtype=np.intp),
                           logp_now - 2.0, np.ones(n), np.zeros(n))
        hyper = PPOHyper(entropy_coef=0.0, value_coef=0.0)
        _, grads, stats = gradient(params, batch, hyper, np.arange(n))
        assert stats["clip_fraction"] == 1.0
        for name in ("wp", "bp"):
            assert np.all(grads[name] == 0.0)

    def test_shared_work_gives_the_same_bits(self):
        # one scratch serves an update's minibatches of every size: what an
        # earlier one left in it must not reach the next
        params = small_net(seed=14)
        batch = make_batch(params, 48, seed=14)
        hyper = PPOHyper()
        shape = (params.in_width, params.w1.shape[1], params.action_count)
        work = update_work(1, shape, 32)
        for part in work:
            part.fill(np.nan)
        for idx in (np.arange(32), np.arange(32, 48), np.arange(0, 48, 3)):
            fresh_objective, fresh_grads, fresh_stats = gradient(params, batch, hyper, idx)
            grads = gradient_rows(ParamStack([shape]))[1][0]
            objective, stats = one_network(params, grads, batch, hyper, idx, work)
            assert objective == fresh_objective and stats == fresh_stats
            for name, tensor in grads.tensors():
                assert tensor.tobytes() == fresh_grads[name].tobytes()

    def test_approx_kl_is_zero_on_the_policy_that_drew_the_window(self):
        params = small_net(seed=27)
        hyper = PPOHyper()
        on_policy = make_batch(params, 64, seed=27, jitter=0.0)
        assert gradient(params, on_policy, hyper, np.arange(64))[2]["approx_kl"] < 1e-12
        off_policy = make_batch(params, 64, seed=27, jitter=0.05)
        assert gradient(params, off_policy, hyper, np.arange(64))[2]["approx_kl"] > 1e-6

    def test_zero_advantages_give_zero_policy_gradient(self):
        params = small_net(seed=13)
        batch = make_batch(params, 32, seed=13, jitter=0.0)
        batch = batch._replace(advantages=np.zeros(32))
        hyper = PPOHyper(entropy_coef=0.0)
        _, grads, _ = gradient(params, batch, hyper, np.arange(32))
        assert np.all(grads["wp"] == 0.0) and np.all(grads["bp"] == 0.0)
        # value loss still trains the trunk and value head
        assert np.any(grads["wv"] != 0.0)


class TestPpoUpdate:
    def test_tiny_learning_rate_barely_moves_parameters(self):
        stack = small_stack(seed=14)
        params = stack.views[0]
        before = NetParams(*(t.copy() for _, t in params.tensors()))
        batch = make_batch(params, 64, seed=14)
        hyper = PPOHyper(learning_rate=1e-6)
        ppo_update(stack, [0], stacked(batch), hyper, [derive_rng(14, 2)])
        for (_, now), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.max(np.abs(now - old)) < 1e-3

    def test_update_improves_surrogate_on_batch(self):
        stack = small_stack(seed=15)
        params = stack.views[0]
        batch = make_batch(params, 128, seed=15)
        hyper = PPOHyper(learning_rate=3e-3, epochs=8)
        before = gradient(params, batch, hyper, np.arange(128))[0]
        ppo_update(stack, [0], stacked(batch), hyper, [derive_rng(15, 2)])
        after = gradient(params, batch, hyper, np.arange(128))[0]
        assert after > before

    def test_parameters_stay_finite_under_fuzz(self):
        stack = small_stack(seed=16)
        params = stack.views[0]
        rng = derive_rng(16, 3)
        hyper = PPOHyper(learning_rate=1e-2, epochs=1, minibatch_size=32)
        for _ in range(60):
            batch = make_batch(params, 32, seed=int(rng.integers(1 << 30)))
            ppo_update(stack, [0], stacked(batch), hyper, [rng])
            for _, tensor in params.tensors():
                assert np.all(np.isfinite(tensor))

    def test_non_finite_loss_aborts(self):
        stack = small_stack(seed=17)
        params = stack.views[0]
        batch = make_batch(params, 16, seed=17)
        batch = batch._replace(returns=np.full(16, np.nan))
        with pytest.raises(NonFiniteLossError):
            ppo_update(stack, [0], stacked(batch), PPOHyper(), [derive_rng(17, 2)])

    @pytest.mark.parametrize("field", ["returns", "obs"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_minibatch_leaves_the_row_byte_identical(self, field):
        # an infinite return makes the objective non-finite; one infinite
        # observation entry saturates its hidden units, so the objective
        # stays finite and only the w1 gradient (inf * 0) is not
        stack = small_stack(seed=23)
        batch = make_batch(stack.views[0], 16, seed=23)
        bad = getattr(batch, field).copy()
        bad.flat[3] = np.inf
        before = stack.rows.tobytes()
        with pytest.raises(NonFiniteLossError):
            ppo_update(stack, [0], stacked(batch._replace(**{field: bad})), PPOHyper(),
                       [derive_rng(23, 2)])
        assert stack.rows.tobytes() == before


def two_set_stack():
    """A stack whose second network is narrower than the first in every width."""
    stack = ParamStack([(6, 8, 5), (4, 5, 3)])
    init_params(stack.views, [derive_rng(24, i) for i in range(2)])
    return stack


class TestAdamRow:
    def test_in_place_step_matches_the_per_tensor_formula(self):
        stack = two_set_stack()
        rng = derive_rng(25, 0)
        b1, b2, eps, lr = ParamStack.beta1, ParamStack.beta2, ParamStack.eps, 1e-2
        grads, grad_views = gradient_rows(stack)
        for i in range(2):
            ref = {name: t.copy() for name, t in stack.views[i].tensors()}
            m = {name: np.zeros(t.shape) for name, t in ref.items()}
            v = {name: np.zeros(t.shape) for name, t in ref.items()}
            ascend = ppo._adam(*(a[i:i + 1] for a in (stack.rows, grads, stack.m, stack.v,
                                                      stack.step_counts)),
                               lr, np.empty((2, grads[i].size)), 20)
            for step in range(1, 21):
                for _, g in grad_views[i].tensors():
                    g[...] = rng.standard_normal(g.shape)
                ascend(step - 1)
                assert stack.steps[i] == step
                for name, g in grad_views[i].tensors():
                    m[name] = b1 * m[name] + (1.0 - b1) * g
                    v[name] = b2 * v[name] + (1.0 - b2) * g * g
                    m_hat = m[name] / (1.0 - b1**step)
                    v_hat = v[name] / (1.0 - b2**step)
                    ref[name] += lr * m_hat / (np.sqrt(v_hat) + eps)
                for name, tensor in stack.views[i].tensors():
                    assert np.array_equal(tensor, ref[name]), (i, step, name)

    def test_update_leaves_the_padding_fixed(self):
        stack = two_set_stack()
        # the padding of row 1: what a fresh stack holds where row 1's views
        # do not reach (0 weights, -inf logit biases)
        probe = ParamStack([(6, 8, 5), (4, 5, 3)])
        for _, tensor in probe.views[1].tensors():
            tensor[...] = np.nan
        padding = ~np.isnan(probe.rows[1])
        assert np.isneginf(probe.rows[1][padding]).any()
        wide, narrow = stack.rows[0].copy(), stack.rows[1].copy()
        batch = make_batch(stack.views[1], 64, seed=26)
        ppo_update(stack, [1], stacked(batch), PPOHyper(learning_rate=1e-2),
                   [derive_rng(26, 2)])
        assert not np.array_equal(stack.rows[1][~padding], narrow[~padding])
        assert np.array_equal(stack.rows[1][padding], probe.rows[1][padding])
        assert np.array_equal(stack.rows[0], wide)
        for padded in (stack.m[1], stack.v[1]):
            assert np.all(padded[padding] == 0.0)


def home_sets(scenario_name, arch, prefix, seed):
    """The ParamStack of a scenario's home under ``arch`` and its rows whose
    parameter-set keys start with ``prefix``, in row order."""
    scenario = builtin_scenarios()[scenario_name]
    (home,) = build_homes((arch,) * scenario.env.num_agents, scenario.env, scenario.hyper,
                          seed)
    sets = [i for i, name in enumerate(home.names) if name.split("/")[1].startswith(prefix)]
    return home.stack, sets


def state(stack):
    return [stack.rows.tobytes(), stack.m.tobytes(), stack.v.tobytes(), stack.steps]


def set_state(stack, s):
    """``state`` of set ``s`` alone."""
    return [stack.rows[s].tobytes(), stack.m[s].tobytes(), stack.v[s].tobytes(),
            stack.steps[s]]


def split_updates(monkeypatch, split_bytes=ppo.SPLIT_BYTES):
    """Count the updates that run on two threads, with ``ppo.SPLIT_BYTES``
    set to ``split_bytes`` (by default its own value): a list that gains,
    per such update, the thread count its worker sees as it starts."""
    monkeypatch.setattr(ppo, "SPLIT_BYTES", split_bytes)
    calls, worker = [], ppo._worker

    def counted(*args):
        calls.append(threading.active_count())
        worker(*args)
    monkeypatch.setattr(ppo, "_worker", counted)
    return calls


# ppo.SPLIT_BYTES settings that put every update of two or more networks on
# two threads, or every update on one
TWO_THREADS, ONE_THREAD = 0, float("inf")
# an update splits only where numpy's BLAS is an OpenBLAS, which it can set
# to one thread while it runs
SPLITS = ppo._openblas_threads() is not None


@contextmanager
def one_blas_thread_if_openblas():
    """numpy's OpenBLAS, if that is its BLAS, on one thread, then on as many
    as before. A wide update runs on one BLAS thread whatever the caller's
    count, and OpenBLAS's product of a 1323-wide head on two threads is not
    always bit for bit its product on one: an update and its reference are
    compared on one."""
    blas = ppo._openblas_threads()
    threads = blas[0]() if blas else 0
    if blas:
        blas[1](1)
    try:
        yield
    finally:
        if blas:
            blas[1](threads)


# Run in a fresh process, whose BLAS thread count comes from its environment:
# with "update", a two-network FULL update, printing the caller's BLAS thread
# count, the thread and BLAS thread count of each half's first surrogate, then
# the caller's count again; with "non-finite", the same of an update that
# raises; with "record", the record of a 300-step FULL run.
BLAS_PROBE = """
import sys
import threading
from dataclasses import replace
import numpy as np
from marketsched import ppo
from marketsched.agents import ARCH_FULL, build_homes
from marketsched.harness import builtin_scenarios, run_scenario
from marketsched.neural import NonFiniteLossError
from marketsched.rng import derive_rng
base = builtin_scenarios()["EXP2_ARCH_2X2"]
full = replace(base, arch=(ARCH_FULL,) * base.env.num_agents, total_steps=300, window=100,
               hyper=replace(base.hyper, rollout_length=64))
threads, _ = ppo._openblas_threads()
seen, surrogate = {}, ppo.surrogate_objective
def counted(*args):
    seen.setdefault(threading.current_thread().name, threads())
    return surrogate(*args)
ppo.surrogate_objective = counted
for check in sys.argv[1:]:
    if check == "record":
        ppo.surrogate_objective = surrogate
        print(repr(run_scenario(full, 1)))
        continue
    (home,) = build_homes(full.arch, full.env, full.hyper, 31)
    rng = derive_rng(32, 0)
    width, rows = home.stack.shapes[0][0], (2, 64)
    returns = rng.standard_normal(rows)
    if check == "non-finite":
        returns[1, 3] = np.inf
    batch = ppo.TrainBatch(rng.standard_normal((*rows, width)),
                           rng.integers(0, home.stack.shapes[0][2], rows),
                           np.full(rows, -7.0), rng.standard_normal(rows), returns)
    seen.clear()
    print(f"before:{threads()}", end=" ")
    try:
        ppo.ppo_update(home.stack, [0, 1], batch, full.hyper, [derive_rng(33, 0),
                                                               derive_rng(33, 1)])
        print(*sorted(f"{name}:{count}" for name, count in seen.items()), end=" ")
    except NonFiniteLossError:
        print("NonFiniteLossError", end=" ")
    print(f"after:{threads()}")
"""


class TestStackedUpdate:
    """``ppo_update`` on several networks against the reference updating
    them one at a time, each with its own window and stream."""

    def assert_matches_one_at_a_time(self, scenario_name, arch, prefix, hyper, size,
                                     warm=()):
        together, sets = home_sets(scenario_name, arch, prefix, seed=31)
        alone, _ = home_sets(scenario_name, arch, prefix, seed=31)
        assert len(set(together.shapes[s] for s in sets)) == 1
        for stack in (together, alone):
            # Adam moments and step counts that differ from set to set, in
            # each set's own entries: no update writes the padding's moments,
            # and load rejects any but 0
            for s, steps in zip(sets, warm):
                own = neural._columns(stack.shapes[s], stack.widest)
                stack.m[s, own] = derive_rng(32, s).standard_normal(len(own)) * 1e-3
                stack.v[s, own] = derive_rng(33, s).random(len(own)) * 1e-6
                stack.step_counts[s] = steps
        batches = [make_batch(together.views[s], size, seed=34 + s) for s in sets]
        with one_blas_thread_if_openblas():
            stats = ppo_update(together, sets, stacked(*batches), hyper,
                               [derive_rng(35, s) for s in sets])
            wants = [reference.ppo_update(alone, s, batch, hyper, derive_rng(35, s))
                     for s, batch in zip(sets, batches)]
        for s, got, want in zip(sets, stats, wants):
            assert {key: got[key] for key in want} == want, s
        for name in ("rows", "m", "v"):
            assert getattr(together, name).tobytes() == getattr(alone, name).tobytes(), name
        assert together.steps == alone.steps
        assert all(together.steps[s] > steps for s, steps in zip(sets, warm))

    @pytest.mark.parametrize("split_bytes", [ppo.SPLIT_BYTES, TWO_THREADS],
                             ids=["one-thread", "two-threads"])
    def test_the_offer_sets_of_a_dist_home(self, split_bytes, monkeypatch):
        # 12 sets of one shape, 3 per agent between the agents' accept sets,
        # narrower than the row: the update takes their own entries and puts
        # them back; Adam steps all the sets of a minibatch loop at once;
        # their 5-action minibatches are narrow, so they go on one thread
        # unless made to split into sets 0-5 and 6-11
        stack, sets = home_sets("EXP2_ARCH_4X4", ARCH_DIST, "offer", seed=31)
        assert len(sets) == 12 and sets != list(range(sets[0], sets[0] + 12))
        assert stack.shapes[sets[0]] != max(stack.shapes)
        split = split_updates(monkeypatch, split_bytes)
        self.assert_matches_one_at_a_time(
            "EXP2_ARCH_4X4", ARCH_DIST, "offer", PPOHyper(minibatch_size=16, epochs=2),
            size=40, warm=(0, 3, 1, 7, 2, 0, 5, 1, 0, 9, 4, 2))
        assert len(split) == (SPLITS and split_bytes == TWO_THREADS)

    def test_the_full_sets_of_a_home_are_a_run(self, monkeypatch):
        stack, sets = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=31)
        assert sets == [0, 1] and stack.shapes[0] == (69, 64, 1323)
        # minibatches of 24 rows only, then of 24 and a remainder of 16: the
        # update lays out its scratch once for each size; their 1323-action
        # minibatches are wide, so each set goes on its own thread, unless
        # made to stay on one
        for split_bytes, splits in ((ppo.SPLIT_BYTES, 2 * SPLITS), (ONE_THREAD, 0)):
            split = split_updates(monkeypatch, split_bytes)
            for size in (48, 40):
                self.assert_matches_one_at_a_time(
                    "EXP2_ARCH_2X2", ARCH_FULL, "full", PPOHyper(minibatch_size=24, epochs=2),
                    size=size)
            assert len(split) == splits

    @pytest.mark.parametrize("scenario_name, arch, prefix, width, views", [
        ("EXP2_ARCH_4X4", ARCH_DIST, "offer", 358, False),
        ("EXP2_ARCH_2X2", ARCH_FULL, "full", 90540, True)])
    def test_an_update_works_on_each_networks_own_entries(self, scenario_name, arch, prefix,
                                                         width, views, monkeypatch):
        # the 12 offer sets (15, 16, 5) of a DIST home own 358 of their
        # row's 1070 entries, and the scratch and the Adam step hold those
        # alone; the two FULL sets fill their rows and are a run, so Adam
        # steps views of the stack's rows
        stack, sets = home_sets(scenario_name, arch, prefix, seed=46)
        assert neural._columns(stack.shapes[sets[0]], stack.widest).size == width
        works, steps = [], []
        work_for, adam = ppo.update_work, ppo._adam

        def recorded_work(*args):
            work = work_for(*args)
            works.append(work.grad.shape)
            return work

        def recorded_adam(rows, *args):
            steps.append((rows.shape, rows.base is stack.rows))
            return adam(rows, *args)
        monkeypatch.setattr(ppo, "update_work", recorded_work)
        monkeypatch.setattr(ppo, "_adam", recorded_adam)
        split_updates(monkeypatch, ONE_THREAD)
        batches = [make_batch(stack.views[s], 16, seed=47 + s) for s in sets]
        ppo_update(stack, sets, stacked(*batches), PPOHyper(epochs=1),
                   [derive_rng(48, s) for s in sets])
        assert works == [(len(sets), width)]
        assert steps == [((len(sets), width), views)]

    def test_sets_whose_adam_step_counts_differ(self):
        self.assert_matches_one_at_a_time(
            "EXP2_ARCH_4X4", ARCH_DIST, "accept", PPOHyper(minibatch_size=32, epochs=3),
            size=32, warm=(0, 5, 1, 40, 2, 0, 7, 3, 0, 11, 0, 4, 9, 0, 6, 1))

    @pytest.mark.parametrize("scenario_name, arch, prefix", [
        ("EXP2_ARCH_4X4", ARCH_DIST, "offer"), ("EXP2_ARCH_2X2", ARCH_FULL, "full")])
    def test_each_sets_gradient_is_the_one_network_surrogates(self, scenario_name, arch,
                                                              prefix):
        # one stacked surrogate call writes each set's gradient into its row
        # of the update's zero-filled scratch, in its shape's own layout:
        # the padded row's own entries (``neural._columns``); the rest is 0
        stack, sets = home_sets(scenario_name, arch, prefix, seed=40)
        assert len(sets) == (12 if arch == ARCH_DIST else 2)
        hyper, shape, size = PPOHyper(), stack.shapes[sets[0]], 24
        batches = [make_batch(stack.views[s], 40, seed=41 + s) for s in sets]
        indices = np.stack([derive_rng(42, s).permutation(40)[:size] for s in sets])
        work = update_work(len(sets), shape, size)
        _, rows, *_ = stack._take(np.asarray(sets))
        params, grads = (neural._unpadded(neural._blocks(a, shape), shape)
                         for a in (rows, work.grad))
        surrogate_objective(params, grads, stacked(*map(minibatch, batches, indices)), hyper,
                            minibatch_views(work, shape, size), work.stats)
        want, views = gradient_rows(stack)
        own = neural._columns(shape, stack.widest)
        padding = np.ones(want.shape[1], dtype=bool)
        padding[own] = False
        for i, s in enumerate(sets):
            _, want_stats = reference.surrogate_objective(stack.views[s], views[s], batches[i],
                                                          hyper, indices[i])
            assert dict(zip(STATS, work.stats[:, i].tolist())) == want_stats, s
            assert work.grad[i].tobytes() == want[s, own].tobytes(), s
            assert not want[s, padding].any(), s

    @pytest.mark.parametrize("scenario_name, arch, prefix", [
        ("EXP2_ARCH_4X4", ARCH_DIST, "offer"), ("EXP2_ARCH_2X2", ARCH_FULL, "full")])
    @pytest.mark.parametrize("field", ["returns", "obs"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_set_names_itself_and_moves_no_set(self, scenario_name, arch, prefix,
                                                          field, monkeypatch):
        _, sets = home_sets(scenario_name, arch, prefix, seed=36)
        last, middle, mid = len(sets) - 1, len(sets) // 2 - 1, len(sets) // 2
        threads = threading.active_count()
        for split_bytes in (ONE_THREAD, TWO_THREADS):
            split = split_updates(monkeypatch, split_bytes)
            splits = SPLITS and split_bytes == TWO_THREADS
            halves = [sets[:mid], sets[mid:]] if splits else [sets]
            # the last set, the 12th of 12 or the 2nd of 2, in the second half;
            # one in the middle, the 6th of 12 or the 1st of 2, in the first;
            # and both, which names the one in the middle
            for bad_sets in ([last], [middle], [middle, last]):
                stack, _ = home_sets(scenario_name, arch, prefix, seed=36)
                alone, _ = home_sets(scenario_name, arch, prefix, seed=36)
                batches = {s: make_batch(stack.views[s], 16, seed=37 + s) for s in sets}
                for s in (sets[i] for i in bad_sets):
                    bad = getattr(batches[s], field).copy()
                    bad.flat[3] = np.inf
                    batches[s] = batches[s]._replace(**{field: bad})
                before = state(stack)
                named = f"parameter set {sets[bad_sets[0]]}:"
                with pytest.raises(NonFiniteLossError, match=named):
                    ppo_update(stack, sets, stacked(*batches.values()), PPOHyper(),
                               [derive_rng(38, s) for s in sets])
                assert threading.active_count() == threads
                # a half with a bad set stops at its one minibatch of 16 rows,
                # before its Adam step; the other ends where updating it alone
                # on one thread leaves it
                good = [half for half in halves if not {sets[i] for i in bad_sets} & {*half}]
                with monkeypatch.context() as patch, one_blas_thread_if_openblas():
                    patch.setattr(ppo, "SPLIT_BYTES", ONE_THREAD)
                    for half in good:
                        ppo_update(alone, half, stacked(*(batches[s] for s in half)),
                                   PPOHyper(), [derive_rng(38, s) for s in half])
                assert state(stack) == state(alone)
                assert (state(stack) == before) == (not good)
            # one worker beside the threads there were before
            assert split == ([threads + 1] * 3 if splits else [])

    @pytest.mark.skipif(not SPLITS, reason="numpy's BLAS is no OpenBLAS: no update splits")
    @pytest.mark.parametrize("fails", ["surrogate", "first step", "last step"])
    def test_an_error_in_the_second_half_alone_is_raised_after_the_first_half_ends(
            self, fails, monkeypatch):
        # 16-row windows: 4 epochs of one minibatch each
        stack, sets = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=43)
        alone, _ = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=43)
        threads = threading.active_count()
        split = split_updates(monkeypatch)

        def off_the_main_thread(function, fails_on):
            def call(*args):
                if threading.current_thread() is not threading.main_thread() and fails_on(*args):
                    raise MemoryError(f"second half's {fails}")
                return function(*args)
            return call
        if fails == "surrogate":
            monkeypatch.setattr(ppo, "surrogate_objective",
                                off_the_main_thread(ppo.surrogate_objective, lambda *_: True))
        else:
            adam, step = ppo._adam, 0 if fails == "first step" else 3
            monkeypatch.setattr(ppo, "_adam", lambda *args: off_the_main_thread(
                adam(*args), lambda k: k == step))
        batches = [make_batch(stack.views[s], 16, seed=44 + s) for s in sets]
        with pytest.raises(MemoryError, match=f"second half's {fails}"):
            ppo_update(stack, sets, stacked(*batches), PPOHyper(),
                       [derive_rng(45, s) for s in sets])
        assert split == [threads + 1]
        assert threading.active_count() == threads
        # the first half's set ends where updating it alone leaves it; the
        # second's stops where its error is raised: before any Adam step, or
        # after three
        with one_blas_thread_if_openblas():
            ppo_update(alone, sets[:1], stacked(batches[0]), PPOHyper(), [derive_rng(45, sets[0])])
        (s, t), fourth = sets, fails == "last step"
        assert set_state(stack, s) == set_state(alone, s)
        assert set_state(stack, t)[-1] == 3 * fourth
        assert (set_state(stack, t) == set_state(alone, t)) != fourth

    @pytest.mark.skipif(not SPLITS, reason="numpy's BLAS is no OpenBLAS: no update splits")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_when_both_halves_fail_the_first_halfs_set_is_named(self, monkeypatch):
        # 64-row windows in minibatches of 16: every row of the second set's
        # window is non-finite, so its half stops at its first minibatch; one
        # row of the first set's is, the last its first epoch draws, so its
        # half stops at its fourth, after three Adam steps
        stack, sets = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=52)
        threads = threading.active_count()
        split = split_updates(monkeypatch, TWO_THREADS)
        first, second = (make_batch(stack.views[s], 64, seed=53 + s) for s in sets)
        returns = first.returns.copy()
        returns[derive_rng(54, sets[0]).permutation(64)[-1]] = np.inf
        batch = stacked(first._replace(returns=returns),
                        second._replace(returns=np.full(64, np.inf)))
        with pytest.raises(NonFiniteLossError, match=f"parameter set {sets[0]}:"):
            ppo_update(stack, sets, batch, PPOHyper(minibatch_size=16),
                       [derive_rng(54, s) for s in sets])
        assert split == [threads + 1]
        assert stack.steps == [3, 0]

    @pytest.mark.skipif(not SPLITS, reason="numpy's BLAS is no OpenBLAS: no update splits")
    def test_a_split_update_repeated_in_one_process_gives_the_same_bits(self, monkeypatch):
        # a race between the halves can pass a test that runs each update
        # once per process: the same two-network FULL update, from the same
        # state, 10 times in one; its 256-row windows are 16 minibatches of
        # 64, at each of which the halves meet
        stack, sets = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=49)
        split = split_updates(monkeypatch, TWO_THREADS)
        batch = stacked(*(make_batch(stack.views[s], 256, seed=50 + s) for s in sets))
        fields = (stack.rows, stack.m, stack.v, stack.step_counts)
        saved = [field.copy() for field in fields]
        runs = []
        for _ in range(10):
            for field, value in zip(fields, saved):
                field[...] = value
            stats = ppo_update(stack, sets, batch, PPOHyper(), [derive_rng(51, s) for s in sets])
            runs.append(state(stack) + [np.array([list(one.values()) for one in stats]).tobytes()])
        assert len(split) == 10
        assert all(run == runs[0] for run in runs[1:])

    @staticmethod
    def blas_probe(threads, *checks):
        """The lines BLAS_PROBE prints for ``checks`` in a fresh process
        under ``threads`` OpenBLAS threads."""
        src = str(Path(ppo.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", BLAS_PROBE, *checks], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120).stdout.splitlines()

    @pytest.mark.skipif(not SPLITS, reason="numpy's BLAS is no OpenBLAS")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_split_reads_the_blas_thread_count(self, threads):
        # the update reads the caller's count, runs both halves on one BLAS
        # thread, and sets the count it read back, whatever it was
        (line,) = self.blas_probe(threads, "update")
        before, split = line.split(" ", 1)
        assert split == f"MainThread:1 ppo_update:1 after:{before.split(':')[1]}"

    @pytest.mark.skipif(not SPLITS, reason="numpy's BLAS is no OpenBLAS")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS takes one thread a core")
    def test_a_split_runs_on_one_blas_thread_and_restores_the_callers(self):
        # one process under two BLAS threads at a time: the update's worker
        # is the only thread it starts beside OpenBLAS's own
        split, raised, record = self.blas_probe(2, "update", "non-finite", "record")
        # both halves' surrogates ran on one BLAS thread, and the caller's
        # two came back after the update, and after the one that raised
        assert split == "before:2 MainThread:1 ppo_update:1 after:2"
        assert raised == "before:2 NonFiniteLossError after:2"
        assert record == self.blas_probe(1, "record")[0]

    def test_repeated_sets_two_shapes_or_two_window_lengths_are_rejected(self):
        stack = two_set_stack()
        rngs = [derive_rng(39, 0), derive_rng(39, 1)]
        window = make_batch(stack.views[0], 16, seed=39)
        with pytest.raises(ValueError, match="one shape"):
            ppo_update(stack, [0, 1], stacked(window, window), PPOHyper(), rngs)
        stack = ParamStack([(4, 8, 3), (4, 8, 3)])
        window = make_batch(stack.views[0], 16, seed=39)
        two = stacked(window, window)
        # a repeated set; 16 observations but 8 actions a window; one window
        # for two sets
        for batch, sets in ((two, [0, 0]), (two._replace(actions=two.actions[:, :8]), [0, 1]),
                            (stacked(window), [0, 1])):
            before = state(stack)
            with pytest.raises(ValueError, match="distinct networks of one shape"):
                ppo_update(stack, sets, batch, PPOHyper(), rngs)
            assert state(stack) == before


def alpha_beta_stack(seed):
    """Two networks of different input widths and action counts, with
    weights from ``seed``."""
    stack = ParamStack([(4, 8, 3), (6, 8, 2)])
    init_params(stack.views, [derive_rng(seed, i) for i in range(2)])
    return stack


def entry(index, value):
    """An edit of a saved array: a copy with ``value`` at ``index``."""
    def edit(array):
        array = array.copy()
        array[index] = value
        return array
    return edit


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        saved = alpha_beta_stack(seed=18)
        ppo_update(saved, [1], stacked(make_batch(saved.views[1], 64, seed=18)), PPOHyper(),
                   [derive_rng(18, 2)])
        path = tmp_path / "params.npz"
        saved.save(path, ["alpha", "beta"])
        loaded = alpha_beta_stack(seed=19)
        loaded.load(path, ["alpha", "beta"])
        assert loaded.steps == saved.steps == [0, 4]
        for name, a, b in (("rows", saved.rows, loaded.rows), ("m", saved.m, loaded.m),
                           ("v", saved.v, loaded.v)):
            assert a.tobytes() == b.tobytes(), name
        for name, params, restored in zip(("alpha", "beta"), saved.views, loaded.views):
            for (tname, tensor), (_, back) in zip(params.tensors(), restored.tensors()):
                assert np.array_equal(tensor, back), (name, tname)

    def test_version_check(self, tmp_path):
        path = tmp_path / "params.npz"
        np.savez(path, **{"version": np.array(999), "names": np.array(["x"])})
        with pytest.raises(ValueError, match="version"):
            alpha_beta_stack(seed=20).load(path, ["alpha", "beta"])

    @pytest.mark.parametrize("key, value", [
        ("names", None),
        ("rows", None),
        ("steps", np.array([0.5, 1.0])),
        ("steps", np.array([-3, 1])),
        ("steps", np.array([[0, 4]])),
        # beta's padded third logit bias, 0 instead of -inf
        ("rows", lambda rows: np.where(np.isneginf(rows), 0.0, rows)),
        ("rows", entry((1, 0), np.nan)),
        # alpha's w1 entry for input 5, which alpha does not have
        ("rows", entry((0, 5 * 8), 1.0)),
        ("rows", lambda rows: rows.astype(str)),
        ("m", entry((0, 0), np.inf)),
        ("m", entry((0, 5 * 8), 1e-3)),
        ("v", entry((1, 0), -1e-6)),
        ("version", np.array([CHECKPOINT_VERSION] * 2)),
        ("version", np.array([CHECKPOINT_VERSION])),
    ], ids=["no-names", "no-rows", "fractional-steps", "negative-steps", "2d-steps",
            "zero-logit-bias-padding", "nan-weight", "weight-in-padding", "text-rows",
            "infinite-moment", "moment-in-padding", "negative-v", "two-versions",
            "version-in-a-list"])
    def test_malformed_file_is_rejected_untouched(self, tmp_path, key, value):
        path = tmp_path / "params.npz"
        alpha_beta_stack(seed=21).save(path, ["alpha", "beta"])
        with np.load(path) as data:
            arrays = dict(data)
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value(arrays[key]) if callable(value) else value
        np.savez(path, **arrays)
        stack = alpha_beta_stack(seed=22)
        ppo_update(stack, [1], stacked(make_batch(stack.views[1], 64, seed=22)), PPOHyper(),
                   [derive_rng(22, 2)])
        before = [stack.rows.copy(), stack.m.copy(), stack.v.copy(), list(stack.steps)]
        with pytest.raises(ValueError, match=key):
            stack.load(path, ["alpha", "beta"])
        assert stack.rows.tobytes() == before[0].tobytes()
        assert stack.m.tobytes() == before[1].tobytes()
        assert stack.v.tobytes() == before[2].tobytes()
        assert stack.steps == before[3] == [0, 4]


def test_hyper_validation():
    with pytest.raises(ConfigError):
        PPOHyper(discount=0.0)
    with pytest.raises(ConfigError):
        PPOHyper(gae_lambda=1.5)
    with pytest.raises(ConfigError):
        PPOHyper(clip=0.0)
    for bad in (dict(learning_rate="abc"), dict(learning_rate=None),
                dict(learning_rate=True), dict(discount=float("nan")),
                dict(clip=float("inf")), dict(value_coef=float("nan")),
                dict(epochs=1.5), dict(minibatch_size=8.0), dict(rollout_length="64"),
                dict(entropy_coef=None), dict(learning_rate=-1.0), dict(learning_rate=0.0),
                dict(entropy_coef=-0.01), dict(value_coef=-0.5)):
        with pytest.raises(ConfigError):
            PPOHyper(**bad)
    PPOHyper()
