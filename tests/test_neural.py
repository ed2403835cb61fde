"""Networks, sampling, advantage estimation, and the policy update."""

import numpy as np
import pytest

from marketsched.neural import (
    NetParams,
    NonFiniteLossError,
    ParamStack,
    PPOHyper,
    RolloutBuffer,
    TrainBatch,
    forward,
    gae,
    init_params,
    log_softmax,
    ppo_update,
    sample_rows,
    surrogate_objective,
)
from marketsched.rng import derive_rng

from reference import forward as unit_forward


def small_stack(seed=0, in_width=4, hidden=8, actions=3):
    """One network, as a stack of one."""
    stack = ParamStack([(in_width, hidden, actions)])
    init_params(stack.views[0], derive_rng(seed, 99))
    return stack


def small_net(seed=0, in_width=4, hidden=8, actions=3):
    return small_stack(seed, in_width, hidden, actions).views[0]


def gradient(params, batch, hyper, indices):
    """``surrogate_objective`` with its gradient written into a fresh gradient
    row: (objective, the gradient views by tensor name, stats)."""
    shape = (params.in_width, params.w1.shape[1], params.action_count)
    grads = ParamStack([shape]).grad_views[0]
    objective, stats = surrogate_objective(params, grads, batch, hyper, indices)
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
        # one set broadcasts its blocks over the rows, two sets gather them
        # per row: the products, and so the outputs, are the same
        one = small_stack(seed=3)
        two = ParamStack([(4, 8, 3), (4, 8, 3)])
        two.rows[...] = one.rows[0]
        obs = derive_rng(3, 1).standard_normal((5, 4))
        for got, want in zip(forward(one, obs, np.zeros(5, dtype=int)),
                             forward(two, obs, np.array([0, 1, 1, 0, 1]))):
            assert np.array_equal(got, want)


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
        ppo_update(stack, 0, batch, hyper, derive_rng(14, 2))
        for (_, now), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.max(np.abs(now - old)) < 1e-3

    def test_update_improves_surrogate_on_batch(self):
        stack = small_stack(seed=15)
        params = stack.views[0]
        batch = make_batch(params, 128, seed=15)
        hyper = PPOHyper(learning_rate=3e-3, epochs=8)
        before = gradient(params, batch, hyper, np.arange(128))[0]
        ppo_update(stack, 0, batch, hyper, derive_rng(15, 2))
        after = gradient(params, batch, hyper, np.arange(128))[0]
        assert after > before

    def test_parameters_stay_finite_under_fuzz(self):
        stack = small_stack(seed=16)
        params = stack.views[0]
        rng = derive_rng(16, 3)
        hyper = PPOHyper(learning_rate=1e-2, epochs=1, minibatch_size=32)
        for _ in range(60):
            batch = make_batch(params, 32, seed=int(rng.integers(1 << 30)))
            ppo_update(stack, 0, batch, hyper, rng)
            for _, tensor in params.tensors():
                assert np.all(np.isfinite(tensor))

    def test_non_finite_loss_aborts(self):
        stack = small_stack(seed=17)
        params = stack.views[0]
        batch = make_batch(params, 16, seed=17)
        batch = batch._replace(returns=np.full(16, np.nan))
        with pytest.raises(NonFiniteLossError):
            ppo_update(stack, 0, batch, PPOHyper(), derive_rng(17, 2))

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
            ppo_update(stack, 0, batch._replace(**{field: bad}), PPOHyper(),
                       derive_rng(23, 2))
        assert stack.rows.tobytes() == before


def two_set_stack():
    """A stack whose second network is narrower than the first in every width."""
    stack = ParamStack([(6, 8, 5), (4, 5, 3)])
    for i, params in enumerate(stack.views):
        init_params(params, derive_rng(24, i))
    return stack


class TestAdamRow:
    def test_in_place_step_matches_the_per_tensor_formula(self):
        stack = two_set_stack()
        rng = derive_rng(25, 0)
        b1, b2, eps, lr = ParamStack.beta1, ParamStack.beta2, ParamStack.eps, 1e-2
        for i in range(2):
            ref = {name: t.copy() for name, t in stack.views[i].tensors()}
            m = {name: np.zeros(t.shape) for name, t in ref.items()}
            v = {name: np.zeros(t.shape) for name, t in ref.items()}
            for step in range(1, 21):
                for _, g in stack.grad_views[i].tensors():
                    g[...] = rng.standard_normal(g.shape)
                stack.ascend(i, lr)
                for name, g in stack.grad_views[i].tensors():
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
        ppo_update(stack, 1, batch, PPOHyper(learning_rate=1e-2), derive_rng(26, 2))
        assert not np.array_equal(stack.rows[1][~padding], narrow[~padding])
        assert np.array_equal(stack.rows[1][padding], probe.rows[1][padding])
        assert np.array_equal(stack.rows[0], wide)
        for padded in (stack.grads[1], stack.m[1], stack.v[1]):
            assert np.all(padded[padding] == 0.0)


class TestRolloutBuffer:
    def test_fill_and_clear(self):
        buf = RolloutBuffer(capacity=4, width=2)
        for i in range(4):
            buf.add(np.zeros(2), i, -0.1, 0.0, 1.0)
        assert buf.full and len(buf) == 4
        batch = buf.to_batch(bootstrap_value=0.5, hyper=PPOHyper())
        assert batch.obs.shape == (4, 2)
        buf.clear()
        assert len(buf) == 0 and not buf.full


def alpha_beta_stack(seed):
    """Two networks of different input widths, with weights from ``seed``."""
    stack = ParamStack([(4, 8, 3), (6, 8, 3)])
    for i, params in enumerate(stack.views):
        init_params(params, derive_rng(seed, i))
    return stack


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        saved = alpha_beta_stack(seed=18)
        ppo_update(saved, 1, make_batch(saved.views[1], 64, seed=18), PPOHyper(),
                   derive_rng(18, 2))
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


def test_hyper_validation():
    with pytest.raises(ValueError):
        PPOHyper(discount=0.0).validate()
    with pytest.raises(ValueError):
        PPOHyper(gae_lambda=1.5).validate()
    with pytest.raises(ValueError):
        PPOHyper(clip=0.0).validate()
    for bad in (dict(learning_rate="abc"), dict(learning_rate=None),
                dict(learning_rate=True), dict(discount=float("nan")),
                dict(clip=float("inf")), dict(value_coef=float("nan")),
                dict(epochs=1.5), dict(minibatch_size=8.0), dict(rollout_length="64"),
                dict(entropy_coef=None), dict(learning_rate=-1.0), dict(learning_rate=0.0),
                dict(entropy_coef=-0.01), dict(value_coef=-0.5)):
        with pytest.raises(ValueError):
            PPOHyper(**bad).validate()
    PPOHyper().validate()
