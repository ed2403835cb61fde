"""Networks, sampling, advantage estimation, and the policy update."""

import numpy as np
import pytest

from marketsched import neural
from marketsched.agents import ARCH_DIST, ARCH_FULL, build_bundles
from marketsched.harness import builtin_scenarios
from marketsched.neural import (
    NetParams,
    NonFiniteLossError,
    ParamRows,
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
    update_work,
)
from marketsched.rng import derive_rng

import reference
from reference import forward as unit_forward


def small_stack(seed=0, in_width=4, hidden=8, actions=3):
    """One network, as a stack of one."""
    stack = ParamStack([(in_width, hidden, actions)])
    init_params(stack.views[0], derive_rng(seed, 99))
    return stack


def small_net(seed=0, in_width=4, hidden=8, actions=3):
    return small_stack(seed, in_width, hidden, actions).views[0]


def one_network(params, grads, batch, hyper, indices, work=None):
    """``surrogate_objective`` on the one network ``params``, its gradient
    written into ``grads``: (objective, stats) as Python floats."""
    objective, stats = surrogate_objective(
        NetParams(*(t[None] for _, t in params.tensors())),
        NetParams(*(t[None] for _, t in grads.tensors())),
        TrainBatch(*(field[None] for field in batch)), hyper, indices[None], work)
    return float(objective[0]), {key: float(value[0]) for key, value in stats.items()}


def gradient(params, batch, hyper, indices):
    """``surrogate_objective`` with its gradient written into a fresh gradient
    row: (objective, the gradient views by tensor name, stats)."""
    shape = (params.in_width, params.w1.shape[1], params.action_count)
    grads = ParamStack([shape]).grad_views[0]
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
        for index, params in enumerate(stack.views):
            init_params(params, derive_rng(5, index))
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


    def test_a_stack_in_rows_of_a_home_shares_them(self):
        home = ParamRows([(4, 8, 3), (4, 8, 2), (3, 8, 3)])
        stack = ParamStack([(4, 8, 2), (3, 8, 3)], home, 1)
        init_params(stack.views[0], derive_rng(6, 0))
        assert np.shares_memory(stack.rows, home.rows) and stack.home is home
        assert home.rows[1].tobytes() == stack.rows[0].tobytes()
        alone = ParamStack([(4, 8, 2)])
        assert alone.home is alone and alone.first == 0
        for shapes, first in (([(4, 8, 2), (3, 8, 3)], 2), ([(4, 6, 2)], 1),
                              ([(5, 8, 2)], 0), ([(4, 8, 9)], 0), ([(4, 8, 3)], 1),
                              ([(3, 8, 3)], 2)):
            with pytest.raises(ValueError, match="cannot hold"):
                ParamStack(shapes, home, first)


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
            grads = ParamStack([shape]).grad_views[0]
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
        ppo_update(stack, [0], [batch], hyper, [derive_rng(14, 2)])
        for (_, now), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.max(np.abs(now - old)) < 1e-3

    def test_update_improves_surrogate_on_batch(self):
        stack = small_stack(seed=15)
        params = stack.views[0]
        batch = make_batch(params, 128, seed=15)
        hyper = PPOHyper(learning_rate=3e-3, epochs=8)
        before = gradient(params, batch, hyper, np.arange(128))[0]
        ppo_update(stack, [0], [batch], hyper, [derive_rng(15, 2)])
        after = gradient(params, batch, hyper, np.arange(128))[0]
        assert after > before

    def test_parameters_stay_finite_under_fuzz(self):
        stack = small_stack(seed=16)
        params = stack.views[0]
        rng = derive_rng(16, 3)
        hyper = PPOHyper(learning_rate=1e-2, epochs=1, minibatch_size=32)
        for _ in range(60):
            batch = make_batch(params, 32, seed=int(rng.integers(1 << 30)))
            ppo_update(stack, [0], [batch], hyper, [rng])
            for _, tensor in params.tensors():
                assert np.all(np.isfinite(tensor))

    def test_non_finite_loss_aborts(self):
        stack = small_stack(seed=17)
        params = stack.views[0]
        batch = make_batch(params, 16, seed=17)
        batch = batch._replace(returns=np.full(16, np.nan))
        with pytest.raises(NonFiniteLossError):
            ppo_update(stack, [0], [batch], PPOHyper(), [derive_rng(17, 2)])

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
            ppo_update(stack, [0], [batch._replace(**{field: bad})], PPOHyper(),
                       [derive_rng(23, 2)])
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
                stack.ascend([i], lr)
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
        ppo_update(stack, [1], [batch], PPOHyper(learning_rate=1e-2), [derive_rng(26, 2)])
        assert not np.array_equal(stack.rows[1][~padding], narrow[~padding])
        assert np.array_equal(stack.rows[1][padding], probe.rows[1][padding])
        assert np.array_equal(stack.rows[0], wide)
        for padded in (stack.grads[1], stack.m[1], stack.v[1]):
            assert np.all(padded[padding] == 0.0)


def home_sets(scenario_name, arch, prefix, seed):
    """The home ParamStack of a scenario's bundles under ``arch`` and its
    rows whose parameter-set names start with ``prefix``, in row order."""
    scenario = builtin_scenarios()[scenario_name]
    bundles = build_bundles((arch,) * scenario.env.num_agents, scenario.env, scenario.hyper,
                            seed)
    sets = [bundle.stack.first + i for bundle in bundles
            for i, key in enumerate(bundle.params) if key.startswith(prefix)]
    return bundles[0].stack.home, sets


def state(stack):
    return [stack.rows.tobytes(), stack.m.tobytes(), stack.v.tobytes(), stack.steps]


class TestStackedUpdate:
    """``ppo_update`` on several networks against the reference updating
    them one at a time, each with its own window and stream."""

    def assert_matches_one_at_a_time(self, scenario_name, arch, prefix, hyper, size,
                                     warm=()):
        stacked, sets = home_sets(scenario_name, arch, prefix, seed=31)
        alone, _ = home_sets(scenario_name, arch, prefix, seed=31)
        assert len(set(stacked.shapes[s] for s in sets)) == 1
        for stack in (stacked, alone):
            # Adam moments and step counts that differ from set to set
            for s, steps in zip(sets, warm):
                stack.m[s] = derive_rng(32, s).standard_normal(stack.m[s].shape) * 1e-3
                stack.v[s] = derive_rng(33, s).random(stack.v[s].shape) * 1e-6
                stack.step_counts[s] = steps
        batches = [make_batch(stacked.views[s], size, seed=34 + s) for s in sets]
        stats = ppo_update(stacked, sets, batches, hyper,
                           [derive_rng(35, s) for s in sets])
        for s, batch, got in zip(sets, batches, stats):
            want = reference.ppo_update(alone, s, batch, hyper, derive_rng(35, s))
            assert {key: got[key] for key in want} == want, s
        for name in ("rows", "grads", "m", "v"):
            assert getattr(stacked, name).tobytes() == getattr(alone, name).tobytes(), name
        assert stacked.steps == alone.steps
        assert all(stacked.steps[s] > steps for s, steps in zip(sets, warm))

    @pytest.mark.parametrize("rows_per_block", [None, 5], ids=["one-block", "blocks-of-5"])
    def test_the_offer_sets_of_a_dist_home(self, rows_per_block, monkeypatch):
        # 12 sets of one shape, 3 per agent between the agents' accept sets:
        # no run, so the update takes their rows and puts them back; Adam
        # steps them all at once, or 5, 5 and 2 at a time
        stack, sets = home_sets("EXP2_ARCH_4X4", ARCH_DIST, "offer", seed=31)
        if rows_per_block:
            monkeypatch.setattr(neural, "ADAM_BLOCK_BYTES", rows_per_block * stack.rows[0].nbytes)
        assert neural.ADAM_BLOCK_BYTES // stack.rows[0].nbytes >= (rows_per_block or 12)
        assert len(sets) == 12 and sets != list(range(sets[0], sets[0] + 12))
        assert stack.shapes[sets[0]] != max(stack.shapes)
        self.assert_matches_one_at_a_time(
            "EXP2_ARCH_4X4", ARCH_DIST, "offer", PPOHyper(minibatch_size=16, epochs=2),
            size=40, warm=(0, 3, 1, 7, 2, 0, 5, 1, 0, 9, 4, 2))

    def test_the_full_sets_of_a_home_are_a_run(self):
        stack, sets = home_sets("EXP2_ARCH_2X2", ARCH_FULL, "full", seed=31)
        assert sets == [0, 1] and stack.shapes[0] == (69, 64, 1323)
        self.assert_matches_one_at_a_time(
            "EXP2_ARCH_2X2", ARCH_FULL, "full", PPOHyper(minibatch_size=24, epochs=2),
            size=48)

    def test_sets_whose_adam_step_counts_differ(self):
        self.assert_matches_one_at_a_time(
            "EXP2_ARCH_4X4", ARCH_DIST, "accept", PPOHyper(minibatch_size=32, epochs=3),
            size=32, warm=(0, 5, 1, 40, 2, 0, 7, 3, 0, 11, 0, 4, 9, 0, 6, 1))

    @pytest.mark.parametrize("scenario_name, arch, prefix", [
        ("EXP2_ARCH_4X4", ARCH_DIST, "offer"), ("EXP2_ARCH_2X2", ARCH_FULL, "full")])
    @pytest.mark.parametrize("field", ["returns", "obs"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_set_names_itself_and_moves_no_set(self, scenario_name, arch, prefix,
                                                          field):
        stack, sets = home_sets(scenario_name, arch, prefix, seed=36)
        batches = [make_batch(stack.views[s], 16, seed=37 + s) for s in sets]
        bad = getattr(batches[-1], field).copy()
        bad.flat[3] = np.inf
        batches[-1] = batches[-1]._replace(**{field: bad})
        before = state(stack)
        with pytest.raises(NonFiniteLossError, match=f"parameter set {sets[-1]}:"):
            ppo_update(stack, sets, batches, PPOHyper(), [derive_rng(38, s) for s in sets])
        assert state(stack) == before

    def test_repeated_sets_two_shapes_or_two_window_lengths_are_rejected(self):
        stack = two_set_stack()
        batches = [make_batch(params, 16, seed=39) for params in stack.views]
        rngs = [derive_rng(39, 0), derive_rng(39, 1)]
        with pytest.raises(ValueError, match="one shape"):
            ppo_update(stack, [0, 1], batches, PPOHyper(), rngs)
        stack = ParamStack([(4, 8, 3), (4, 8, 3)])
        for n, sets in (((16, 16), [0, 0]), ((8, 16), [0, 1])):
            before = state(stack)
            with pytest.raises(ValueError, match="distinct networks of one shape"):
                ppo_update(stack, sets, [make_batch(stack.views[0], size, seed=39)
                                         for size in n], PPOHyper(), rngs)
            assert state(stack) == before


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
        ppo_update(saved, [1], [make_batch(saved.views[1], 64, seed=18)], PPOHyper(),
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
    ], ids=["no-names", "no-rows", "fractional-steps", "negative-steps", "2d-steps"])
    def test_malformed_file_is_rejected_untouched(self, tmp_path, key, value):
        path = tmp_path / "params.npz"
        alpha_beta_stack(seed=21).save(path, ["alpha", "beta"])
        with np.load(path) as data:
            arrays = dict(data)
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
        np.savez(path, **arrays)
        stack = alpha_beta_stack(seed=22)
        ppo_update(stack, [1], [make_batch(stack.views[1], 64, seed=22)], PPOHyper(),
                   [derive_rng(22, 2)])
        before = [stack.rows.copy(), stack.m.copy(), stack.v.copy(), list(stack.steps)]
        with pytest.raises(ValueError, match=key):
            stack.load(path, ["alpha", "beta"])
        assert stack.rows.tobytes() == before[0].tobytes()
        assert stack.m.tobytes() == before[1].tobytes()
        assert stack.v.tobytes() == before[2].tobytes()
        assert stack.steps == before[3] == [0, 4]


def test_hyper_validation():
    with pytest.raises(ValueError):
        PPOHyper(discount=0.0)
    with pytest.raises(ValueError):
        PPOHyper(gae_lambda=1.5)
    with pytest.raises(ValueError):
        PPOHyper(clip=0.0)
    for bad in (dict(learning_rate="abc"), dict(learning_rate=None),
                dict(learning_rate=True), dict(discount=float("nan")),
                dict(clip=float("inf")), dict(value_coef=float("nan")),
                dict(epochs=1.5), dict(minibatch_size=8.0), dict(rollout_length="64"),
                dict(entropy_coef=None), dict(learning_rate=-1.0), dict(learning_rate=0.0),
                dict(entropy_coef=-0.01), dict(value_coef=-0.5)):
        with pytest.raises(ValueError):
            PPOHyper(**bad)
    PPOHyper()
