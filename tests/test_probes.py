"""Known-answer probes of the learner.

Each probe is a task whose answer is known in advance, learned through the
program's own ``forward``, ``sample_rows``, ``gae`` and ``ppo_update`` (one
network of hidden width 16, 256-step windows), so that a change which broke
learning in both the update and its reference copy still fails here: the
value of a constant reward, a value that depends on the observation, a
bandit and a contextual bandit (Andy L. Jones, "Debugging Reinforcement
Learning Systems", 2021). A fifth probe runs through a real ``Home``: its
window, ``Home.credit`` of a payout that lands one decision late, the
window's bootstrap and ``Home.update``. The gates and the number of windows
were fixed before the probes first ran. A probe that failed then is marked
as an expected failure with its reading, not retuned: the three value
probes, whose values still rise after their windows at the default learning
rate.
"""

import numpy as np
import pytest

from marketsched.agents import ARCH_DIST
from marketsched.config import JobType
from marketsched.neural import (ParamStack, PPOHyper, forward, gae, init_params, log_softmax,
                                sample_rows)
from marketsched.ppo import TrainBatch, ppo_update
from marketsched.rng import derive_rng

from helpers import make_config, standalone

HIDDEN = 16
SHORT = dict(discount=0.01, gae_lambda=0.0)  # each reward is its decision's alone


def slow(reading):
    """The mark of a value probe that fell short at the default learning rate
    3e-4 when first run, with what it read: its gate fails, nothing else."""
    return pytest.mark.xfail(raises=AssertionError, strict=True,
                             reason=f"first run read {reading}")


def train(obs_of, reward_of, actions, windows, hyper, seed=0):
    """One network trained on ``windows`` windows of the task whose
    observations ``obs_of(rng, n)`` draws, n rows at a time, and whose
    reward of each row is ``reward_of(obs, actions)``; each window is closed
    with the value of the next window's first observation."""
    length = hyper.rollout_length
    rng = derive_rng(seed, 0)
    obs = obs_of(rng, length + 1)
    stack = ParamStack([(obs.shape[1], HIDDEN, actions)])
    init_params(stack.views, [derive_rng(seed, 1)])
    update_rng = derive_rng(seed, 2)
    sets, last = np.zeros(length + 1, dtype=np.intp), np.full(length, actions - 1)
    for _ in range(windows):
        logits, values = forward(stack, obs, sets)
        taken, logps = sample_rows(logits[:length], rng.random(length), last)
        rewards = reward_of(obs[:length], taken)
        advantages, returns = gae(rewards, values[:length], values[length], hyper.discount,
                                  hyper.gae_lambda)
        ppo_update(stack, [0], TrainBatch(obs[None, :length], taken[None], logps[None],
                                          advantages[None], returns[None]), hyper, [update_rng])
        obs = np.concatenate([obs[length:], obs_of(rng, length)])
    return stack


def policy_and_value(stack, obs):
    """Each row's action probabilities and value."""
    logits, values = forward(stack, obs, np.zeros(len(obs), dtype=np.intp))
    return np.exp(log_softmax(logits)), values


def constant(rng, n):
    return np.ones((n, 1))


def signs(rng, n):
    return rng.choice([-1.0, 1.0], size=(n, 1))


def contexts(rng, n):
    return np.eye(3)[rng.integers(0, 3, n)]


def pays_the_context(obs, actions):
    """1 when the action is the context's index, else 0."""
    return (actions == obs.argmax(axis=1)).astype(float)


@slow("V = 2.59 after 40 windows; it is within 0.05 of 10 at 200")
def test_the_value_of_a_constant_reward_is_its_discounted_sum():
    stack = train(constant, lambda obs, _: np.ones(len(obs)), 2, windows=40,
                  hyper=PPOHyper(discount=0.9))
    _, (value,) = policy_and_value(stack, constant(None, 1))
    assert abs(value - 10.0) <= 0.05  # 1 / (1 - 0.9)


@slow("V(-1), V(1) = -0.84, 0.83 after 30 windows; within 0.05 at 50")
def test_the_value_follows_the_observation():
    stack = train(signs, lambda obs, _: obs[:, 0], 2, windows=30, hyper=PPOHyper(**SHORT))
    _, values = policy_and_value(stack, np.array([[-1.0], [1.0]]))
    assert np.all(np.abs(values - [-1.0, 1.0]) <= 0.05), values


def test_a_bandit_learns_its_best_action():
    stack = train(constant, lambda _, actions: (actions == 2).astype(float), 4, windows=20,
                  hyper=PPOHyper(learning_rate=3e-3, **SHORT))
    (probs,), _ = policy_and_value(stack, constant(None, 1))
    assert probs[2] >= 0.95, probs


def test_a_contextual_bandit_learns_each_contexts_best_action():
    stack = train(contexts, pays_the_context, 3, windows=30,
                  hyper=PPOHyper(learning_rate=3e-3, **SHORT))
    probs, _ = policy_and_value(stack, np.eye(3))
    assert np.all(probs.diagonal() >= 0.95), probs


def test_the_contextual_bandit_at_the_default_discount_is_reported():
    """Reported, not gated: at the default (discount, gae_lambda) of (0.99,
    0.95), the noise of the rewards that follow a decision swamps its own,
    and the contextual bandit stays near chance (1/3) after 150 windows."""
    stack = train(contexts, pays_the_context, 3, windows=150, hyper=PPOHyper())
    probs, _ = policy_and_value(stack, np.eye(3))
    print(f"contextual bandit at (0.99, 0.95), 150 windows: P(best | c) = "
          f"{', '.join(f'{p:.2f}' for p in probs.diagonal())}")
    assert np.allclose(probs.sum(axis=1), 1.0)


@slow("V(A), V(B) = 3.33, 3.63 after 60 windows; 4.74, 5.24 at 140")
def test_a_homes_window_learns_a_payout_credited_one_decision_late():
    """One agent's offer unit decides in states A and B in turn; each A
    decision pays 1, which arrives after the next decision, B, is recorded,
    so ``Home.credit`` adds it to B's row. Each window is closed with the
    value of the next decision, an A, as the home's pass closes it. The
    values are then V(B) = 1 + gamma V(A) and V(A) = gamma V(B)."""
    gamma = 0.9
    cfg = make_config(num_agents=1, num_cores=1, num_slots=1,
                      job_types=(JobType(0, 1, 1, 0.5),))
    (home,) = standalone((ARCH_DIST,), cfg, PPOHyper(discount=gamma), seed=0)
    (u,) = [u for u, spec in enumerate(home.specs) if spec.slots]
    length, width, sets = home.length, home.specs[u].obs_width, home.sets[[u, u]]
    states = np.eye(2, home.stack.in_width)  # A, B, padded as the pass reads them
    turns, rng = np.arange(length) % 2, derive_rng(0, 3)
    last = np.full(length, home.stack.shapes[home.sets[u]][2] - 1)
    for _ in range(60):
        logits, values = forward(home.stack, states, sets)
        actions, logps = sample_rows(logits[turns], rng.random(length), last)
        for t, s in enumerate(turns.tolist()):
            home.record(u, states[s, :width], actions[t], logps[t], values[s])
            if s:
                home.credit(u, 1.0)
        home.update([u], [float(values[0])])
    _, values = forward(home.stack, states, sets)
    want = np.array([gamma, 1.0]) / (1 - gamma**2)
    assert home.updates[u] == 60 and not home.sizes[u]
    assert np.all(np.abs(values - want) <= 0.05), (values, want)
