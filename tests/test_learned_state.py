"""Golden digests of the learned state a run ends with.

The goldens of ``test_golden.py`` hash what a run did: its trace, CSV and
manifest, all of which follow the actions taken. A change in what an update
sees can leave every action unchanged for thousands of steps while the
weights already differ. These pins hash each home's weights, Adam moments
and step counts, and the filled part of its rollout windows, after a fixed
run, so such a change fails here.
"""

import hashlib

import numpy as np
import pytest

from marketsched import agents
from marketsched.agents import Trainer, build_homes
from marketsched.env import SchedulingEnv
from marketsched.harness import builtin_scenarios
from marketsched.neural import forward

PINNED = {
    # DIST_PS: units of one agent share a parameter set and update mid-pass
    "EXP1_TRADING": "ea2265f67e95e32c4922afb60aaf41c254cee9258ab5abda9f19843def99e87c",
    # DIST_PRICE: price setters' windows fill only when offers are accepted
    "EXP3_SCARCITY_2C_COMM":
        "75c513a0555e77f4143c395578a7292fa080fee6d47eda97c1d514c6d6cb09bb",
}


def learned_state_digest(homes) -> str:
    """sha256 over every home, in order: its stack's rows, m, v and step
    counts, then each unit's window sizes and the filled rows of its
    observations, actions, log-probabilities, values and rewards."""
    digest = hashlib.sha256()
    for home in homes:
        stack = home.stack
        for array in (stack.rows, stack.m, stack.v, stack.step_counts, home.sizes):
            digest.update(array.tobytes())
        for u, size in enumerate(home.sizes.tolist()):
            digest.update(home.obs[u, :size, :home.specs[u].obs_width].tobytes())
            for field in (home.actions, home.logps, home.values, home.rewards):
                digest.update(field[u, :size].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_learned_state_after_2000_steps_is_pinned(name):
    scenario = builtin_scenarios()[name]
    env = SchedulingEnv(scenario.env, 1)
    homes = build_homes(scenario.arch, scenario.env, scenario.hyper, 1)
    trainer = Trainer(env, homes)
    for _ in range(2000):
        trainer.step()
    assert learned_state_digest(homes) == PINNED[name]


def test_padding_of_the_rollout_store_is_never_read(monkeypatch):
    # A unit narrower than its home's widest pads its observations in the
    # home's ``obs``. NaN padding that reached an update would raise
    # NonFiniteLossError, or move the weights and so the digest.
    scenario = builtin_scenarios()["EXP1_TRADING"]
    env = SchedulingEnv(scenario.env, 1)
    homes = build_homes(scenario.arch, scenario.env, scenario.hyper, 1)
    (home,) = homes
    assert len({spec.obs_width for spec in home.specs}) > 1
    home.obs[...] = np.nan
    forwards = []

    def counted(*args):
        forwards.append(1)
        return forward(*args)

    monkeypatch.setattr(agents, "forward", counted)
    trainer = Trainer(env, homes)
    for _ in range(2000):
        trainer.step()
    # one forward a step, and one more for each wave after the first
    assert len(forwards) > 2000
    assert learned_state_digest(homes) == PINNED["EXP1_TRADING"]
