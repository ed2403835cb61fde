"""Layer bench: one agent's ``AgentBundle.act`` on a fixed env state.

Deselected by default; run with ``python -m pytest -m bench``. The state is
EXP2_ARCH_2X2 after 30 scripted steps, so the agent owns a core and the offer
book is not empty. Each round acts once on that same state; rollout windows
are emptied before every round, so no policy update is timed.
"""

import pytest

from marketsched.agents import ARCH_DIST, ARCH_DIST_PS, ARCH_FULL, ARCH_SEMI, AgentBundle
from marketsched.baseline import scripted_actions
from marketsched.env import JointActions, SchedulingEnv
from marketsched.harness import builtin_scenarios

pytestmark = pytest.mark.bench


def fixed_state():
    scenario = builtin_scenarios()["EXP2_ARCH_2X2"]
    env = SchedulingEnv(scenario.env, seed=1)
    for _ in range(30):
        env.step(scripted_actions(env))
    assert any(core.owner == 0 for core in env.cores) and list(env.offers())
    return scenario, env


@pytest.mark.parametrize("arch", [ARCH_DIST_PS, ARCH_DIST, ARCH_SEMI, ARCH_FULL])
def test_bench_act(arch, benchmark):
    scenario, env = fixed_state()
    bundle = AgentBundle(arch, 0, scenario.env, scenario.hyper, seed=1)

    def fresh_round():
        for unit in bundle.units.values():
            unit.buffer.clear()
        return (env, JointActions()), {}

    benchmark.pedantic(bundle.act, setup=fresh_round, rounds=2000, warmup_rounds=50)
