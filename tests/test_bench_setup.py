"""Set-up bench: building every agent's parameter sets of a scenario.

Deselected by default; run with ``python -m pytest -m bench``.
``test_bench_bundles`` times, in host seconds, the construction of one
``AgentBundle`` per agent, as perfbench's set-up (``time_setup``) does. A
bundle is only the stack of one agent's parameter sets, whose bytes
``tests/test_agents.py`` checks against the agent's one-agent ``Home``:
for EXP2_ARCH_4X4 ``DIST``, whose seven sets per agent are four accept sets
and three offer sets, 5 stacked QRs in all; and for EXP1_TRADING
``DIST_PS``, whose two shared sets differ in shape, so only their value
heads share a QR.
"""

import pytest

from marketsched.agents import ARCH_DIST, ARCH_DIST_PS, AgentBundle
from marketsched.harness import builtin_scenarios

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("name, arch", [("EXP2_ARCH_4X4", ARCH_DIST),
                                        ("EXP1_TRADING", ARCH_DIST_PS)])
def test_bench_bundles(benchmark, name, arch):
    scenario = builtin_scenarios()[name]
    assert set(scenario.arch) == {arch}

    def build():
        for agent in range(scenario.env.num_agents):
            AgentBundle(arch, agent, scenario.env, scenario.hyper, 1)

    benchmark.pedantic(build, rounds=500, warmup_rounds=20)
