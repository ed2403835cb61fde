"""Golden digests of the learned state a run ends with.

The goldens of ``test_golden.py`` hash what a run did: its trace, CSV and
manifest, all of which follow the actions taken. A change in what an update
sees can leave every action unchanged for thousands of steps while the
weights already differ. These pins hash each home's weights, Adam moments
and step counts, and the filled part of its rollout windows, after a fixed
run, so such a change fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from marketsched import agents, neural
from marketsched.agents import (ARCH_DIST, ARCH_DIST_PRICE, ARCH_DIST_PS, ARCH_FULL, ARCH_SEMI,
                                Trainer, build_homes)
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


# Run in a fresh process, whose BLAS thread count comes from its environment:
# for each "scenario:architecture" argument, a 200-step run of every agent
# under that architecture, with 64-step windows, printing its record and its
# homes' learned-state digest; with "sweep", the records of such runs of
# EXP1_TRADING's seeds 1 and 2 on two workers, and whether they are the
# serial sweep's; then the BLAS thread count after a forward and after an
# init_params.
THREADS_PROBE = """
import sys
from dataclasses import replace
import numpy as np
from marketsched import harness, neural
from marketsched.agents import ARCH_DIST_PS
from marketsched.rng import derive_rng
from test_learned_state import learned_state_digest
built, build_homes = [], harness.build_homes
harness.build_homes = lambda *args: built.append(build_homes(*args)) or built[-1]
def short(name, arch):
    base = harness.builtin_scenarios()[name]
    return replace(base, arch=(arch,) * base.env.num_agents, total_steps=200, window=100,
                   hyper=replace(base.hyper, rollout_length=64))
for arg in sys.argv[1:]:
    if arg == "sweep":
        sweep = short("EXP1_TRADING", ARCH_DIST_PS)
        records = harness.run_sweep(sweep, seeds=[1, 2], workers=2)
        print(repr(records), records == harness.run_sweep(sweep, seeds=[1, 2], workers=1))
        continue
    print(repr(harness.run_scenario(short(*arg.split(":")), 1)), learned_state_digest(built[-1]))
query, _ = neural._openblas_threads()
stack = neural.ParamStack([(4, 8, 3)])
neural.forward(stack, np.ones((1, 4)), np.zeros(1, dtype=int))
print(f"forward:{query()}", end=" ")
neural.init_params(stack.views, [derive_rng(1, 0)])
print(f"init_params:{query()}")
"""


def threads_probes(*runs):
    """The lines THREADS_PROBE prints for ``runs`` in two fresh processes,
    run at once, under 1 and under 2 OpenBLAS threads."""
    paths = [str(Path(neural.__file__).parents[1]), str(Path(__file__).parent)]
    path = os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))
    probes = [subprocess.Popen([sys.executable, "-c", THREADS_PROBE, *runs], text=True,
                               stdout=subprocess.PIPE,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                                        PYTHONPATH=path))
              for threads in (1, 2)]
    outs = [probe.communicate(timeout=300)[0] for probe in probes]
    assert [probe.returncode for probe in probes] == [0, 0]
    return [out.splitlines() for out in outs]


@pytest.mark.skipif(neural._openblas_threads() is None or (os.cpu_count() or 1) < 2,
                    reason="no OpenBLAS thread setter, or fewer than 2 CPUs")
def test_a_runs_bits_do_not_depend_on_the_callers_blas_thread_count():
    # every architecture, SEMI's 28561-action accept head on EXP2_ARCH_4X4,
    # and a sweep's workers: every product runs on one BLAS thread, and the
    # caller's count comes back after each
    runs = [f"{name}:{arch}" for name, arch in (
        ("EXP1_TRADING", ARCH_DIST_PS), ("EXP2_ARCH_2X2", ARCH_FULL),
        ("EXP2_ARCH_2X2", ARCH_SEMI), ("EXP2_ARCH_2X2", ARCH_DIST),
        ("EXP2_ARCH_4X4", ARCH_SEMI), ("EXP3_SCARCITY_2C_COMM", ARCH_DIST_PRICE))]
    (*one, sweep, counts), (*two, swept, handed_back) = threads_probes(*runs, "sweep")
    assert len(one) == len(runs) and two == one
    # the workers' records are the serial sweep's, under either count
    assert sweep == swept and sweep.endswith(" True")
    assert (counts, handed_back) == ("forward:1 init_params:1", "forward:2 init_params:2")
