"""The spans perfbench traces: which of them name nothing in the package,
and which a run calls.

``perfbench/tracing.py`` skips a traced name that the package no longer
defines, so its span silently reads 0 calls. This pins the set of such dark
spans, so that removing or renaming another traced function fails here
instead of darkening its span. A name that is still defined but no longer
called reads 0 calls too, so a traced run must call each span a learned
run goes through.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from marketsched import harness  # noqa: E402
from tracing import TRACED_NAMES, Tracer  # noqa: E402

# agents.act: a bundle no longer acts on its own; its Home acts for it
DARK = {"obs.encode_acceptor_obs", "obs.encode_offer_obs", "neural.sample", "agents.act"}


def test_only_the_known_spans_are_dark():
    dark = {name for owner, attr, name in TRACED_NAMES if owner.__dict__.get(attr) is None}
    assert dark == DARK


def test_a_learned_run_calls_every_span_it_goes_through():
    # windows of 64 steps, so that the 200 steps take updates; the run is
    # called through its module, where the tracer wraps it
    data = harness.builtin_scenarios()["EXP1_TRADING"].to_dict()
    scenario = harness.Scenario.from_dict(harness.apply_overrides(
        data, ["total_steps=200", "window=100", "hyper.rollout_length=64"]))
    tracer = Tracer()
    with tracer.installed():
        harness.run_scenario(scenario, 1)
    calls = {name: int(totals["calls"]) for name, totals in tracer.layer_totals().items()}
    for name in ("setup.env", "neural.forward", "neural.ppo_update",
                 "agents.route_rewards", "agents.trainer_step", "harness.run_scenario"):
        assert calls.get(name, 0) >= 1, name
    # a run builds its homes without AgentBundle, which perfbench's set-up
    # still times on its own
    assert calls.get("setup.agent_bundle", 0) == 0
