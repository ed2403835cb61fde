"""Span tracing from outside the program.

``Tracer.installed()`` replaces public names of ``marketsched`` where their
callers look them up with wrappers that record one span per call: name,
start, end and the index of the enclosing span. Wrappers pass ``*args,
**kwargs`` through and return results untouched, so a traced run computes
exactly what an untraced one does. A name the program no longer has is
skipped; its time then shows up as the caller's self time.

The wrapper on ``SchedulingEnv.step`` also counts what the market did and
checks it: ``check_invariants()`` after every step, and every settlement's
payouts summing to the terminated job's priority. Counting and checks run in
``check`` spans, so that this bookkeeping is charged neither to ``env.step``
nor to its caller, and is taken out of shares and overhead.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, NamedTuple

from marketsched import agents, baseline, env, harness

CHECK_SPAN = "check"

# (owner, attribute, span name); the owner is the module or class whose
# attribute the caller reads at call time.
TRACED_NAMES = (
    (env.SchedulingEnv, "__init__", "setup.env"),
    (agents.AgentBundle, "__init__", "setup.agent_bundle"),
    (agents, "encode_acceptor_obs", "obs.encode_acceptor_obs"),
    (agents, "encode_offer_obs", "obs.encode_offer_obs"),
    (agents, "forward", "neural.forward"),
    (agents, "sample", "neural.sample"),
    (agents, "ppo_update", "neural.ppo_update"),
    (agents.AgentBundle, "act", "agents.act"),
    (agents, "route_rewards", "agents.route_rewards"),
    (agents.Trainer, "step", "agents.trainer_step"),
    (harness, "run_scenario", "harness.run_scenario"),
    (baseline, "scripted_actions", "baseline.scripted_actions"),
    (baseline, "scripted_env_trace", "baseline.scripted_env_trace"),
)

# Self time that counts as acting: sample + forward + encode + AgentBundle.act.
ACTING_SPANS = ("agents.act", "obs.encode_acceptor_obs", "obs.encode_offer_obs",
                "neural.forward", "neural.sample")


class CheckFailed(AssertionError):
    """A market invariant or a settlement sum was violated."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Spans and market counts of one traced call tree, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys(
            ("grants", "agent_trades", "voided", "completions", "accept_attempts"), 0)
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _wrap_step(self, step):
        @functools.wraps(step)
        def traced_step(market, actions):
            attempts = self.call(CHECK_SPAN, acceptance_attempts, (market, actions), {})
            result = self.call("env.step", step, (market, actions), {})
            self.call(CHECK_SPAN, self._check_and_count, (market, result, attempts), {})
            return result
        return traced_step

    def _check_and_count(self, market, result, attempts: int) -> None:
        check_step(market, result)
        grants = sum(1 for t in result.trades if t.by_auctioneer)
        self.counts["grants"] += grants
        self.counts["agent_trades"] += len(result.trades) - grants
        self.counts["voided"] += result.voided_acceptances
        self.counts["completions"] += len(result.completions)
        self.counts["accept_attempts"] += attempts

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in TRACED_NAMES:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            step = env.SchedulingEnv.__dict__["step"]
            originals.append((env.SchedulingEnv, "step", step))
            env.SchedulingEnv.step = self._wrap_step(step)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, inclusive time and call count."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "s": 0.0, "calls": 0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals[span.name]
            entry["self_s"] += own
            entry["s"] += span.end - span.start
            entry["calls"] += 1
        return dict(totals)


def acceptance_attempts(market, actions) -> int:
    """Accept actions that env.step will consider: agent-owned cores only."""
    if not market.config.trading_enabled:
        return 0
    return sum(1 for core in market.cores
               if core.owner != env.AUCTIONEER
               and actions.accepts.get((core.owner, core.index), 0) > 0)


def check_step(market, result) -> None:
    try:
        market.check_invariants()
    except AssertionError as err:
        raise CheckFailed(f"step {result.time}: {err}") from None
    priority = {c.job_uid: c.priority for c in result.completions}
    for s in result.settlements:
        paid = sum(s.payouts.values())
        if paid != priority[s.job_uid]:
            raise CheckFailed(
                f"step {result.time}: core {s.core} paid out {paid}, "
                f"job priority is {priority[s.job_uid]}")


def program_seconds(tracer: Tracer, wall_s: float) -> float:
    """The part of a traced call's wall_s that the program ran: the checks
    and counts are not part of it, so their time is taken out before shares
    and overhead are formed."""
    return wall_s - sum(s.end - s.start for s in tracer.spans if s.name == CHECK_SPAN)


def layer_metrics(tracer: Tracer, wall_s: float, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run call that took wall_s seconds."""
    totals = tracer.layer_totals()

    def get(name: str, quantity: str) -> float:
        return float(totals.get(name, {}).get(quantity, 0.0))

    run_s = program_seconds(tracer, wall_s)
    out: dict[str, float] = {}
    for name in ("env.step", "obs.encode_acceptor_obs", "obs.encode_offer_obs",
                 "neural.forward", "neural.sample", "neural.ppo_update",
                 "agents.route_rewards"):
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("agents.act", "agents.trainer_step", "harness.run_scenario",
                 "baseline.scripted_actions", "baseline.scripted_env_trace"):
        out[f"{name}.self_s"] = get(name, "self_s")
    c = tracer.counts
    out.update({f"env.{key}": float(c[key])
                for key in ("grants", "agent_trades", "voided", "completions")})
    attempts = c["accept_attempts"]
    out["env.accept_success"] = c["agent_trades"] / attempts if attempts else 0.0
    out["neural.forward.calls_per_step"] = get("neural.forward", "calls") / steps
    out["agents.acting.share"] = sum(get(n, "self_s") for n in ACTING_SPANS) / run_s
    out["neural.ppo_update.share"] = get("neural.ppo_update", "self_s") / run_s
    out["env.step.share"] = get("env.step", "self_s") / run_s
    return out
