"""Agent architectures, reward routing, and the per-step training loop.

Every architecture groups the same decisions of an agent: accept an offer on
core m, offer slot k's job to a core, and under free pricing price slot k's
offer. ``unit_layout`` lists the positions each acting unit decides, in digit
order: the distributed variants give each position its own tiny network
(optionally sharing parameters within each kind), ``SEMI`` folds the accept
positions into one unit and the offer positions into another, and ``FULL``
folds them all into one. A unit's action is one little-endian mixed-radix
digit per position: digit i has radix r[i] and weight prod(r[:i]), so the
unit has prod(r) actions, and a distributed unit is the one-digit case.

A run's agents are grouped into homes, one per padded layout of their
parameter sets (widest in-width, hidden width and action count):
``build_homes`` makes them, laying out and guarding each architecture once,
and the ``Trainer`` calls each once a step. A ``Home`` keeps the weights
and learned state of all its agents in one ``ParamStack``, each agent's sets
a contiguous row range of it, initialized together in one call, acts for
all of them in one batched pass per step, whatever the architectures and
however many rows the pass has, credits them in one walk of each step's
result, and saves and loads them as one checkpoint.

A unit is a row of its home: everything of unit u that changes as it acts
and learns is index u of the ``Home``'s fields. That is its spec, agent and
parameter set; its sample and update streams; its rollout window, row u of
the home's window arrays, whose ``draws`` row t is the uniform that sampled
the decision of row t; its update count, the rewards routed to it before
its first decision and its last update's stats; and, for a price setter, its
decisions on this step's and the last step's offers (``Home.pending`` and
``Home.offered``). ``Home.at`` maps each (agent, position) to the unit
that decides it and is credited for it, and ``Home.setters`` lists the
(agent, slot, unit) of each price setter.

A pass acts for every unit with a live position (accept m when trading is
on and its agent owns core m; every offer), one row each. The rows are the
units with an offer position first, then the accept-only units of owned
cores, each group in agent order and then in ``unit_layout`` order. Each
position has one digit record (unit, weight, radix, key), built once by the
home. The units with an offer position are units 0, 1, ... and lead every
pass, so an offer record's unit is its row, and the home's offer records
serve every pass. The ``Plan`` of a pass, the rows' units, parameter
sets, obs index rows and the owned cores' accept records, depends on the
core ownership alone; ``Home.plan``'s cache keeps it for the
``PLANS_KEPT`` ownerships used last. A pass costs a fixed number of numpy
calls: one gather of the step's ``market_image`` (see ``marketsched.obs``)
through the rows' indices, one ``forward`` over all rows with each row's
parameter set (whose rows of the home stack it keeps until the home's next
update or load; on one BLAS thread, as are the home's initialization and
updates), one draw per unit and one vectorized inverse-CDF step that
turns it into the unit's action, one ``Home.record``
of every row, padded as the pass reads it, and one decode of every live
position's digit. Each row's position in its unit's window is computed once
a pass, from the plan's window starts, and serves both the draw lookup and
the record. A unit takes the draws of a window from its own sample stream at
once, ``rollout_length`` of them, as the window starts, which gives the
same numbers as one draw per decision.
Price setters follow in a second pass over the offers just made, since
what they see depends on the offer's target core; a price setter records
only its traded decisions, so it draws one uniform per decision.

Update-order contract: a row's wave is the number of due units (whose
rollout windows are full) of its set among the rows before it, and the
waves go in order, wave w updating the sets of its due units, closing
their windows with this decision's value; a row of wave 1 or later first
acts again, on the weights the earlier waves left, with the draw it
already took. The pass then records every row. An update reads only its
own units' windows, so recording after the waves writes what recording
each wave's rows after its update would. A set's rows keep their relative
order in every plan, all of one agent, so each set sees exactly the
updates, in the order and on the windows, that acting one unit at a time
in row order gives it. With no unit due, every row is of wave 0. A wave's
due units are of distinct sets, which ``Home.update`` updates together,
one ``ppo_update`` per network shape, whatever agents they belong to;
updates of distinct sets touch disjoint rows, so their order within a wave
changes no bit.

Reward routing: after the market step, ``route_rewards`` credits each
payout of the result to the unit that earned it, one agent of the home
after another (units of different agents share no state, so the order
across agents changes no bit): each settlement's net to the acceptor of
its core; then per trade the job's priority to the offering slot's unit,
and its pricing reward to that slot's price setter, committing the
setter's decision on the offer. An offer lives one step, so a price
setter holds each decision for one step and then drops it uncommitted. A
reward adds to the unit's latest decision, so a payout that lands steps
after the causing action still credits it. A window's rewards start at 0.0
and are zeroed again by the update that closes it; a reward enters a window
only through ``Home.credit``, a committed price too, so recording a
decision writes no reward.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import ConfigError, EnvConfig, PricingMode
from .env import JointActions, SchedulingEnv, StepResult
from .neural import (
    ParamStack,
    PPOHyper,
    _span,
    forward,
    gae,
    init_params,
    sample_rows,
)
from .obs import (
    PRICE_OBS_LEN,
    acceptor_index,
    acceptor_obs_len,
    market_image,
    offer_index,
    offer_obs_len,
    price_index,
)
from .ppo import TrainBatch, ppo_update
from .rng import (
    STREAM_UNIT_INIT,
    STREAM_UNIT_SAMPLE,
    STREAM_UNIT_UPDATE,
    derive_rng,
)

ARCH_FULL = "FULL"
ARCH_SEMI = "SEMI"
ARCH_DIST = "DIST"
ARCH_DIST_PS = "DIST_PS"
ARCH_DIST_PRICE = "DIST_PRICE"

ARCHITECTURES = (ARCH_FULL, ARCH_SEMI, ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE)

UnitKey = tuple[str, int]
Position = tuple[str, int]  # ("accept", core), ("offer", slot) or ("price", slot)
Digit = tuple[int, int, int, tuple[int, int]]  # (unit or row, weight, radix, (agent, m or k))


# the largest action-space cardinality printed in full; Python formats no
# int of more than 4300 digits, and no network could take this many actions
MAX_PRINTABLE = 2**63 - 1


class InfeasibleArchitectureError(RuntimeError):
    def __init__(self, arch: str, cardinality: int, threshold: int):
        # the arguments, not the message: a copy is rebuilt from them when a
        # sweep's worker pool hands the error back pickled
        super().__init__(arch, cardinality, threshold)
        self.arch, self.cardinality, self.threshold = arch, cardinality, threshold

    def __str__(self) -> str:
        shown = self.cardinality if self.cardinality <= MAX_PRINTABLE else "> 2^63"
        return (f"{self.arch} needs an action space of {shown}, above the guard "
                f"threshold {self.threshold}")


def commercial_price_reward(priority: int, price: int) -> float:
    """Pays the margin between job priority and bid; a matched bid pays 0.5."""
    return 0.5 if price == priority else float(priority - price)


def noncommercial_price_reward(priority: int, price: int) -> float:
    """Pays the full priority unless the bid overshoots it."""
    return float(priority) if priority >= price else float(priority - price)


@dataclass(frozen=True)
class UnitSpec:
    """One acting unit: the positions it decides, in digit order, one radix
    per position, its observation width and its network."""

    key: UnitKey
    positions: tuple[Position, ...]
    radices: tuple[int, ...]
    obs_width: int
    hidden_width: int
    param_key: str

    @property
    def action_count(self) -> int:
        return math.prod(self.radices)

    def capped_count(self, bound: int) -> int:
        """``action_count`` if at most ``bound``, else the first product of
        leading radices above it: an exact count can run to millions of digits."""
        count = 1
        for radix in self.radices:
            count *= radix
            if count > bound:
                break
        return count

    @cached_property
    def cores(self) -> tuple[int, ...]:
        """The cores of the unit's accept positions."""
        return tuple(i for kind, i in self.positions if kind == "accept")

    @cached_property
    def slots(self) -> tuple[int, ...]:
        """The slots of the unit's offer positions."""
        return tuple(i for kind, i in self.positions if kind == "offer")


def unit_layout(arch: str, config: EnvConfig) -> list[UnitSpec]:
    """Acting units of one agent under the given architecture.

    A unit observes its accept positions' acceptor layouts, then one offer
    layout of all its offer positions' slots, side by side; a price setter
    observes the price layout.
    """
    m, n, k = config.num_cores, config.num_agents, config.num_slots
    radix = {"accept": n * k + 1, "offer": m + 1, "price": config.max_prio + 1}
    accepts = [("accept", i) for i in range(m)]
    offers = [("offer", i) for i in range(k)]

    def unit(key: UnitKey, positions: list[Position], hidden_width: int,
             param_key: str) -> UnitSpec:
        kinds = [kind for kind, _ in positions]
        offers = kinds.count("offer")
        obs_width = (kinds.count("accept") * acceptor_obs_len(n, k)
                     + (offer_obs_len(m, offers) if offers else 0)
                     + kinds.count("price") * PRICE_OBS_LEN)
        return UnitSpec(key, tuple(positions), tuple(radix[kind] for kind in kinds),
                        obs_width, hidden_width, param_key)

    if arch in (ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE):
        shared = arch != ARCH_DIST
        specs = [unit(pos, [pos], 16, pos[0] if shared else f"{pos[0]}_{pos[1]}")
                 for pos in accepts + offers]
        if arch == ARCH_DIST_PRICE:
            specs += [unit(("price", i), [("price", i)], 16, "price") for i in range(k)]
        return specs
    if arch == ARCH_SEMI:
        return [unit(("accept", 0), accepts, 32, "accept"),
                unit(("offer", 0), offers, 32, "offer")]
    if arch == ARCH_FULL:
        return [unit(("full", 0), accepts + offers, 64, "full")]
    raise ConfigError(f"unknown architecture {arch!r}")


def feasibility_guard(arch: str, config: EnvConfig) -> tuple[bool, int]:
    """(ok, largest unit action space, exact up to the larger of the guard
    threshold and ``MAX_PRINTABLE``). Construction is rejected when any
    unit's space exceeds the configured guard threshold."""
    return _feasible(unit_layout(arch, config), config)


def _feasible(specs: list[UnitSpec], config: EnvConfig) -> tuple[bool, int]:
    worst = max(spec.capped_count(max(config.guard_threshold, MAX_PRINTABLE))
                for spec in specs)
    return worst <= config.guard_threshold, worst


Layout = tuple[list[UnitSpec], dict[str, int], list[tuple[int, int, int]]]  # see _parameter_sets


def _parameter_sets(arch: str, config: EnvConfig) -> Layout:
    """The units of ``unit_layout``, the row of each parameter set by key, in
    order of first use, and each set's (in_width, hidden_width, action_count).
    An architecture that ``feasibility_guard`` rejects raises."""
    specs = unit_layout(arch, config)
    ok, worst = _feasible(specs, config)
    if not ok:
        raise InfeasibleArchitectureError(arch, worst, config.guard_threshold)
    rows: dict[str, int] = {}
    shapes = []
    for spec in specs:
        if spec.param_key not in rows:
            rows[spec.param_key] = len(shapes)
            shapes.append((spec.obs_width, spec.hidden_width, spec.action_count))
    return specs, rows, shapes


def _initialized(layouts: dict[int, Layout], seed: int) -> ParamStack:
    """A stack of the parameter sets of agent a's layout, for each a in
    order, allocated before any weight is drawn, so that no weight is
    copied. Set i of agent a draws from its own stream, (seed,
    ``STREAM_UNIT_INIT``, a, i), and all the stack's matrices of one tensor
    and one shape share one stacked QR (``init_params``, one BLAS thread)."""
    sets = [(a, i, shape) for a, (_, _, own) in layouts.items() for i, shape in enumerate(own)]
    stack = ParamStack([shape for _, _, shape in sets])
    init_params(stack.views, [derive_rng(seed, STREAM_UNIT_INIT, a, i) for a, i, _ in sets])
    return stack


class Plan(NamedTuple):
    """The rows of a home's acting pass for one core ownership: each row's
    unit, where its unit's window starts in the home's window arrays with
    their unit and window axes flattened (``ids * rollout_length``),
    parameter set, last valid action and obs indices into the market image;
    and the digit record of each owned core's accept position, in core
    order, its unit replaced by its row."""

    ids: np.ndarray
    starts: np.ndarray
    sets: np.ndarray
    last: np.ndarray
    index: np.ndarray
    accepts: list[Digit]


# the plans a home keeps, most recently used last: on EXP2_ARCH_4X4 DIST the
# core ownership takes hundreds of values in a 2000-step episode, and 16
# plans hit about as often as 64
PLANS_KEPT = 16


def _rank(spec: UnitSpec) -> int:
    """Units with an offer position first, then accept-only units, then
    price setters."""
    return 0 if spec.slots else 1 if spec.cores else 2


def _plan(prefix: list[int], accept_digits: list[dict[int, Digit]], length: int,
          sets: np.ndarray, last: np.ndarray, index: np.ndarray, owners: tuple[int, ...]
          ) -> Plan:
    """The plan of a home's pass when core m's owner is ``owners[m]``, from
    the home's tables of the same names. Its rows are every unit with an
    offer position (``prefix``), then every accept-only unit of a core its
    agent owns, each in unit order; the accept position of every such core
    takes its digit. ``Home.plan`` caches it bound to these tables, not to
    the home: a cache of a bound method refers back to its home, so that
    every home would be a reference cycle, freed only by the garbage
    collector."""
    accepts = [digits[owner] for owner, digits in zip(owners, accept_digits)
               if owner in digits]
    first = len(prefix)
    extra = sorted({u for u, _, _, _ in accepts if u >= first})
    ids = np.array(prefix + extra)
    return Plan(ids, ids * length, sets[ids], last[ids], index[ids],
                [(u if u < first else first + extra.index(u), weight, radix, key)
                 for u, weight, radix, key in accepts])


class Home:
    """The agents whose parameter sets share one padded layout: their sets,
    the rows of the home's ``stack``, in agent order and each agent's in
    order of first use, row i named ``names[i]``, ``agent<A>/<key>``, as a
    checkpoint names it; and the acting and learning state of their units,
    unit u at index u of each per-unit field, in row order (see the module
    docstring): ``specs``, ``agents`` and parameter ``sets``;
    ``sample_rngs`` and ``update_rngs``, the streams of (seed, stream,
    agent, index in ``unit_layout``); the rollout window, row u of ``obs``
    (units, ``length``, widest obs width, of which the unit's observations
    fill the first ``specs[u].obs_width``) and of ``actions``, ``logps``,
    ``values``, ``rewards`` and ``draws`` (units, ``length``), filled to
    ``sizes[u]`` and emptied by the update that closes it, save ``draws``,
    which is filled whole as the window starts, and ``rewards``, which hold
    0.0 until ``credit`` adds to them and are zeroed by that update; with
    the unit and window axes flattened, unit u's row t is row
    ``u * length + t``; the ``updates`` count, the
    ``dropped`` rewards and the last update's ``stats``; ``pending`` and
    ``offered``, by unit, each price setter's decision on this step's offer
    and on the last step's (``route_rewards`` commits the traded ones of
    ``offered``, then moves ``pending`` there); ``at``, the unit of each
    (agent, position); ``setters``, the (agent, slot, unit) of each price
    setter; and ``plan``, the ``Plan`` of a pass by core ownership, whose
    cache keeps the plans of recent passes."""

    def __init__(self, layouts: dict[int, Layout], config: EnvConfig, hyper: PPOHyper, seed: int):
        """The home of agent a of layout ``layouts[a]`` (``_parameter_sets``),
        for each a in order."""
        self.config = config
        self.hyper = hyper
        self.stack = _initialized(layouts, seed)
        rows = {(agent, key): row for row, (agent, key) in enumerate(
            (agent, key) for agent, (_, keys, _) in layouts.items() for key in keys)}
        self.names = [f"agent{agent}/{key}" for agent, key in rows]
        self.length = length = hyper.rollout_length
        order = sorted(((agent, i, spec) for agent, (specs, _, _) in layouts.items()
                        for i, spec in enumerate(specs)), key=lambda item: _rank(item[2]))
        self.specs = [spec for _, _, spec in order]
        self.agents = [agent for agent, _, _ in order]
        self.sets = np.array([rows[agent, spec.param_key] for agent, _, spec in order])
        self.sample_rngs, self.update_rngs = (
            [derive_rng(seed, stream, agent, i) for agent, i, _ in order]
            for stream in (STREAM_UNIT_SAMPLE, STREAM_UNIT_UPDATE))
        self.updates = [0] * len(order)
        self.dropped = [0.0] * len(order)
        self.stats: list[dict] = [{} for _ in order]
        self.at = {(agent, pos): u for u, (agent, spec) in enumerate(zip(self.agents, self.specs))
                   for pos in spec.positions}
        self.setters = [(agent, k, u) for (agent, (kind, k)), u in self.at.items()
                        if kind == "price"]
        self.pending: dict[int, tuple] = {}
        self.offered: dict[int, tuple] = {}
        self.last = self.stack.last_action[self.sets]
        units = len(order)
        self.obs = np.empty((units, length, max(spec.obs_width for spec in self.specs)))
        self.actions = np.empty((units, length), dtype=np.intp)
        self.logps, self.values, self.draws = (np.empty((units, length)) for _ in range(3))
        self.rewards = np.zeros((units, length))
        self.sizes = np.zeros(units, dtype=np.intp)
        # the units that lead every plan, units 0, 1, ... (see _rank); the
        # digit records of the offer positions, in unit order, and by core,
        # of each agent's accept position; and each unit's observation as a
        # row of indices into the market image, a price setter's left 0,
        # since what it sees depends on the offer
        prefix = [u for u, spec in enumerate(self.specs) if spec.slots]
        self.offer_digits: list[Digit] = []
        accept_digits: list[dict[int, Digit]] = [{} for _ in range(config.num_cores)]
        self.index = np.zeros((units, self.stack.in_width), dtype=np.intp)
        for u, (agent, spec) in enumerate(zip(self.agents, self.specs)):
            weight = 1
            for (kind, i), radix in zip(spec.positions, spec.radices):
                if kind == "offer":
                    self.offer_digits.append((u, weight, radix, (agent, i)))
                elif kind == "accept":
                    accept_digits[i][agent] = (u, weight, radix, (agent, i))
                weight *= radix
            cells = [i for m in spec.cores for i in acceptor_index(config, agent, m)]
            if spec.slots:
                cells += offer_index(config, agent, spec.slots)
            self.index[u, :len(cells)] = cells
        # owners[m] owns core m; no owners: no accept position is live
        self.plan = lru_cache(PLANS_KEPT)(partial(
            _plan, prefix, accept_digits, length, self.sets, self.last, self.index))

    def save(self, path) -> None:
        """Write every agent's learned state to one ``.npz`` (see
        ``ParamStack.save``), its rows named ``names``."""
        self.stack.save(path, self.names)

    def load(self, path) -> None:
        """Restore in place the state ``save`` wrote for a home of these
        names; anything else is rejected as ``ParamStack.load`` says."""
        self.stack.load(path, self.names)

    def act(self, env: SchedulingEnv, joint: JointActions, image: np.ndarray) -> None:
        """The pass of the module docstring over all of this home's agents.
        ``image`` is the step's ``market_image``."""
        owners = tuple([core.owner for core in env.cores]) if env.config.trading_enabled else ()
        plan = self.plan(owners)
        actions = self._act_rows(plan, image.take(plan.index)).tolist()
        for decided, digits in ((joint.offers, self.offer_digits), (joint.accepts, plan.accepts)):
            decided.update([(key, actions[r] // weight % radix)
                            for r, weight, radix, key in digits])
        if not env.config.pricing_mode.is_free:
            return
        # the price setters' pass over the offers just made
        priced = [(a, k, u) for a, k, u in self.setters
                  if joint.offers[(a, k)] > 0 and env.slots[a][k] is not None]
        if not priced:
            return
        pad = [0] * (self.stack.in_width - PRICE_OBS_LEN)
        obs = image[np.array([price_index(env.config, a, k, joint.offers[(a, k)] - 1) + pad
                              for a, k, _ in priced])]
        ids = np.array([u for _, _, u in priced])
        logits, values = forward(self.stack, obs, self.sets[ids])
        draws = np.array([self.sample_rngs[u].random() for u in ids.tolist()])
        prices, logps = sample_rows(logits, draws, self.last[ids])
        for (a, k, u), row, price, logp, value in zip(priced, obs, prices.tolist(),
                                                      logps.tolist(), values.tolist()):
            self.pending[u] = (row[:PRICE_OBS_LEN], price, logp, value)
            joint.prices[(a, k)] = price

    def _act_rows(self, plan: Plan, obs: np.ndarray) -> np.ndarray:
        """Act for the plan's units on the rows of ``obs``: one forward over
        all rows, each unit's draw for its window's next row, the waves of
        the module docstring if a window is full, then one record of every
        row, at the flat window positions the draws were taken at: the
        plan's starts plus each window's size, 0 for a full one."""
        ids, length = plan.ids, self.length
        sizes = self.sizes[ids]
        t = sizes % length
        at = plan.starts + t
        if 0 in t.tolist():
            # a window starting, or full and about to be updated: a new block
            for u in ids[t == 0].tolist():
                self.draws[u] = self.sample_rngs[u].random(length)
        draws = self.draws.take(at)
        logits, values = forward(self.stack, obs, plan.sets)
        actions, logps = sample_rows(logits, draws, plan.last)
        if max(sizes.tolist()) == length:
            due = sizes == length
            # each row's wave: the due rows of its set before it
            waves = np.tril((plan.sets[:, None] == plan.sets) & due, -1).sum(axis=1)
            for wave in range(waves.max() + 1):
                rows = np.flatnonzero(waves == wave)
                if wave:
                    # the earlier waves moved these rows' sets: they act on
                    # the new weights, with the draws they already took
                    logits, values[rows] = forward(self.stack, obs[rows], plan.sets[rows])
                    actions[rows], logps[rows] = sample_rows(logits, draws[rows], plan.last[rows])
                updating = rows[due[rows]]
                if updating.size:
                    self.update(ids[updating].tolist(), values[updating].tolist())
        self.record(ids, at, obs, actions, logps, values)
        return actions

    def record(self, ids: int | np.ndarray, at: int | np.ndarray, obs: np.ndarray, actions,
               logps, values) -> None:
        """Append one row to the window of each unit of ``ids``, an array of
        distinct units whose windows are not full, the row of unit ``ids[i]``
        being row i of the other arguments (a scalar goes to every row); or
        one row to the window of unit ``ids``, an int. ``at`` is where each
        row goes in the window arrays with their unit and window axes
        flattened, ``u * length + sizes[u]`` for unit u. An observation
        narrower than the home's widest fills its row from entry 0 on. The
        row's reward is left 0.0, as the window's rewards start, for
        ``credit`` to add to."""
        self.obs.reshape(-1, self.obs.shape[-1])[at, :obs.shape[-1]] = obs
        for field, value in ((self.actions, actions), (self.logps, logps),
                             (self.values, values)):
            field.put(at, value)
        self.sizes[ids] += 1

    def update(self, rows: list[int], bootstraps: Sequence[float]) -> None:
        """Close the full windows of units ``rows``, of distinct parameter
        sets, with their ``bootstraps`` values and update those sets, one
        ``ppo_update`` per network shape, whose batch has a leading window
        axis and, if the shape's units are a run, a view of ``obs`` for
        observations. Each unit counts the update and keeps its set's
        stats; its window is emptied and its rewards zeroed."""
        hyper = self.hyper
        shapes: dict[tuple[int, int, int], list[int]] = {}
        for i, u in enumerate(rows):
            shapes.setdefault(self.stack.shapes[self.sets[u]], []).append(i)
        for group in shapes.values():
            ids = [rows[i] for i in group]
            gaes = [gae(self.rewards[u], self.values[u], bootstraps[i], hyper.discount,
                        hyper.gae_lambda) for u, i in zip(ids, group)]
            batch = TrainBatch(self.obs[_span(np.array(ids)), :, :self.specs[ids[0]].obs_width],
                               self.actions[ids], self.logps[ids],
                               np.array([a for a, _ in gaes]), np.array([r for _, r in gaes]))
            stats = ppo_update(self.stack, self.sets[ids].tolist(), batch, hyper,
                               [self.update_rngs[u] for u in ids])
            self.sizes[ids] = 0
            self.rewards[ids] = 0.0
            for u, unit_stats in zip(ids, stats):
                self.stats[u] = unit_stats
                self.updates[u] += 1

    def credit(self, u: int, reward: float) -> None:
        """Add ``reward`` to unit u's latest decision, the newest row of its
        window; before its first decision, to its ``dropped`` rewards."""
        size = self.sizes[u]
        if size:
            self.rewards[u, size - 1] += reward
        else:
            self.dropped[u] += reward

    def resolve_price(self, u: int, reward: float) -> None:
        """Commit price setter u's decision of the last step's offer, if it
        holds one: ``record`` it as its window's newest row, at
        ``u * length + sizes[u]``, then ``credit`` it ``reward``. A window
        this fills is updated at once, with bootstrap 0.0."""
        decision = self.offered.pop(u, None)
        if decision is None:
            return
        self.record(u, u * self.length + self.sizes[u], *decision)
        self.credit(u, reward)
        if self.sizes[u] >= self.length:
            self.update([u], [0.0])


class AgentBundle:
    """One agent's parameter sets in a ``stack`` of their own, built as a
    home builds its sets (``_initialized``). No run constructs one:
    perfbench's set-up (``time_setup``) times its construction, and passes
    ``hyper``, which is not read."""

    def __init__(self, arch: str, agent: int, config: EnvConfig, hyper: PPOHyper, seed: int):
        self.stack = _initialized({agent: _parameter_sets(arch, config)}, seed)


def route_rewards(home: Home, result: StepResult) -> None:
    """Credit one step's payouts to the units of every agent of ``home``
    in one walk, as the module docstring says; auctioneer income, and the
    payouts of agents of other homes, are routed to nobody here."""
    at = home.at
    price_reward = (commercial_price_reward
                    if home.config.pricing_mode is PricingMode.FREE_COMMERCIAL
                    else noncommercial_price_reward)
    for settlement in result.settlements:
        for agent, payout in settlement.payouts.items():
            u = at.get((agent, ("accept", settlement.core)))
            if u is not None:
                home.credit(u, float(payout))
    for trade in result.trades:
        u = at.get((trade.buyer, ("offer", trade.source_slot)))
        if u is None:
            continue
        home.credit(u, float(trade.job_priority))
        setter = at.get((trade.buyer, ("price", trade.source_slot)))
        if setter is not None:  # holds no decision unless pricing is free
            home.resolve_price(setter, price_reward(trade.job_priority, trade.price))
    home.offered, home.pending = home.pending, {}


def build_homes(archs: Sequence[str], config: EnvConfig, hyper: PPOHyper, seed: int
                ) -> list[Home]:
    """The homes of a run, agent i of architecture ``archs[i]``: one per
    padded layout of the agents' parameter sets (widest in-width, hidden
    width and action count), in order of each layout's first agent, its
    agents in order, so that a Trainer acts for them in one pass and
    updates their sets together. Each architecture is laid out and guarded
    once; ``archs`` names one per agent of ``config``, else ConfigError."""
    if len(archs) != config.num_agents:
        raise ConfigError(f"{len(archs)} architectures for {config.num_agents} agents")
    layouts = {arch: _parameter_sets(arch, config) for arch in dict.fromkeys(archs)}
    homes: dict[tuple[int, ...], dict[int, Layout]] = {}
    for agent, arch in enumerate(archs):
        widest = tuple(max(dim) for dim in zip(*layouts[arch][2]))
        homes.setdefault(widest, {})[agent] = layouts[arch]
    return [Home(agents, config, hyper, seed) for agents in homes.values()]


class Trainer:
    """Synchronizes homes (see ``build_homes``) against one environment:
    observe, act, step, route rewards, update whichever rollout windows
    filled."""

    def __init__(self, env: SchedulingEnv, homes: list[Home]):
        self.env = env
        self.homes = homes

    def step(self) -> StepResult:
        joint = JointActions()
        image = market_image(self.env)
        for home in self.homes:
            home.act(self.env, joint, image)
        result = self.env.step(joint)
        for home in self.homes:
            route_rewards(home, result)
        return result
