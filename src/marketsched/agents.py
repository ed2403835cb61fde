"""Agent architectures, reward routing, and the per-step training loop.

Every architecture groups the same decisions of an agent: accept an offer on
core m, offer slot k's job to a core, and under free pricing price slot k's
offer. ``unit_layout`` lists the positions each acting unit decides, in digit
order: the distributed variants give each position its own tiny network
(optionally sharing parameters within each kind), ``SEMI`` folds the accept
positions into one unit and the offer positions into another, and ``FULL``
folds them all into one. Mixed-radix arithmetic turns a unit's action into one
digit per position, so a distributed unit is the one-digit case.

A bundle keeps all its parameter sets in one ``ParamStack``. The bundles
that ``build_bundles`` makes for one run keep the weights of all bundles
whose stacks share a padded layout (widest in-width, hidden width and action
count) in one home ``ParamStack``, each bundle's rows, moments and step
counts a contiguous range of it, and the ``Trainer`` acts for all of
them in one batched pass per step and home, whatever the architectures and
however many rows the pass has.
Every unit with a live position (accept m when trading is on and its agent
owns core m; every offer) acts on one row of a (units, width) array: the
step's ``market_image`` gathered through each unit's row of indices (see
``marketsched.obs``), one gather for all rows. One ``forward`` runs over all
rows with each row's parameter set, and one vectorized inverse-CDF step
turns one uniform draw per unit, taken from that unit's own sample stream,
into its action. Live positions take their digits, the others are dropped.
Price setters follow in a second pass over the offers just made, since what
they see depends on the offer's target core. ``AgentBundle.act`` is the same
pass for one bundle.

Update-order contract: the pass does exactly what acting one unit at a time
in row order would, where a unit whose rollout window is full first updates
its parameter set, closing the window with this decision's value, and the
later rows of that set (all of the same agent) then act on the updated
weights with the draws they already took. The pass keeps it in waves. A wave
walks the rows not yet booked in order: a row of a set that has no due unit
(one whose window is full) before it is recorded; the first due unit of each
set is collected, so the collected units' sets are distinct; the later rows
of those sets are deferred. The collected sets are updated together, one
``ppo_update`` per network shape, each due unit's row is recorded, and the
deferred rows are evaluated again in one ``forward`` and ``sample_rows``
with their same draws, for the next wave to walk. The bundles of one home
share their learned state with it (see ``marketsched.neural``), so a wave
updates the sets of all of them at once. Updates of distinct sets touch
disjoint rows, so each set sees exactly the updates, in the order, that
acting one unit at a time gives it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .actions import space_size
from .config import EnvConfig, PricingMode
from .env import JointActions, SchedulingEnv, StepResult
from .neural import (
    NetParams,
    ParamStack,
    PPOHyper,
    RolloutBuffer,
    forward,
    init_params,
    ppo_update,
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


class InfeasibleArchitectureError(RuntimeError):
    def __init__(self, arch: str, cardinality: int, threshold: int):
        self.arch = arch
        self.cardinality = cardinality
        self.threshold = threshold
        super().__init__(
            f"{arch} needs an action space of {cardinality}, above the guard "
            f"threshold {threshold}"
        )


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
        return space_size(self.radices)

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
    raise ValueError(f"unknown architecture {arch!r}")


def feasibility_guard(arch: str, config: EnvConfig) -> tuple[bool, int]:
    """(ok, largest unit action space). Construction is rejected when any
    unit's space exceeds the configured guard threshold."""
    return _feasible(unit_layout(arch, config), config)


def _feasible(specs: list[UnitSpec], config: EnvConfig) -> tuple[bool, int]:
    worst = max(spec.action_count for spec in specs)
    return worst <= config.guard_threshold, worst


def _parameter_sets(arch: str, config: EnvConfig
                    ) -> tuple[list[UnitSpec], dict[str, int], list[tuple[int, int, int]]]:
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


class ActingUnit:
    """One policy head: its network, rollout window, and reward bookkeeping.

    Rewards routed between two decisions accumulate on the newest row of the
    rollout window, the latest decision, so a payout that lands steps after
    the causing action still credits it. Price setters instead keep pending
    samples keyed by the offer step and only commit them once the offer is
    accepted.
    """

    def __init__(self, spec: UnitSpec, stack: ParamStack, param_set: int,
                 hyper: PPOHyper, sample_rng: np.random.Generator,
                 update_rng: np.random.Generator):
        self.spec = spec
        self.stack = stack
        self.param_set = param_set  # index of params in the bundle's ParamStack
        self.hyper = hyper
        self.sample_rng = sample_rng
        self.update_rng = update_rng
        self.buffer = RolloutBuffer(hyper.rollout_length, spec.obs_width)
        self.pending_prices: dict[int, tuple] = {}
        self.updates = 0
        self.dropped_rewards = 0.0
        self.last_stats: dict = {}

    def record(self, obs: np.ndarray, action: int, logp: float, value: float) -> None:
        """Write this step's decision as the window's newest row, with reward
        0.0. A full window is first closed by ``update_units``, with this
        decision's value as the bootstrap."""
        self.buffer.add(obs, action, logp, value, 0.0)

    def accumulate(self, reward: float) -> None:
        if not self.buffer.size:  # before the first decision
            self.dropped_rewards += reward
            return
        self.buffer.rewards[self.buffer.size - 1] += reward

    def hold_price(self, made_at: int, obs: np.ndarray, action: int, logp: float,
                   value: float) -> None:
        """Keep a price decision pending until its offer is resolved."""
        self.pending_prices[made_at] = (obs, action, logp, value)

    def resolve_price(self, made_at: int, reward: float) -> None:
        pending = self.pending_prices.pop(made_at, None)
        if pending is None:
            return
        obs, action, logp, value = pending
        self.buffer.add(obs, action, logp, value, reward)
        if self.buffer.full:
            update_units(self.stack, [self], [self.param_set], [0.0])

    def expire_prices(self, before: int) -> None:
        """Drop pending samples of offers that were never accepted."""
        for made_at in [t for t in self.pending_prices if t < before]:
            del self.pending_prices[made_at]


def update_units(stack: ParamStack, units: list[ActingUnit], sets: Sequence[int],
                 bootstraps: Sequence[float]) -> None:
    """Close the full windows of ``units`` with their ``bootstraps`` values
    and update their parameter sets ``sets`` of ``stack``, which must be
    distinct: one ``ppo_update`` per network shape."""
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for i, s in enumerate(sets):
        shapes.setdefault(stack.shapes[s], []).append(i)
    for group in shapes.values():
        batch = [units[i].buffer.to_batch(bootstraps[i], units[i].hyper) for i in group]
        stats = ppo_update(stack, [sets[i] for i in group], batch, units[group[0]].hyper,
                           [units[i].update_rng for i in group])
        for i, unit_stats in zip(group, stats):
            unit = units[i]
            unit.last_stats = unit_stats
            unit.buffer.clear()
            unit.updates += 1


class _Pass(NamedTuple):
    """One agent's rows of an acting pass, for one set of owned cores."""

    units: list[ActingUnit]          # the acting units, in row order
    sets: np.ndarray                 # each unit's parameter set in its bundle's stack
    index: np.ndarray                # each unit's obs as indices into the market image
    digits: list[tuple[int, int, int, Position]]  # (row, weight, radix, live position)


class AgentBundle:
    """All acting units of one agent plus their (possibly shared) parameters."""

    def __init__(self, arch: str, agent: int, config: EnvConfig, hyper: PPOHyper,
                 seed: int, home: ParamStack | None = None, first: int = 0):
        """With ``home`` the weights and learned state are its rows
        ``first``, ``first + 1``, ... (see ``build_bundles``); else a new
        stack's."""
        specs, param_sets, shapes = _parameter_sets(arch, config)
        self.arch = arch
        self.agent = agent
        self.config = config
        self.hyper = hyper
        self.stack = ParamStack(shapes, home, first)
        for index, params in enumerate(self.stack.views):
            init_params(params, derive_rng(seed, STREAM_UNIT_INIT, agent, index))
        # the parameter sets by key, in row order: the names of a checkpoint's rows
        self.params: dict[str, NetParams] = {
            key: self.stack.views[index] for key, index in param_sets.items()}
        self.units: dict[UnitKey, ActingUnit] = {}
        for unit_index, spec in enumerate(specs):
            self.units[spec.key] = ActingUnit(
                spec,
                self.stack,
                param_sets[spec.param_key],
                hyper,
                sample_rng=derive_rng(seed, STREAM_UNIT_SAMPLE, agent, unit_index),
                update_rng=derive_rng(seed, STREAM_UNIT_UPDATE, agent, unit_index),
            )
        # the position map: which unit decides, and is credited for, each position
        self.unit_at: dict[Position, UnitKey] = {
            pos: spec.key for spec in specs for pos in spec.positions}
        self._price_setters = {i: self.units[key] for (kind, i), key in self.unit_at.items()
                               if kind == "price"}
        self._passes: dict[tuple[int, ...], _Pass] = {}  # by set of owned cores

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------

    def act(self, env: SchedulingEnv, joint: JointActions) -> None:
        """The pass of the module docstring, for this bundle alone."""
        _act([self], env, joint, market_image(env))

    def _plan(self, owned: tuple[int, ...]) -> _Pass:
        """This agent's rows of a pass when it owns the cores ``owned``, kept
        for the next such pass: every unit with a live position acts, and
        each live position takes its digit."""
        plan = self._passes.get(owned)
        if plan is not None:
            return plan
        live = {("accept", m) for m in owned} | {
            pos for pos in self.unit_at if pos[0] == "offer"}
        units = [unit for unit in self.units.values()
                 if not live.isdisjoint(unit.spec.positions)]
        specs = [unit.spec for unit in units]
        digits = []
        for row, spec in enumerate(specs):
            weight = 1
            for pos, radix in zip(spec.positions, spec.radices):
                if pos in live:
                    digits.append((row, weight, radix, pos))
                weight *= radix
        index = np.zeros((len(specs), self.stack.home.in_width), dtype=np.intp)
        for row, spec in enumerate(specs):
            cells = [i for m in spec.cores for i in acceptor_index(self.config, self.agent, m)]
            if spec.slots:
                cells += offer_index(self.config, self.agent, spec.slots)
            index[row, :len(cells)] = cells
        if len(self._passes) == 64:  # every set of up to 6 cores fits
            self._passes.clear()
        plan = self._passes[owned] = _Pass(
            units=units,
            sets=np.array([unit.param_set for unit in units]),
            index=index,
            digits=digits,
        )
        return plan

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        self.stack.save(path, list(self.params))

    def load(self, path) -> None:
        self.stack.load(path, list(self.params))


def _act(bundles: list[AgentBundle], env: SchedulingEnv, joint: JointActions,
         image: np.ndarray) -> None:
    """The pass of the module docstring over ``bundles``, whose stacks share
    one home. ``image`` is the step's ``market_image``."""
    stack = bundles[0].stack.home
    trading = env.config.trading_enabled
    plans, units, sets = [], [], []
    for bundle in bundles:
        plan = bundle._plan(tuple(m for m, core in enumerate(env.cores)
                                  if core.owner == bundle.agent) if trading else ())
        plans.append((bundle, plan, len(units)))
        units += plan.units
        sets.append(plan.sets + bundle.stack.first)
    obs = image[np.concatenate([plan.index for _, plan, _ in plans])]
    actions = _act_rows(stack, units, np.concatenate(sets), obs)
    for bundle, plan, start in plans:
        a = bundle.agent
        for row, weight, radix, (kind, i) in plan.digits:
            digit = actions[start + row] // weight % radix
            if kind == "offer":
                joint.offers[(a, i)] = digit
            else:
                joint.accepts[(a, i)] = digit
    if not env.config.pricing_mode.is_free:
        return
    # the price setters' pass over the offers just made
    priced = [(bundle.agent, k, unit, bundle.stack.first + unit.param_set)
              for bundle in bundles for k, unit in bundle._price_setters.items()
              if joint.offers[(bundle.agent, k)] > 0 and env.slots[bundle.agent][k] is not None]
    if not priced:
        return
    pad = [0] * (stack.in_width - PRICE_OBS_LEN)
    obs = image[np.array([price_index(env.config, a, k, joint.offers[(a, k)] - 1) + pad
                          for a, k, _, _ in priced])]
    prices = _act_rows(stack, [unit for _, _, unit, _ in priced],
                       np.array([s for _, _, _, s in priced]), obs, made_at=env.time)
    for (a, k, _, _), price in zip(priced, prices):
        joint.prices[(a, k)] = price


def _act_rows(stack: ParamStack, units: list[ActingUnit], sets: np.ndarray,
              obs: np.ndarray, made_at: int | None = None) -> list[int]:
    """Act for ``units[i]`` on row i of ``obs`` with parameter set ``sets[i]``
    of ``stack``: one forward over all rows, one draw per unit, then the
    units' bookkeeping and updates in the waves of the module docstring.
    With ``made_at`` the units are price setters and their decisions are
    held pending instead of recorded."""
    u = np.array([unit.sample_rng.random() for unit in units])
    last = stack.last_action[sets]
    logits, values = forward(stack, obs, sets)
    actions, logps = sample_rows(logits, u, last)
    actions, logps, values = actions.tolist(), logps.tolist(), values.tolist()
    if made_at is not None:
        for r, unit in enumerate(units):
            unit.hold_price(made_at, obs[r, :unit.spec.obs_width], actions[r], logps[r],
                            values[r])
        return actions
    set_of = sets.tolist()
    pending = range(len(units))
    while pending:
        due, deferred, updated = [], [], set()
        for r in pending:
            unit = units[r]
            if set_of[r] in updated:
                deferred.append(r)
            elif unit.buffer.full:
                due.append(r)
                updated.add(set_of[r])
            else:
                unit.record(obs[r, :unit.spec.obs_width], actions[r], logps[r], values[r])
        if not due:
            break
        update_units(stack, [units[r] for r in due], [set_of[r] for r in due],
                     [values[r] for r in due])
        for r in due:
            units[r].record(obs[r, :units[r].spec.obs_width], actions[r], logps[r], values[r])
        if deferred:
            # the updates moved these sets' weights: their later rows act on
            # the new weights, with the draws they already took
            logits, fresh = forward(stack, obs[deferred], sets[deferred])
            redrawn, relogp = sample_rows(logits, u[deferred], last[deferred])
            for j, action, logp, value in zip(deferred, redrawn.tolist(),
                                              relogp.tolist(), fresh.tolist()):
                actions[j], logps[j], values[j] = action, logp, value
        pending = deferred
    return actions


class UnitReward(NamedTuple):
    unit: UnitKey
    timestep: int
    reward: float
    offer_made_at: int | None = None


def route_rewards(bundle: AgentBundle, result: StepResult) -> list[UnitReward]:
    """Map one step's payouts onto this agent's acting units.

    Settlement nets go to the acceptor responsible for the core, the
    priority of a mediated job goes to the offering slot's unit, and price
    setters earn their pricing reward keyed to the step the offer was made.
    Auctioneer income is routed to nobody.
    """
    agent = bundle.agent
    rewards: list[UnitReward] = []
    for settlement in result.settlements:
        if agent in settlement.payouts:
            rewards.append(UnitReward(
                unit=bundle.unit_at[("accept", settlement.core)],
                timestep=result.time,
                reward=float(settlement.payouts[agent]),
            ))
    free = bundle.config.pricing_mode.is_free
    for trade in result.trades:
        if trade.buyer != agent:
            continue
        rewards.append(UnitReward(
            unit=bundle.unit_at[("offer", trade.source_slot)],
            timestep=result.time,
            reward=float(trade.job_priority),
        ))
        price_key = bundle.unit_at.get(("price", trade.source_slot))
        if free and price_key is not None:
            if bundle.config.pricing_mode is PricingMode.FREE_COMMERCIAL:
                price_pay = commercial_price_reward(trade.job_priority, trade.price)
            else:
                price_pay = noncommercial_price_reward(trade.job_priority, trade.price)
            rewards.append(UnitReward(
                unit=price_key,
                timestep=result.time,
                reward=price_pay,
                offer_made_at=trade.made_at,
            ))
    return rewards


def deliver_rewards(bundle: AgentBundle, result: StepResult) -> None:
    """Credit one step's routed rewards to the bundle's units, then drop the
    pending price decisions whose offers expired unaccepted."""
    for ur in route_rewards(bundle, result):
        unit = bundle.units[ur.unit]
        if ur.offer_made_at is not None:
            unit.resolve_price(ur.offer_made_at, ur.reward)
        else:
            unit.accumulate(ur.reward)
    for unit in bundle.units.values():
        if unit.pending_prices:
            unit.expire_prices(before=result.time)


def build_bundles(archs: Sequence[str], config: EnvConfig, hyper: PPOHyper, seed: int
                  ) -> list[AgentBundle]:
    """One AgentBundle per agent, agent i's of architecture ``archs[i]``. The
    bundles whose parameter sets share a padded layout (widest in-width,
    hidden width and action count) keep their weights and learned state in
    consecutive row ranges of one ParamStack, in agent order, so that a
    Trainer acts for them in one pass and updates their sets together. The
    rows are allocated before any weight is initialized, so no weight is
    copied."""
    shapes = [_parameter_sets(arch, config)[2] for arch in archs]
    layouts: dict[tuple[int, ...], list[int]] = {}
    for agent, sets in enumerate(shapes):
        layouts.setdefault(tuple(max(dim) for dim in zip(*sets)), []).append(agent)
    homes: dict[int, tuple[ParamStack, int]] = {}
    for agents in layouts.values():
        home, first = ParamStack([shape for a in agents for shape in shapes[a]]), 0
        for a in agents:
            homes[a] = home, first
            first += len(shapes[a])
    return [AgentBundle(arch, a, config, hyper, seed, *homes[a])
            for a, arch in enumerate(archs)]


class Trainer:
    """Synchronizes bundles against one environment: observe, act, step,
    route rewards, update whichever rollout windows filled.

    The bundles whose stacks share a home (see ``build_bundles``) act in one
    pass over it, and any other bundle in a pass of its own.
    """

    def __init__(self, env: SchedulingEnv, bundles: list[AgentBundle]):
        self.env = env
        self.bundles = bundles
        homes: dict[int, list[AgentBundle]] = {}
        for bundle in bundles:
            homes.setdefault(id(bundle.stack.home), []).append(bundle)
        self._passes = list(homes.values())  # the bundles of each pass

    def step(self) -> StepResult:
        joint = JointActions()
        image = market_image(self.env)
        for group in self._passes:
            _act(group, self.env, joint, image)
        result = self.env.step(joint)
        for bundle in self.bundles:
            deliver_rewards(bundle, result)
        return result
