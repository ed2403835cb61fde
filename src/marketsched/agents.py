"""Agent architectures, reward routing, and the per-step training loop.

Every architecture groups the same decisions of an agent: accept an offer on
core m, offer slot k's job to a core, and under free pricing price slot k's
offer. ``unit_layout`` lists the positions each acting unit decides, in digit
order: the distributed variants give each position its own tiny network
(optionally sharing parameters within each kind), ``SEMI`` folds the accept
positions into one unit and the offer positions into another, and ``FULL``
folds them all into one. Mixed-radix arithmetic turns a unit's action into one
digit per position, so a distributed unit is the one-digit case.

A bundle keeps all its parameter sets in one ``ParamStack``, and an agent acts
in one batched pass per step whatever its architecture and however many rows
the pass has (``FULL``'s has one). Every unit with a live position (accept m
when trading is on and the agent owns core m; every offer) writes its
observation into one row of a (units, width) array, one ``forward`` runs over
all rows with each row's parameter set, and one vectorized inverse-CDF step
turns one uniform draw per unit, taken from that unit's own sample stream,
into its action. Live positions take their digits, the others are dropped.
Price setters follow in a second pass over the offers just made, since what
they see depends on the offer's target core.

Update-order contract: the pass does exactly what acting one unit at a time
in row order would. Each unit's bookkeeping runs in row order, and when a
unit's rollout window fills, its parameter set is updated on the spot; the
later rows of that set are then evaluated again with the updated weights
and their same draws.
"""

from __future__ import annotations

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
    acceptor_obs_len,
    core_block,
    fill_acceptor_rows,
    fill_offer_rows,
    fill_price_rows,
    offer_obs_len,
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

    Units that decide accept positions come first and units that decide
    offer positions last, and within each group every unit decides as many
    positions; the acting pass relies on both.
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
    worst = max(spec.action_count for spec in unit_layout(arch, config))
    return worst <= config.guard_threshold, worst


class ActingUnit:
    """One policy head: its network, rollout window, and reward bookkeeping.

    Rewards routed between two decisions accumulate on the most recent open
    sample, so a payout that lands steps after the causing action still
    credits it. Price setters instead keep pending samples keyed by the offer
    step and only commit them once the offer is accepted.
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
        self.open_sample: list | None = None  # [obs, action, logp, value, reward]
        self.pending_prices: dict[int, tuple] = {}
        self.updates = 0
        self.dropped_rewards = 0.0
        self.last_stats: dict = {}

    def record(self, obs: np.ndarray, action: int, logp: float, value: float) -> bool:
        """Open the sample of this step's decision and close the previous one
        into the rollout window. When the window fills, update the network
        with this decision's value as the bootstrap; return whether it did."""
        if self.open_sample is not None:
            self.buffer.add(*self.open_sample)
        self.open_sample = [obs, action, logp, value, 0.0]
        if not self.buffer.full:
            return False
        self._update(bootstrap_value=value)
        return True

    def accumulate(self, reward: float) -> None:
        if self.open_sample is None:
            self.dropped_rewards += reward
            return
        self.open_sample[4] += reward

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
            self._update(bootstrap_value=0.0)

    def expire_prices(self, before: int) -> None:
        """Drop pending samples of offers that were never accepted."""
        for made_at in [t for t in self.pending_prices if t < before]:
            del self.pending_prices[made_at]

    def _update(self, bootstrap_value: float) -> None:
        batch = self.buffer.to_batch(bootstrap_value, self.hyper)
        self.last_stats = ppo_update(self.stack, self.param_set, batch, self.hyper,
                                     self.update_rng)
        self.buffer.clear()
        self.updates += 1


class _Pass(NamedTuple):
    """One agent's acting pass for one set of owned cores."""

    units: list[ActingUnit]          # the acting units, in row order
    cores: list[int]                 # the core of each acceptor block, in order
    acceptor_view: tuple | None      # the part of obs that holds them
    slots: list[int]                 # the slot of each offer slot state, in order
    offer_view: tuple                # the part of obs that holds the offer obs
    digits: list[tuple[int, int, int, Position]]  # (row, weight, radix, live position)


class AgentBundle:
    """All acting units of one agent plus their (possibly shared) parameters."""

    def __init__(self, arch: str, agent: int, config: EnvConfig, hyper: PPOHyper,
                 seed: int):
        specs = unit_layout(arch, config)
        worst = max(spec.action_count for spec in specs)
        if worst > config.guard_threshold:  # as feasibility_guard, on this layout
            raise InfeasibleArchitectureError(arch, worst, config.guard_threshold)
        self.arch = arch
        self.agent = agent
        self.config = config
        self.hyper = hyper
        param_sets: dict[str, int] = {}
        shapes = []
        for spec in specs:
            if spec.param_key not in param_sets:
                param_sets[spec.param_key] = len(shapes)
                shapes.append((spec.obs_width, spec.hidden_width, spec.action_count))
        self.stack = ParamStack(shapes)
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
        """The pass of the module docstring."""
        cfg = self.config
        a = self.agent
        owned = (tuple(m for m, core in enumerate(env.cores) if core.owner == a)
                 if cfg.trading_enabled else ())
        plan = self._passes.get(owned) or self._plan(owned)
        obs = np.zeros((len(plan.units), self.stack.in_width))
        block = core_block(env, a)
        if plan.cores:
            fill_acceptor_rows(env, block, plan.cores,
                               obs[plan.acceptor_view].reshape(len(plan.cores), -1))
        fill_offer_rows(env, a, block, plan.slots, obs[plan.offer_view])
        actions = self._act_rows(plan.units, obs)
        for row, weight, radix, (kind, i) in plan.digits:
            if kind == "offer":
                joint.offers[(a, i)] = actions[row] // weight % radix
            else:
                joint.accepts[(a, i)] = actions[row] // weight % radix
        if not self._price_setters or not cfg.pricing_mode.is_free:
            return
        targets = [(k, joint.offers[(a, k)] - 1) for k in self._price_setters
                   if joint.offers[(a, k)] > 0 and env.slots[a][k] is not None]
        if targets:
            obs = np.zeros((len(targets), self.stack.in_width))
            fill_price_rows(env, a, targets, obs)
            prices = self._act_rows([self._price_setters[k] for k, _ in targets],
                                    obs, made_at=env.time)
            for (k, _), price in zip(targets, prices):
                joint.prices[(a, k)] = price

    def _plan(self, owned: tuple[int, ...]) -> _Pass:
        """The pass of an agent that owns the cores ``owned``: every unit with
        a live position acts, and each live position takes its digit."""
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
        # The units that decide accept positions lead the rows and the units
        # that decide offer positions trail them, each unit of a group with
        # as many positions (see unit_layout), so each group's blocks are one
        # view of the pass's obs array.
        width = acceptor_obs_len(self.config.num_agents, self.config.num_slots)
        accepting = [spec for spec in specs if spec.cores]
        making = [spec for spec in specs if spec.slots]
        if len(self._passes) == 64:  # every set of up to 6 cores fits
            self._passes.clear()
        plan = self._passes[owned] = _Pass(
            units=units,
            cores=[m for spec in accepting for m in spec.cores],
            acceptor_view=(np.s_[:len(accepting), :len(accepting[0].cores) * width]
                           if accepting else None),
            slots=[k for spec in making for k in spec.slots],
            offer_view=np.s_[len(specs) - len(making):, len(making[0].cores) * width:],
            digits=digits,
        )
        return plan

    def _act_rows(self, units: list[ActingUnit], obs: np.ndarray,
                  made_at: int | None = None) -> list[int]:
        """Act for ``units[i]`` on row i of ``obs``: one forward over all rows,
        one draw per unit, then each unit's bookkeeping in row order. With
        ``made_at`` the units are price setters and their decisions are held
        pending instead of recorded."""
        sets = np.array([unit.param_set for unit in units])
        u = np.array([unit.sample_rng.random() for unit in units])
        last = self.stack.last_action[sets]
        logits, values = forward(self.stack, obs, sets)
        actions, logps = sample_rows(logits, u, last)
        actions, logps, values = actions.tolist(), logps.tolist(), values.tolist()
        for r, unit in enumerate(units):
            row = obs[r, :unit.spec.obs_width]
            if made_at is not None:
                unit.hold_price(made_at, row, actions[r], logps[r], values[r])
                continue
            if not unit.record(row, actions[r], logps[r], values[r]):
                continue
            # the update moved this set's weights: later rows of the set act
            # on the new weights, with the draws they already took
            later = [j for j in range(r + 1, len(units)) if sets[j] == sets[r]]
            if later:
                logits, fresh = forward(self.stack, obs[later], sets[later])
                redrawn, relogp = sample_rows(logits, u[later], last[later])
                for j, action, logp, value in zip(later, redrawn.tolist(),
                                                  relogp.tolist(), fresh.tolist()):
                    actions[j], logps[j], values[j] = action, logp, value
        return actions

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        self.stack.save(path, list(self.params))

    def load(self, path) -> None:
        self.stack.load(path, list(self.params))


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


class Trainer:
    """Synchronizes bundles against one environment: observe, act, step,
    route rewards, update whichever rollout windows filled."""

    def __init__(self, env: SchedulingEnv, bundles: list[AgentBundle]):
        self.env = env
        self.bundles = bundles

    def step(self) -> StepResult:
        joint = JointActions()
        for bundle in self.bundles:
            bundle.act(self.env, joint)
        result = self.env.step(joint)
        for bundle in self.bundles:
            deliver_rewards(bundle, result)
        return result
