"""Agent architectures, reward routing, and the per-step training loop.

An agent is a bundle of acting units. The distributed variants keep one tiny
network per core (acceptor) and per slot (offer maker), optionally sharing
parameters within each group; the aggregated variants fold several decisions
into one categorical action that is translated back with mixed-radix
arithmetic. Free-price bundles add one price setter per slot.

A bundle keeps all its parameter sets in one ``ParamStack``. Under the
distributed variants an agent acts in one batched pass per step: the
observation of every acting unit (acceptors of the cores it owns, then every
offer maker) is written into one (units, width) array, one ``forward`` runs
over all rows with each row's parameter set, and one vectorized inverse-CDF
step turns one uniform draw per unit, taken from that unit's own sample
stream, into its action. Price setters follow in a second pass over the
offers just made, since what they see depends on the offer's target core.

Update-order contract: the pass does exactly what acting one unit at a time
in row order would. Each unit's bookkeeping runs in row order, and when a
unit's rollout window fills, its parameter set is updated on the spot; the
later rows of that set are then evaluated again with the updated weights
and their same draws. The aggregated variants act one unit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import mixed_radix_decode
from .config import EnvConfig, PricingMode
from .env import AUCTIONEER, JointActions, SchedulingEnv, StepResult
from .neural import (
    AdamState,
    NetParams,
    ParamStack,
    PPOHyper,
    RolloutBuffer,
    forward,
    init_params,
    ppo_update,
    sample,
    sample_rows,
    save_checkpoint,
    load_checkpoint,
)
from .obs import (
    PRICE_OBS_LEN,
    acceptor_obs_len,
    core_block,
    encode_acceptor_rows,
    encode_offer_obs,
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

_DIST_FAMILY = (ARCH_DIST, ARCH_DIST_PS, ARCH_DIST_PRICE)

UnitKey = tuple[str, int]


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
    key: UnitKey
    obs_width: int
    action_count: int
    hidden_width: int
    param_key: str
    radices: tuple[int, ...] | None = None


def unit_layout(arch: str, config: EnvConfig) -> list[UnitSpec]:
    """Acting units of one agent under the given architecture."""
    m, n, k = config.num_cores, config.num_agents, config.num_slots
    accept_space = n * k + 1
    offer_space = m + 1
    accept_obs = acceptor_obs_len(n, k)
    if arch in _DIST_FAMILY:
        shared = arch in (ARCH_DIST_PS, ARCH_DIST_PRICE)
        specs = [
            UnitSpec(("accept", i), accept_obs, accept_space, 16,
                     "accept" if shared else f"accept_{i}")
            for i in range(m)
        ]
        specs += [
            UnitSpec(("offer", i), offer_obs_len(m, k, single_slot=True),
                     offer_space, 16, "offer" if shared else f"offer_{i}")
            for i in range(k)
        ]
        if arch == ARCH_DIST_PRICE:
            specs += [
                UnitSpec(("price", i), PRICE_OBS_LEN, config.max_prio + 1, 16, "price")
                for i in range(k)
            ]
        return specs
    if arch == ARCH_SEMI:
        return [
            UnitSpec(("accept", 0), m * accept_obs, accept_space**m, 32,
                     "accept", radices=(accept_space,) * m),
            UnitSpec(("offer", 0), offer_obs_len(m, k, single_slot=False),
                     offer_space**k, 32, "offer", radices=(offer_space,) * k),
        ]
    if arch == ARCH_FULL:
        obs_width = m * accept_obs + offer_obs_len(m, k, single_slot=False)
        return [
            UnitSpec(("full", 0), obs_width, accept_space**m * offer_space**k, 64,
                     "full", radices=(accept_space,) * m + (offer_space,) * k),
        ]
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

    def __init__(self, spec: UnitSpec, param_set: int, params: NetParams,
                 opt: AdamState, hyper: PPOHyper, sample_rng: np.random.Generator,
                 update_rng: np.random.Generator):
        self.spec = spec
        self.param_set = param_set  # index of params in the bundle's ParamStack
        self.params = params
        self.opt = opt
        self.hyper = hyper
        self.sample_rng = sample_rng
        self.update_rng = update_rng
        self.buffer = RolloutBuffer(capacity=hyper.rollout_length)
        self.open_sample: list | None = None  # [obs, action, logp, value, reward]
        self.pending_prices: dict[int, tuple] = {}
        self.updates = 0
        self.dropped_rewards = 0.0
        self.last_stats: dict = {}

    def act(self, obs: np.ndarray) -> int:
        logits, value = forward(self.params, obs)
        action, logp = sample(logits, self.sample_rng)
        self.record(obs, action, logp, value)
        return action

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
        self.last_stats = ppo_update(self.params, self.opt, batch, self.hyper,
                                     self.update_rng)
        self.buffer.clear()
        self.updates += 1


class AgentBundle:
    """All acting units of one agent plus their (possibly shared) parameters."""

    def __init__(self, arch: str, agent: int, config: EnvConfig, hyper: PPOHyper,
                 seed: int):
        ok, worst = feasibility_guard(arch, config)
        if not ok:
            raise InfeasibleArchitectureError(arch, worst, config.guard_threshold)
        self.arch = arch
        self.agent = agent
        self.config = config
        self.hyper = hyper
        specs = unit_layout(arch, config)
        param_sets: dict[str, int] = {}
        shapes = []
        for spec in specs:
            if spec.param_key not in param_sets:
                param_sets[spec.param_key] = len(shapes)
                shapes.append((spec.obs_width, spec.hidden_width, spec.action_count))
        self.stack = ParamStack(shapes)
        self.params: dict[str, NetParams] = {}
        self.opts: dict[str, AdamState] = {}
        for key, index in param_sets.items():
            rng = derive_rng(seed, STREAM_UNIT_INIT, agent, index)
            self.params[key] = init_params(*shapes[index], rng,
                                           out=self.stack.views[index])
            self.opts[key] = AdamState.for_params(self.params[key])
        self.units: dict[UnitKey, ActingUnit] = {}
        for unit_index, spec in enumerate(specs):
            self.units[spec.key] = ActingUnit(
                spec,
                param_sets[spec.param_key],
                self.params[spec.param_key],
                self.opts[spec.param_key],
                hyper,
                sample_rng=derive_rng(seed, STREAM_UNIT_SAMPLE, agent, unit_index),
                update_rng=derive_rng(seed, STREAM_UNIT_UPDATE, agent, unit_index),
            )

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------

    def act(self, env: SchedulingEnv, joint: JointActions) -> None:
        cfg = self.config
        a = self.agent
        if self.arch in _DIST_FAMILY:
            self._act_distributed(env, joint)
            return
        if self.arch == ARCH_SEMI:
            if cfg.trading_enabled and any(c.owner == a for c in env.cores):
                obs = encode_acceptor_rows(env, a, range(cfg.num_cores)).ravel()
                unit = self.units[("accept", 0)]
                digits = mixed_radix_decode(unit.act(obs), unit.spec.radices)
                for m in range(cfg.num_cores):
                    if env.cores[m].owner == a:
                        joint.accepts[(a, m)] = digits[m]
            unit = self.units[("offer", 0)]
            obs = encode_offer_obs(env, a, None)
            digits = mixed_radix_decode(unit.act(obs), unit.spec.radices)
            for k in range(cfg.num_slots):
                joint.offers[(a, k)] = digits[k]
            return
        # fully aggregated: one action covers every core and every slot
        unit = self.units[("full", 0)]
        obs = np.concatenate(
            [encode_acceptor_rows(env, a, range(cfg.num_cores)).ravel(),
             encode_offer_obs(env, a, None)])
        digits = mixed_radix_decode(unit.act(obs), unit.spec.radices)
        if cfg.trading_enabled:
            for m in range(cfg.num_cores):
                if env.cores[m].owner == a:
                    joint.accepts[(a, m)] = digits[m]
        for k in range(cfg.num_slots):
            joint.offers[(a, k)] = digits[cfg.num_cores + k]

    def _act_distributed(self, env: SchedulingEnv, joint: JointActions) -> None:
        """The batched pass of the module docstring."""
        cfg = self.config
        a = self.agent
        cores = ([m for m, core in enumerate(env.cores) if core.owner == a]
                 if cfg.trading_enabled else [])
        slots = range(cfg.num_slots)
        units = ([self.units[("accept", m)] for m in cores]
                 + [self.units[("offer", k)] for k in slots])
        block = core_block(env, a)
        obs = np.zeros((len(units), self.stack.in_width))
        fill_acceptor_rows(env, block, cores, obs)
        fill_offer_rows(env, a, block, slots, obs[len(cores):])
        actions = self._act_rows(units, obs)
        for m, action in zip(cores, actions):
            joint.accepts[(a, m)] = action
        offers = actions[len(cores):]
        for k, choice in zip(slots, offers):
            joint.offers[(a, k)] = choice
        if self.arch != ARCH_DIST_PRICE or not cfg.pricing_mode.is_free:
            return
        targets = [(k, choice - 1) for k, choice in zip(slots, offers)
                   if choice > 0 and env.slots[a][k] is not None]
        if targets:
            obs = np.zeros((len(targets), self.stack.in_width))
            fill_price_rows(env, a, targets, obs)
            prices = self._act_rows([self.units[("price", k)] for k, _ in targets],
                                    obs, made_at=env.time)
            for (k, _), price in zip(targets, prices):
                joint.prices[(a, k)] = price

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
    # reward routing targets
    # ------------------------------------------------------------------

    def settlement_unit(self, core: int) -> UnitKey:
        if self.arch in _DIST_FAMILY:
            return ("accept", core)
        if self.arch == ARCH_SEMI:
            return ("accept", 0)
        return ("full", 0)

    def offer_unit(self, slot: int) -> UnitKey:
        if self.arch in _DIST_FAMILY:
            return ("offer", slot)
        if self.arch == ARCH_SEMI:
            return ("offer", 0)
        return ("full", 0)

    def price_unit(self, slot: int) -> UnitKey | None:
        key = ("price", slot)
        return key if key in self.units else None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, self.params)

    def load(self, path) -> None:
        loaded = load_checkpoint(path)
        if set(loaded) != set(self.params):
            raise ValueError(
                f"checkpoint parameter sets {sorted(loaded)} do not match "
                f"architecture {self.arch}")
        for key, params in loaded.items():
            current = self.params[key]
            for (name, tensor), (_, new) in zip(current.tensors(), params.tensors()):
                if tensor.shape != new.shape:
                    raise ValueError(f"shape mismatch for {key}/{name}")
                tensor[...] = new


@dataclass(frozen=True)
class UnitReward:
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
                unit=bundle.settlement_unit(settlement.core),
                timestep=result.time,
                reward=float(settlement.payouts[agent]),
            ))
    free = bundle.config.pricing_mode.is_free
    for trade in result.trades:
        if trade.buyer != agent:
            continue
        rewards.append(UnitReward(
            unit=bundle.offer_unit(trade.source_slot),
            timestep=result.time,
            reward=float(trade.job_priority),
        ))
        price_key = bundle.price_unit(trade.source_slot)
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
