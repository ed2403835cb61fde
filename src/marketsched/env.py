"""Discrete-time scheduling market: cores, slots, offers, trades, settlement.

One ``step`` runs a fixed phase order:

1. trade resolution - owners of busy cores accept or decline pending offers
2. auctioneer resolution - idle cores go to the highest-priced pending offer
3. offer book cleared (an offer lives for exactly one acceptance opportunity)
4. compute - every running job advances one tick
5. termination and settlement of the core's payment chain
6. registration of this step's new offers (visible to deciders next step)
7. spawn - empty slots draw a job type from the spawn probabilities
8. time advances

Ownership rule: a core is owned by the agent whose job runs on it and falls
back to the auctioneer the moment it idles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .config import EnvConfig
from .rng import STREAM_ENV_SPAWN, derive_rng

AUCTIONEER = -1


class ChainLineageError(RuntimeError):
    """A payment chain lost its buyer/seller contiguity; the run is corrupt."""


@dataclass
class Job:
    uid: int
    type_id: int
    priority: int
    burst: int
    arrival_time: int
    remaining_burst: int
    owner_agent: int


class ChainEntry(NamedTuple):
    buyer: int
    seller: int
    price: int


@dataclass
class Core:
    index: int
    owner: int = AUCTIONEER
    job: Job | None = None
    chain: list[ChainEntry] = field(default_factory=list)


class Offer(NamedTuple):
    """A one-step-valid proposal to run a slot job on a specific core."""

    agent: int
    slot: int
    job_uid: int
    job_priority: int
    target_core: int
    price: int
    time_to_payment: int
    made_at: int


@dataclass
class JointActions:
    """Sanitized-on-use action bundle for one step.

    accepts: (agent, core) -> 0 declines, 1 + g accepts the offer in grid
        cell g = source_agent * num_slots + source_slot.
    offers: (agent, slot) -> 0 makes no offer, 1 + m targets core m.
    prices: (agent, slot) -> bid for that slot's offer (free pricing only).
    """

    accepts: dict[tuple[int, int], int] = field(default_factory=dict)
    offers: dict[tuple[int, int], int] = field(default_factory=dict)
    prices: dict[tuple[int, int], int] = field(default_factory=dict)


class TradeRecord(NamedTuple):
    core: int
    buyer: int
    seller: int
    price: int
    job_uid: int
    job_type_id: int
    job_priority: int
    source_slot: int
    made_at: int
    by_auctioneer: bool


class CompletionRecord(NamedTuple):
    job_uid: int
    type_id: int
    priority: int
    core: int
    arrival_time: int
    completed_at: int
    turnaround: int
    normalized_turnaround: float


class SettlementRecord(NamedTuple):
    core: int
    job_uid: int
    payouts: dict[int, int]


class StepResult(NamedTuple):
    time: int
    trades: list[TradeRecord]
    completions: list[CompletionRecord]
    settlements: list[SettlementRecord]
    auctioneer_income: int
    voided_acceptances: int


def _check_lineage(entries: list[ChainEntry], final_owner: int) -> None:
    """Raise ChainLineageError unless ``entries`` is empty or a chain of
    sales from the auctioneer to ``final_owner``, each buyer the next seller."""
    if not entries:
        return
    if entries[0].seller != AUCTIONEER:
        raise ChainLineageError("chain must start with an auctioneer sale")
    for prev, nxt in zip(entries, entries[1:]):
        if prev.buyer != nxt.seller:
            raise ChainLineageError(
                f"broken lineage: buyer {prev.buyer} followed by seller {nxt.seller}"
            )
    if entries[-1].buyer != final_owner:
        raise ChainLineageError(
            f"final owner {final_owner} is not the last buyer {entries[-1].buyer}"
        )


def settle_chain(
    entries: list[ChainEntry], terminal_priority: int, final_owner: int
) -> dict[int, int]:
    """Net payout per participant when a job terminates on a core.

    Each entry moves ``price`` from buyer to seller; the final owner
    additionally collects the terminated job's priority. The totals always
    sum to exactly ``terminal_priority``: chains redistribute reward, they
    never create it.
    """
    _check_lineage(entries, final_owner)
    payouts: dict[int, int] = {}
    for e in entries:
        payouts[e.seller] = payouts.get(e.seller, 0) + e.price
        payouts[e.buyer] = payouts.get(e.buyer, 0) - e.price
    payouts[final_owner] = payouts.get(final_owner, 0) + terminal_priority
    return payouts


class SchedulingEnv:
    """Deterministic, seedable market scheduling environment.

    Identical (config, seed, action trace) reproduces the run bit for bit.
    All stochasticity is the per-slot spawn draw, taken from a dedicated
    stream of the run seed.
    """

    def __init__(self, config: EnvConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        self.time = 0
        self._spawn_rng = derive_rng(seed, STREAM_ENV_SPAWN)
        self._next_job_uid = 0
        self.cores = [Core(index=m) for m in range(config.num_cores)]
        self.slots: list[list[Job | None]] = [
            [None] * config.num_slots for _ in range(config.num_agents)
        ]
        # offer book: (target_core, source_agent, source_slot) -> Offer
        self._offer_book: dict[tuple[int, int, int], Offer] = {}
        self._spawn_cumulative = []
        acc = 0.0
        for t in config.job_types:
            acc += t.spawn_prob
            self._spawn_cumulative.append((acc, t))
        self._fill_empty_slots(arrival_time=0)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def pending_offers(self, core: int) -> list[Offer]:
        """Offers awaiting resolution at this core, ordered by (agent, slot)."""
        if not 0 <= core < self.config.num_cores:
            raise IndexError(f"core index {core} out of range")
        keys = sorted(k for k in self._offer_book if k[0] == core)
        return [self._offer_book[k] for k in keys]

    def offers(self) -> Iterable[Offer]:
        """Every pending offer, in no particular order."""
        return self._offer_book.values()

    def offer_in_grid_cell(self, core: int, cell: int) -> Offer | None:
        """Pending offer at grid cell = source_agent * num_slots + source_slot."""
        agent, slot = divmod(cell, self.config.num_slots)
        return self._offer_book.get((core, agent, slot))

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, actions: JointActions) -> StepResult:
        trades: list[TradeRecord] = []
        voided = 0

        # (1) trade resolution on agent-owned cores
        if self.config.trading_enabled:
            for core in self.cores:
                if core.owner == AUCTIONEER:
                    continue
                choice = actions.accepts.get((core.owner, core.index), 0)
                if choice <= 0:
                    continue
                cell = choice - 1
                if cell >= self.config.num_agents * self.config.num_slots:
                    continue
                offer = self.offer_in_grid_cell(core.index, cell)
                if offer is None:
                    continue
                job = self.slots[offer.agent][offer.slot]
                if job is None or job.uid != offer.job_uid:
                    continue
                trade = self._execute_acceptance(core, offer, job)
                if trade is None:
                    voided += 1
                else:
                    trades.append(trade)

        # (2) auctioneer grants idle cores to the highest bid
        for core in self.cores:
            if core.owner != AUCTIONEER:
                continue
            best: tuple | None = None
            for offer in self.pending_offers(core.index):
                job = self.slots[offer.agent][offer.slot]
                if job is None or job.uid != offer.job_uid:
                    continue
                rank = (-offer.price, job.arrival_time, offer.agent, offer.slot)
                if best is None or rank < best[0]:
                    best = (rank, offer, job)
            if best is None:
                continue
            _, offer, job = best
            trades.append(self._move(core, offer, job))

        # (3) offer book cleared; unaccepted offers expire
        self._offer_book.clear()

        # (4) compute
        for core in self.cores:
            if core.job is not None:
                core.job.remaining_burst -= 1

        # (5) termination and settlement
        completions: list[CompletionRecord] = []
        settlements: list[SettlementRecord] = []
        income = 0
        for core in self.cores:
            job = core.job
            if job is None or job.remaining_burst > 0:
                continue
            payouts = settle_chain(core.chain, job.priority, core.owner)
            turnaround = self.time - job.arrival_time
            completions.append(CompletionRecord(
                job_uid=job.uid, type_id=job.type_id, priority=job.priority, core=core.index,
                arrival_time=job.arrival_time, completed_at=self.time, turnaround=turnaround,
                normalized_turnaround=turnaround / job.burst))
            settlements.append(SettlementRecord(core=core.index, job_uid=job.uid, payouts=payouts))
            income += payouts.get(AUCTIONEER, 0)
            core.job = None
            core.owner = AUCTIONEER
            core.chain = []

        # (6) register this step's offers for resolution at t + 1
        free_pricing = self.config.pricing_mode.is_free
        for agent, slot in sorted(actions.offers):
            choice = actions.offers[(agent, slot)]
            if choice <= 0:
                continue
            target = choice - 1
            if not 0 <= target < self.config.num_cores:
                continue
            job = self.slots[agent][slot]
            if job is None:
                continue
            if free_pricing:
                price = actions.prices.get((agent, slot), job.priority)
                price = max(0, min(int(price), self.config.max_prio))
            else:
                price = job.priority
            self._offer_book[(target, agent, slot)] = Offer(
                agent=agent, slot=slot, job_uid=job.uid, job_priority=job.priority,
                target_core=target, price=price, time_to_payment=job.remaining_burst,
                made_at=self.time)

        # (7) spawn into empty slots; new jobs are first actionable next step
        self._fill_empty_slots(arrival_time=self.time + 1)

        # (8) advance
        result = StepResult(
            time=self.time, trades=trades, completions=completions, settlements=settlements,
            auctioneer_income=income, voided_acceptances=voided)
        self.time += 1
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _move(self, core: Core, offer: Offer, job: Job) -> TradeRecord:
        """Put ``offer``'s job on ``core``: empty the offering slot, make the
        buyer the owner and chain the sale from the previous owner (on an idle
        core, the auctioneer and an empty chain). Returns the trade's record;
        a displaced job is the caller's to place."""
        seller = core.owner
        self.slots[offer.agent][offer.slot] = None
        core.job = job
        core.owner = offer.agent
        core.chain.append(ChainEntry(buyer=offer.agent, seller=seller, price=offer.price))
        return TradeRecord(
            core=core.index, buyer=offer.agent, seller=seller, price=offer.price,
            job_uid=job.uid, job_type_id=job.type_id, job_priority=job.priority,
            source_slot=offer.slot, made_at=offer.made_at,
            by_auctioneer=seller == AUCTIONEER)

    def _execute_acceptance(self, core: Core, offer: Offer, job: Job) -> TradeRecord | None:
        """Accept ``offer`` on the busy ``core``; return None if voided.

        The displaced running job goes back to the first free slot of the
        core's owner, placed after ``_move`` empties the offering slot, which
        counts as free: that makes self-trades always placeable. With no free
        slot the acceptance is voided to preserve job conservation.
        """
        owner, displaced = core.owner, core.job
        free_slot = next((k for k, held in enumerate(self.slots[owner])
                          if held is None or (owner == offer.agent and k == offer.slot)), None)
        if free_slot is None:
            return None
        trade = self._move(core, offer, job)
        self.slots[owner][free_slot] = displaced
        return trade

    def _fill_empty_slots(self, arrival_time: int) -> None:
        for agent in range(self.config.num_agents):
            for k in range(self.config.num_slots):
                if self.slots[agent][k] is not None:
                    continue
                u = self._spawn_rng.random()
                for threshold, jt in self._spawn_cumulative:
                    if u < threshold:
                        self.slots[agent][k] = Job(
                            uid=self._next_job_uid, type_id=jt.id, priority=jt.priority,
                            burst=jt.burst, arrival_time=arrival_time,
                            remaining_burst=jt.burst, owner_agent=agent)
                        self._next_job_uid += 1
                        break

    def check_invariants(self) -> None:
        """Assert structural invariants; used by tests after every step."""
        seen: set[int] = set()
        for core in self.cores:
            if (core.owner == AUCTIONEER) != (core.job is None):
                raise AssertionError(f"core {core.index}: ownership/idleness mismatch")
            if core.owner == AUCTIONEER and core.chain:
                raise AssertionError(f"core {core.index}: auctioneer core has a chain")
            if core.job is not None:
                if core.job.uid in seen:
                    raise AssertionError("job on two processing sites")
                seen.add(core.job.uid)
                if core.job.owner_agent != core.owner:
                    raise AssertionError("running job owner differs from core owner")
            try:
                _check_lineage(core.chain, core.owner)
            except ChainLineageError as err:
                raise AssertionError(f"core {core.index}: {err}") from None
        for agent_slots in self.slots:
            for job in agent_slots:
                if job is None:
                    continue
                if job.uid in seen:
                    raise AssertionError("job in two places")
                seen.add(job.uid)
                if not 0 < job.remaining_burst <= job.burst:
                    raise AssertionError("slot job has invalid remaining burst")
