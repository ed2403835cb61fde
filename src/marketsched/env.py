"""Discrete-time scheduling market: cores, slots, offers, trades, settlement.

One ``step`` runs a fixed phase order (2 and 3 share one pass over the
cores, as do 4 and 5):

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

Each core's offer book maps a grid cell ``agent * num_slots + slot`` to the
entry ``(agent, slot, job, price)``. An offer is valid while its slot still
holds that very job, and a book lives one step. The books are the only
record of pending offers: offers made at step t are resolved at step t + 1.

``step`` is the inner loop of every run, so the environment reads the config
values it needs once, at construction, and builds each record positionally,
in field order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

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


# what a core's offer book holds per grid cell: (agent, slot, job, price)
BookEntry = tuple[int, int, Job, int]


@dataclass
class JointActions:
    """Sanitized-on-use action bundle for one step.

    accepts: (agent, core) -> 0 declines, 1 + g accepts the offer in grid
        cell g = source_agent * num_slots + source_slot.
    offers: (agent, slot) -> 0 makes no offer, 1 + m targets core m.
    prices: (agent, slot) -> bid for that slot's offer (free pricing only),
        clamped to [0, max_prio]; with no bid, or one that is no integer, the
        price is the job's priority.

    Nothing is rejected: an entry that names no agent, slot, core or pending
    offer does nothing, so an offer whose key is no pair of integers 0 <=
    agent < num_agents, 0 <= slot < num_slots (0, (0, 0, 0) and 'ab' are
    none) registers nothing, as does one whose target is no integer in
    1..num_cores, an accept whose choice is no integer trades nothing, and a
    bid that is no integer counts as no bid (1.0, NaN, None or '1' is no
    integer; a numpy integer is).
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
        self.config = config
        self.time = 0
        # read on every step; the config is frozen
        self._trading = config.trading_enabled
        self._free_pricing = config.pricing_mode.is_free
        self._num_cores, self._num_slots = config.num_cores, config.num_slots
        self._max_prio = config.max_prio
        self._spawn_rng = derive_rng(seed, STREAM_ENV_SPAWN)
        self._next_job_uid = 0
        self.cores = [Core(index=m) for m in range(config.num_cores)]
        self.slots: list[list[Job | None]] = [
            [None] * config.num_slots for _ in range(config.num_agents)
        ]
        # one offer book per target core, keyed by grid cell
        self._offer_book: list[dict[int, BookEntry]] = [{} for _ in self.cores]
        self._spawn_cumulative = []
        acc = 0.0
        for t in config.job_types:
            acc += t.spawn_prob
            self._spawn_cumulative.append((acc, t))
        self._fill_empty_slots(arrival_time=0)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, actions: JointActions) -> StepResult:
        trades: list[TradeRecord] = []
        voided = 0
        slots, books, now = self.slots, self._offer_book, self.time

        # (1) trade resolution on agent-owned cores
        if self._trading:
            for core in self.cores:
                if core.owner == AUCTIONEER:
                    continue
                choice = actions.accepts.get((core.owner, core.index), 0)
                # the type first, which None or a string fails; an int skips the Integral check
                if not (type(choice) is int or isinstance(choice, Integral)) or choice <= 0:
                    continue
                entry = books[core.index].get(choice - 1)
                if entry is None or slots[entry[0]][entry[1]] is not entry[2]:
                    continue
                trade = self._execute_acceptance(core, entry)
                if trade is None:
                    voided += 1
                else:
                    trades.append(trade)

        # (2) auctioneer grants idle cores to the highest bid, then (3) the
        # core's book is cleared: unaccepted offers expire
        for core, book in zip(self.cores, books):
            if not book:
                continue
            if core.owner == AUCTIONEER:
                best: tuple | None = None
                for entry in book.values():
                    agent, slot, job, price = entry
                    if slots[agent][slot] is not job:
                        continue
                    # a total order: the book's filing order picks no winner
                    rank = (-price, job.arrival_time, agent, slot)
                    if best is None or rank < best[0]:
                        best = (rank, entry)
                if best is not None:
                    trades.append(self._move(core, best[1]))
            book.clear()

        # (4) compute, then (5) termination and settlement
        completions: list[CompletionRecord] = []
        settlements: list[SettlementRecord] = []
        income = 0
        for core in self.cores:
            job = core.job
            if job is None:
                continue
            job.remaining_burst -= 1
            if job.remaining_burst > 0:
                continue
            payouts = settle_chain(core.chain, job.priority, core.owner)
            turnaround = now - job.arrival_time
            completions.append(CompletionRecord(
                job.uid, job.type_id, job.priority, core.index, job.arrival_time, now,
                turnaround, turnaround / job.burst))
            settlements.append(SettlementRecord(core.index, job.uid, payouts))
            income += payouts.get(AUCTIONEER, 0)
            core.job = None
            core.owner = AUCTIONEER
            core.chain = []

        # (6) register this step's offers for resolution at t + 1
        num_cores, num_slots, num_agents = self._num_cores, self._num_slots, len(slots)
        free_pricing, prices = self._free_pricing, actions.prices
        for key, choice in actions.offers.items():
            # no offer from a number that does not compare with an int, or from a key
            # that is no pair or indexes no list (a float); a Python int skips the
            # Integral check
            try:
                agent, slot = key
                if not (0 < choice <= num_cores and 0 <= agent < num_agents
                        and 0 <= slot < num_slots
                        and (type(choice) is int or isinstance(choice, Integral))):
                    continue
                job = slots[agent][slot]
            except (TypeError, ValueError):
                continue
            if job is None:
                continue
            price = job.priority
            if free_pricing:
                bid = prices.get((agent, slot))
                if type(bid) is int or isinstance(bid, Integral):
                    price = max(0, min(int(bid), self._max_prio))
            books[choice - 1][agent * num_slots + slot] = (agent, slot, job, price)

        # (7) spawn into empty slots; new jobs are first actionable next step
        self._fill_empty_slots(arrival_time=now + 1)

        # (8) advance
        self.time = now + 1
        return StepResult(now, trades, completions, settlements, income, voided)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _move(self, core: Core, entry: BookEntry) -> TradeRecord:
        """Put ``entry``'s job on ``core``: empty the offering slot, make the
        buyer the owner and chain the sale from the previous owner (on an idle
        core, the auctioneer and an empty chain). Returns the trade's record; a
        displaced job is the caller's."""
        agent, slot, job, price = entry
        seller = core.owner
        self.slots[agent][slot] = None
        core.job = job
        core.owner = agent
        core.chain.append(ChainEntry(agent, seller, price))
        return TradeRecord(core.index, agent, seller, price, job.uid, job.type_id,
                           job.priority, slot, seller == AUCTIONEER)

    def _execute_acceptance(self, core: Core, entry: BookEntry) -> TradeRecord | None:
        """Accept ``entry`` on the busy ``core``; return None if voided.

        The displaced running job goes back to the first free slot of the
        core's owner, placed after ``_move`` empties the offering slot, which
        counts as free: that makes self-trades always placeable. With no free
        slot the acceptance is voided to preserve job conservation.
        """
        agent, slot = entry[0], entry[1]
        owner, displaced = core.owner, core.job
        free_slot = next((k for k, held in enumerate(self.slots[owner])
                          if held is None or (owner == agent and k == slot)), None)
        if free_slot is None:
            return None
        trade = self._move(core, entry)
        self.slots[owner][free_slot] = displaced
        return trade

    def _fill_empty_slots(self, arrival_time: int) -> None:
        for agent, agent_slots in enumerate(self.slots):
            if all(agent_slots):  # a Job is always truthy: no slot is empty
                continue
            for k, held in enumerate(agent_slots):
                if held is not None:
                    continue
                u = self._spawn_rng.random()
                for threshold, jt in self._spawn_cumulative:
                    if u < threshold:
                        agent_slots[k] = Job(self._next_job_uid, jt.id, jt.priority, jt.burst,
                                             arrival_time, jt.burst, agent)
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
