"""Rollout storage: the windows of every acting unit of a home in one set
of preallocated arrays.

A unit's window holds its decisions since its parameter set's last update:
the observation, action, log-probability and value of each, and the reward
routed to it since. Decisions of many units are written at once, one write
per field and observation width, and an update reads the full windows of
its sets as one batch, a view of the store where it can.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .neural import PPOHyper, TrainBatch, _rows, _span, gae


class RolloutStore:
    """The rollout windows of every unit of a home, in preallocated arrays.

    Unit u's window is row u of ``actions``, ``logps``, ``values`` and
    ``rewards``, each (units, length), of which the first ``sizes[u]``
    entries are filled, and row ``row[u]`` of ``obs[width[u]]``, one (units
    of that width, length, width) array per observation width, so that no
    row is padded to the home's widest; ``steps[width]`` views that array
    with one row per step, the steps of row r of ``obs[width]`` from r *
    length on. A window is full at ``length`` rows and emptied by the update
    that closes it.
    """

    def __init__(self, widths: Sequence[int], length: int):
        self.length = length
        self.width = list(widths)
        counts: dict[int, int] = {}
        rows = []
        for width in widths:
            rows.append(counts.get(width, 0))
            counts[width] = rows[-1] + 1
        self.row = rows
        self.obs = {width: np.empty((count, length, width)) for width, count in counts.items()}
        self.steps = {width: obs.reshape(-1, width) for width, obs in self.obs.items()}
        self.actions = np.empty((len(rows), length), dtype=np.intp)
        self.logps, self.values, self.rewards = (np.empty((len(rows), length)) for _ in range(3))
        self.sizes = np.zeros(len(rows), dtype=np.intp)

    def add(self, u: int, obs: np.ndarray, action: int, logp: float, value: float,
            reward: float) -> None:
        """Append one row to unit ``u``'s window."""
        t = self.sizes[u]
        self.obs[self.width[u]][self.row[u], t] = obs
        self.actions[u, t], self.logps[u, t] = action, logp
        self.values[u, t], self.rewards[u, t] = value, reward
        self.sizes[u] = t + 1

    def places(self, ids: list[int]) -> tuple[np.ndarray, list]:
        """Where the windows of the units ``ids`` start, for ``add_rows``:
        in the flat (units x length) arrays, and for each observation width,
        the positions in ``ids`` of the units of that width (a slice if they
        are a run) with their windows' starts in ``steps[width]``."""
        widths = [self.width[u] for u in ids]
        groups = []
        for width in dict.fromkeys(widths):
            rows = [r for r, w in enumerate(widths) if w == width]
            groups.append((width, slice(rows[0], rows[-1] + 1)
                           if rows[-1] - rows[0] == len(rows) - 1 else np.array(rows),
                           np.array([self.row[ids[r]] * self.length for r in rows])))
        return np.array(ids) * self.length, groups

    def add_rows(self, ids: np.ndarray, places: tuple[np.ndarray, list], sizes: np.ndarray,
                 obs: np.ndarray, actions: np.ndarray, logps: np.ndarray,
                 values: np.ndarray) -> None:
        """Append row i of ``obs``, ``actions``, ``logps`` and ``values``,
        with reward 0.0, to the window of unit ``ids[i]``, whose size is
        ``sizes[i]`` and which is not full; ``places`` is ``places(ids)``.
        One write per field and observation width."""
        starts, groups = places
        at = starts + sizes
        for field, row in ((self.actions, actions), (self.logps, logps),
                           (self.values, values), (self.rewards, 0.0)):
            field.put(at, row)
        for width, rows, start in groups:
            self.steps[width][start + sizes[rows]] = obs[rows, :width]
        self.sizes.put(ids, sizes + 1)

    def batch(self, units: list[int], bootstraps: Sequence[float], hyper: PPOHyper
              ) -> TrainBatch:
        """The full windows of ``units``, all of one observation width, each
        closed with its bootstrap value, as one TrainBatch with a leading
        window axis. Their observations are a view of the store if the units'
        rows are a run, else one gather; either is valid until the next
        ``add``."""
        ids = np.array(units)
        gaes = [gae(self.rewards[u], self.values[u], bootstrap, hyper.discount,
                    hyper.gae_lambda) for u, bootstrap in zip(units, bootstraps)]
        obs = _rows(self.obs[self.width[units[0]]], _span(np.array([self.row[u] for u in units])))
        return TrainBatch(obs, self.actions[ids], self.logps[ids],
                          np.array([a for a, _ in gaes]), np.array([r for _, r in gaes]))
