"""Rollout storage: the windows of every acting unit of a home in one set
of preallocated arrays.

A unit's window holds its decisions since its parameter set's last update:
the observation, action, log-probability and value of each, and the reward
routed to it since. Decisions of many units are written at once, one write
per field through one flat index of (unit, row), and an update reads the
full windows of its sets as one batch, a view of the store where it can.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .neural import PPOHyper, _span, gae
from .ppo import TrainBatch


class RolloutStore:
    """The rollout windows of every unit of a home, in preallocated arrays.

    Unit u's window is row u of ``obs``, (units, length, widest width), and
    of ``actions``, ``logps``, ``values`` and ``rewards``, each (units,
    length), of which the first ``sizes[u]`` entries are filled. Its
    observations fill the first ``width[u]`` entries of their rows, as the
    home's acting pass pads them; ``batch`` reads only those, so the
    padding is never read. A window is full at ``length`` rows and emptied
    by the update that closes it.
    """

    def __init__(self, widths: Sequence[int], length: int):
        self.length = length
        self.width = list(widths)
        units = len(widths)
        self.obs = np.empty((units, length, max(widths)))
        self.actions = np.empty((units, length), dtype=np.intp)
        self.logps, self.values, self.rewards = (np.empty((units, length)) for _ in range(3))
        self.sizes = np.zeros(units, dtype=np.intp)

    def add(self, ids: int | np.ndarray, obs: np.ndarray, actions, logps, values,
            rewards=0.0) -> None:
        """Append one row to the window of each unit of ``ids``, an array of
        distinct units whose windows are not full, the row of unit ``ids[i]``
        being row i of the other arguments (a scalar goes to every row); or
        one row to the window of unit ``ids``, an int. An observation
        narrower than the store fills its row from entry 0 on."""
        t = self.sizes[ids]
        # unit u's row t is row u * length + t of every field, rows flattened
        at = ids * self.length + t
        self.obs.reshape(-1, self.obs.shape[-1])[at, :obs.shape[-1]] = obs
        for field, value in ((self.actions, actions), (self.logps, logps),
                             (self.values, values), (self.rewards, rewards)):
            field.put(at, value)
        self.sizes[ids] = t + 1

    def batch(self, units: list[int], bootstraps: Sequence[float], hyper: PPOHyper
              ) -> TrainBatch:
        """The full windows of ``units``, all of one observation width, each
        closed with its bootstrap value, as one TrainBatch with a leading
        window axis. Their observations are a view of the store if the units
        are a run, else one gather; either is valid until the next ``add``."""
        ids = np.array(units)
        gaes = [gae(self.rewards[u], self.values[u], bootstrap, hyper.discount,
                    hyper.gae_lambda) for u, bootstrap in zip(units, bootstraps)]
        return TrainBatch(self.obs[_span(ids), :, :self.width[units[0]]], self.actions[ids],
                          self.logps[ids], np.array([a for a, _ in gaes]),
                          np.array([r for _, r in gaes]))
