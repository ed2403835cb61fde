"""Action-space arithmetic.

Aggregated policies emit a single categorical action which the agent
translates back into one sub-decision per core or slot, one mixed-radix
digit each. The little-endian convention is fixed: digit i has radix r[i]
and weight prod(r[:i]), so the space holds prod(r) actions.
"""

from __future__ import annotations


def space_size(radices: list[int] | tuple[int, ...]) -> int:
    n = 1
    for r in radices:
        if r < 1:
            raise ValueError(f"radix must be >= 1, got {r}")
        n *= r
    return n
