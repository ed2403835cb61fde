"""Action-space arithmetic: mixed-radix translation.

Aggregated policies emit a single categorical action which the agent
translates back into one sub-decision per core or slot. The little-endian
convention is fixed here: digit i has radix r[i] and weight prod(r[:i]).
"""

from __future__ import annotations


def space_size(radices: list[int] | tuple[int, ...]) -> int:
    n = 1
    for r in radices:
        if r < 1:
            raise ValueError(f"radix must be >= 1, got {r}")
        n *= r
    return n


def mixed_radix_decode(index: int, radices: list[int] | tuple[int, ...]) -> list[int]:
    """Little-endian digits of ``index`` in the given radices."""
    if not 0 <= index < space_size(radices):
        raise ValueError(f"index {index} out of range for radices {list(radices)}")
    digits = []
    rest = index
    for r in radices:
        digits.append(rest % r)
        rest //= r
    return digits


def mixed_radix_encode(digits: list[int] | tuple[int, ...], radices: list[int] | tuple[int, ...]) -> int:
    if len(digits) != len(radices):
        raise ValueError("digit/radix length mismatch")
    index = 0
    weight = 1
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for radix {r}")
        index += d * weight
        weight *= r
    return index

