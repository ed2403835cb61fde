"""Mixed-radix codec (the test reference) and the action-space cardinalities of
the unit layouts."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketsched.agents import ARCH_DIST, ARCH_FULL, ARCH_SEMI, unit_layout
from marketsched.config import EnvConfig, JobType

from reference import mixed_radix_decode, mixed_radix_encode

DIST_OFFER = (ARCH_DIST, ("offer", 0))
DIST_ACCEPT = (ARCH_DIST, ("accept", 0))
SEMI_OFFER = (ARCH_SEMI, ("offer", 0))
SEMI_ACCEPT = (ARCH_SEMI, ("accept", 0))
FULL = (ARCH_FULL, ("full", 0))


def cardinality(unit, num_cores, num_agents, num_slots):
    """Action count of one unit of ``unit_layout`` at the given sizes."""
    arch, key = unit
    config = EnvConfig(num_agents=num_agents, num_cores=num_cores, num_slots=num_slots,
                       job_types=(JobType(0, 1, 1, 1.0),))
    (spec,) = [s for s in unit_layout(arch, config) if s.key == key]
    return spec.action_count


def test_decode_examples():
    assert mixed_radix_decode(5, [3, 3, 3]) == [2, 1, 0]
    assert mixed_radix_decode(0, [4, 2, 9]) == [0, 0, 0]
    assert mixed_radix_decode(48, [7, 7]) == [6, 6]


def test_roundtrip_exhaustive_small():
    for radices in ([3, 7], [2, 2, 2], [7, 7], [1, 5, 1], [4]):
        for index in range(math.prod(radices)):
            digits = mixed_radix_decode(index, radices)
            assert mixed_radix_encode(digits, radices) == index
            assert all(0 <= d < r for d, r in zip(digits, radices))


def test_out_of_range_index():
    with pytest.raises(ValueError):
        mixed_radix_decode(21, [3, 7])
    with pytest.raises(ValueError):
        mixed_radix_decode(-1, [3, 7])
    with pytest.raises(ValueError):
        mixed_radix_encode([3, 0], [3, 7])


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**40))
def test_roundtrip_random(radices, raw):
    index = raw % math.prod(radices)
    assert mixed_radix_encode(mixed_radix_decode(index, radices), radices) == index


class TestCardinality:
    def test_two_agent_two_core_column(self):
        assert cardinality(DIST_OFFER, 2, 2, 3) == 3
        assert cardinality(DIST_ACCEPT, 2, 2, 3) == 7
        assert cardinality(SEMI_ACCEPT, 2, 2, 3) == 49
        # formula values for the offer/full rows
        assert cardinality(SEMI_OFFER, 2, 2, 3) == 27
        assert cardinality(FULL, 2, 2, 3) == 27 * 49

    def test_four_agent_four_core_column(self):
        assert cardinality(DIST_OFFER, 4, 4, 3) == 5
        assert cardinality(DIST_ACCEPT, 4, 4, 3) == 13
        assert cardinality(SEMI_OFFER, 4, 4, 3) == 125
        assert cardinality(SEMI_ACCEPT, 4, 4, 3) == 28_561
        assert cardinality(FULL, 4, 4, 3) == 125 * 28_561

    def test_minimal_case(self):
        assert [cardinality(k, 1, 1, 1) for k in
                (DIST_OFFER, DIST_ACCEPT, SEMI_OFFER, SEMI_ACCEPT, FULL)] == [2, 2, 2, 2, 4]

    def test_distributed_growth_is_linear(self):
        for m in range(1, 30):
            assert cardinality(DIST_OFFER, m, 2, 3) == m + 1
        for n in range(1, 30):
            assert cardinality(DIST_ACCEPT, 2, n, 3) == 3 * n + 1

    def test_aggregated_formula(self):
        for m, n, k in [(2, 2, 2), (3, 2, 4), (5, 3, 2)]:
            offers, accepts = m + 1, n * k + 1
            assert cardinality(SEMI_OFFER, m, n, k) == offers**k
            assert cardinality(SEMI_ACCEPT, m, n, k) == accepts**m
            assert cardinality(FULL, m, n, k) == offers**k * accepts**m

    def test_big_values_are_exact_integers(self):
        value = cardinality(FULL, 64, 64, 64)
        assert value == (64 + 1) ** 64 * (64 * 64 + 1) ** 64

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cardinality(DIST_OFFER, 0, 1, 1)
        with pytest.raises(ValueError):
            cardinality(("NOPE", ("full", 0)), 1, 1, 1)
