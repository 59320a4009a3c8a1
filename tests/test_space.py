"""Strategy-space counting, enumeration, and the Lotto payoff."""

from fractions import Fraction

import pytest

from blotto_lab import (
    EnumerationTooLargeError,
    GameSpec,
    count_ordered,
    count_partitions,
    count_unordered,
    enumerate_allocations,
    enumerate_partitions,
    lotto_payoff,
)
from oracles import brute_lotto_payoff, partitions_by_listing


class TestCounts:
    def test_full_game_sizes(self):
        sp = GameSpec(120, 6)
        assert count_ordered(sp) == 234_531_275
        assert count_unordered(sp) == 436_140

    def test_tiny_counts(self):
        assert count_ordered(GameSpec(1, 2)) == 2
        assert count_partitions(5, 5) == 1
        assert count_partitions(9, 3) == 7

    def test_ordered_count_matches_enumeration(self):
        for n in range(1, 11):
            for k in range(2, 5):
                sp = GameSpec(n, k)
                assert count_ordered(sp) == sum(1 for _ in enumerate_allocations(sp))

    def test_partition_count_matches_exhaustive_listing(self):
        for n in range(1, 13):
            for k in range(2, 5):
                sp = GameSpec(n, k)
                listed = partitions_by_listing(sp)
                assert count_unordered(sp) == len(listed)
                assert sorted(enumerate_partitions(sp)) == listed

    def test_recursion_against_generating_function(self):
        # [x^n] prod 1/(1 - x^i) for i <= k counts partitions into parts <= k,
        # which conjugates to partitions into at most k parts.
        limit = 40
        for k in range(1, 7):
            coeffs = [1] + [0] * limit
            for part in range(1, k + 1):
                for total in range(part, limit + 1):
                    coeffs[total] += coeffs[total - part]
            for n in range(limit + 1):
                at_most = sum(count_partitions(n, j) for j in range(n + 1) if j <= k)
                assert at_most == coeffs[n], (n, k)


    def test_closed_forms_match_the_table(self):
        # partitions of rest into parts of size <= k, counted bottom-up here
        # for every rest up to 500, against the closed forms of 1, 2 and 3 parts
        limit = 500
        for k in (1, 2, 3):
            ways = [1] + [0] * limit
            for part in range(1, k + 1):
                for m in range(part, limit + 1):
                    ways[m] += ways[m - part]
            assert [count_partitions(rest + k, k) for rest in range(limit + 1)] == ways

    def test_closed_forms_need_no_table(self):
        # a table of 50,000,001 Python ints would take about 2 GB
        assert count_partitions(50_000_002, 2) == 25_000_001
        assert count_partitions(10**18 + 3, 3) == (10**36 + 6 * 10**18 + 12) // 12


class TestEnumeration:
    def test_tiny_listing(self):
        assert list(enumerate_allocations(GameSpec(2, 2))) == [(0, 2), (1, 1), (2, 0)]

    def test_lexicographic_bounds(self):
        items = list(enumerate_allocations(GameSpec(6, 3)))
        assert len(items) == 28
        assert items[0] == (0, 0, 6)
        assert items[-1] == (6, 0, 0)
        assert items == sorted(items)

    def test_cap_refuses_rather_than_truncates(self):
        with pytest.raises(EnumerationTooLargeError):
            enumerate_allocations(GameSpec(120, 6))
        with pytest.raises(EnumerationTooLargeError):
            enumerate_partitions(GameSpec(120, 6), cap=1000)

    def test_partition_listing(self):
        assert list(enumerate_partitions(GameSpec(4, 2))) == [(4, 0), (3, 1), (2, 2)]
        items = list(enumerate_partitions(GameSpec(6, 3)))
        assert len(items) == count_partitions(9, 3) == 7

    def test_full_game_partition_stream(self):
        stream = enumerate_partitions(GameSpec(120, 6))
        seen = sum(1 for _ in stream)
        assert seen == 436_140


class TestLottoPayoff:
    def test_all_tied(self):
        assert lotto_payoff((2, 2, 2), (2, 2, 2), GameSpec(6, 3, Fraction(0))) == 0

    def test_uneven_vs_even(self):
        sp0 = GameSpec(6, 3, Fraction(0))
        sp1 = GameSpec(6, 3, Fraction(1))
        assert lotto_payoff((4, 1, 1), (2, 2, 2), sp0) == 1
        assert lotto_payoff((4, 1, 1), (2, 2, 2), sp1) == 1

    def test_matches_permutation_average(self):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(2)):
            sp = GameSpec(6, 3, alpha)
            parts = list(enumerate_partitions(sp))
            for p in parts:
                for q in parts:
                    assert lotto_payoff(p, q, sp) == brute_lotto_payoff(p, q, sp)

    def test_sum_identity_under_random_matching(self):
        sp = GameSpec(8, 4, Fraction(1, 3))
        parts = list(enumerate_partitions(sp))
        k = sp.battlefields
        for p in parts[:6]:
            for q in parts[:6]:
                expected_ties = Fraction(
                    sum(1 for a in p for b in q if a == b), k
                )
                total = lotto_payoff(p, q, sp) + lotto_payoff(q, p, sp)
                assert total == k - (1 - sp.tie_value) * expected_ties
