"""Game definition and exact payoff arithmetic."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blotto_lab import (
    GameSpec,
    InvalidAllocationError,
    PreconditionError,
    battle_outcome,
    battlefield_value,
    exact_fraction,
    payoff,
    payoff_sum_identity,
)


def spec(n, k, alpha="0", **kw):
    return GameSpec(n, k, exact_fraction(alpha), **kw)


class TestGameSpec:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(PreconditionError):
            GameSpec(0, 3)
        with pytest.raises(PreconditionError):
            GameSpec(5, 1)
        with pytest.raises(PreconditionError):
            GameSpec(True, 2)
        with pytest.raises(PreconditionError):
            GameSpec(6, True)

    def test_two_battlefields_allowed(self):
        assert GameSpec(6, 2).battlefields == 2

    def test_tie_value_range(self):
        with pytest.raises(PreconditionError):
            spec(6, 3, "5/2")
        assert spec(6, 3, "5/2", allow_any_tie_value=True).tie_value == Fraction(5, 2)

    def test_tie_value_rejects_float(self):
        with pytest.raises(TypeError):
            GameSpec(6, 3, 0.5)

    def test_fair_share_requires_divisibility(self):
        assert spec(120, 6).fair_share == 20
        with pytest.raises(PreconditionError):
            spec(7, 3).fair_share

    def test_allocation_validation(self):
        sp = spec(6, 3)
        assert sp.validate_allocation([1, 2, 3]) == (1, 2, 3)
        with pytest.raises(InvalidAllocationError):
            sp.validate_allocation([1, 2])
        with pytest.raises(InvalidAllocationError):
            sp.validate_allocation([1, 2, 4])
        with pytest.raises(InvalidAllocationError):
            sp.validate_allocation([7, -1, 0])
        with pytest.raises(InvalidAllocationError):
            spec(2, 2).validate_allocation([True, True])


class TestBattlefieldValue:
    def test_strict_win_pays_one_for_any_tie_value(self):
        assert battlefield_value(5, 3, spec(8, 2, "0")) == 1
        assert battlefield_value(5, 3, spec(8, 2, "2")) == 1

    def test_tie_pays_half_the_tie_value(self):
        assert battlefield_value(4, 4, spec(8, 2, "1")) == Fraction(1, 2)
        assert battlefield_value(4, 4, spec(8, 2, "0")) == 0
        assert battlefield_value(4, 4, spec(8, 2, "2")) == 1

    def test_loss_pays_nothing(self):
        assert battlefield_value(3, 5, spec(8, 2, "2")) == 0


class TestPayoff:
    def test_focal_point_pays_zero_without_tie_value(self):
        sp = spec(120, 6, "0")
        s = (20,) * 6
        assert payoff(s, s, sp) == 0

    def test_concentrated_bid_example(self):
        sp = spec(120, 6, "1")
        assert payoff((120, 0, 0, 0, 0, 0), (119, 1, 0, 0, 0, 0), sp) == 3

    def test_spread_bid_example(self):
        sp = spec(120, 6, "1")
        assert payoff((115, 1, 1, 1, 1, 1), (119, 1, 0, 0, 0, 0), sp) == Fraction(9, 2)

    def test_outcome_decomposition(self):
        out = battle_outcome((3, 3, 0), (0, 3, 3), spec(6, 3))
        assert (out.wins, out.ties, out.losses) == (1, 1, 1)

    def test_rejects_mismatched_allocations(self):
        with pytest.raises(InvalidAllocationError):
            payoff((1, 2, 3), (6, 0), spec(6, 3))


class TestPayoffSumIdentity:
    def test_constant_sum_on_diagonal(self):
        sp = spec(9, 3, "1")
        assert payoff_sum_identity((3, 3, 3), (3, 3, 3), sp) == 3

    def test_one_tie_worth_nothing(self):
        assert payoff_sum_identity((3, 3, 0), (0, 3, 3), spec(6, 3, "0")) == 2

    def test_one_tie_worth_double(self):
        assert payoff_sum_identity((3, 3, 0), (0, 3, 3), spec(6, 3, "2")) == 4


def all_allocations(n, k):
    out = []
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        out.append(tuple(bounds[i + 1] - bounds[i] for i in range(k)))
    return out


def test_sum_identity_exhaustive_small_games():
    for n, k in ((4, 3), (5, 2), (6, 4)):
        for alpha in ("0", "2/3", "2"):
            sp = spec(n, k, alpha)
            pool = all_allocations(n, k)
            for s in pool:
                for t in pool:
                    ties = sum(1 for a, b in zip(s, t) if a == b)
                    expected = k - (1 - sp.tie_value) * ties
                    assert payoff(s, t, sp) + payoff(t, s, sp) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alpha=st.sampled_from(["0", "1/2", "1", "3/2", "2"]))
def test_sum_identity_matches_tie_count(data, alpha):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(2, 4))
    sp = spec(n, k, alpha)
    pool = all_allocations(n, k)
    s = data.draw(st.sampled_from(pool))
    t = data.draw(st.sampled_from(pool))
    ties = sum(1 for a, b in zip(s, t) if a == b)
    assert payoff(s, t, sp) + payoff(t, s, sp) == k - (1 - sp.tie_value) * ties


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_payoff_is_permutation_equivariant(data):
    sp = spec(6, 3, "1/2")
    pool = all_allocations(6, 3)
    s = data.draw(st.sampled_from(pool))
    t = data.draw(st.sampled_from(pool))
    perm = data.draw(st.permutations(range(3)))
    s2 = tuple(s[i] for i in perm)
    t2 = tuple(t[i] for i in perm)
    assert payoff(s, t, sp) == payoff(s2, t2, sp)


def test_single_unit_move_changes_payoff_boundedly():
    sp = spec(6, 3, "1")
    bound = 1 + sp.half_tie
    for s in all_allocations(6, 3):
        for t in all_allocations(6, 3):
            base = payoff(s, t, sp)
            for i in range(3):
                for j in range(3):
                    if i == j or s[i] == 0:
                        continue
                    moved = list(s)
                    moved[i] -= 1
                    moved[j] += 1
                    assert abs(payoff(tuple(moved), t, sp) - base) <= bound
