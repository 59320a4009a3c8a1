"""Named strategy constructors and the uniform-marginal solver."""

from fractions import Fraction
from itertools import permutations

import pytest

from blotto_lab import (
    EnumerationTooLargeError,
    GameSpec,
    MarginalProfile,
    NotCoverableError,
    PreconditionError,
    canonical_pair_equilibrium,
    good_strategy_witness,
    independent_pairs_strategy,
    pairwise_fixed_sum_equilibrium,
    parity_strategy,
    uniform_marginal_solver,
)
from blotto_lab.constructors import FAMILIES
from blotto_lab.mixed import SwappedPairsWitness
from blotto_lab.space import enumerate_allocations
from oracles import brute_marginals

FULL_GAME = GameSpec(120, 6, Fraction(0))


class TestCanonical:
    def test_full_game_support(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        atoms = list(sigma.atoms())
        assert len(atoms) == 41
        assert atoms[0][0] == (0, 40, 0, 40, 0, 40)
        assert atoms[-1][0] == (40, 0, 40, 0, 40, 0)
        assert all(prob == Fraction(1, 41) for _, prob in atoms)

    def test_single_pair(self):
        sigma = canonical_pair_equilibrium(GameSpec(6, 2))
        assert [a for a, _ in sigma.atoms()] == [(j, 6 - j) for j in range(7)]
        assert all(p == Fraction(1, 7) for _, p in sigma.atoms())

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="solver"):
            canonical_pair_equilibrium(GameSpec(6, 3))
        with pytest.raises(PreconditionError):
            canonical_pair_equilibrium(GameSpec(7, 4))


class TestPairwiseFixedSum:
    def test_odd_pair_budget(self):
        sigma = pairwise_fixed_sum_equilibrium(GameSpec(6, 4))
        atoms = [a for a, _ in sigma.atoms()]
        assert atoms == [(0, 3, 0, 3), (1, 2, 1, 2), (2, 1, 2, 1), (3, 0, 3, 0)]
        assert sigma.marginals() == brute_marginals(sigma, GameSpec(6, 4))

    def test_collapses_to_canonical_when_fully_divisible(self):
        a = dict(canonical_pair_equilibrium(FULL_GAME).atoms())
        b = dict(pairwise_fixed_sum_equilibrium(FULL_GAME).atoms())
        assert a == b

    def test_divisibility_precondition(self):
        with pytest.raises(PreconditionError):
            pairwise_fixed_sum_equilibrium(GameSpec(5, 4))


class TestIndependentPairs:
    def test_single_pair_collapses_to_canonical(self):
        sp = GameSpec(4, 2)
        assert dict(independent_pairs_strategy(sp).atoms()) == dict(
            canonical_pair_equilibrium(sp).atoms()
        )

    def test_atom_count_and_probabilities(self):
        sp = GameSpec(8, 4)
        sigma = independent_pairs_strategy(sp)
        atoms = list(sigma.atoms())
        assert len(atoms) == 25
        assert all(p == Fraction(1, 25) for _, p in atoms)

    def test_full_game_indexed_access(self):
        sigma = independent_pairs_strategy(FULL_GAME)
        assert sigma.support_size() == 41**3 == 68_921
        assert sigma.atom(0) == (0, 40, 0, 40, 0, 40)
        assert sigma.atom(68_920) == (40, 0, 40, 0, 40, 0)
        mid = sigma.atom(17 * 41 * 41 + 5 * 41 + 33)
        assert mid == (17, 23, 5, 35, 33, 7)
        assert sigma.probability(mid) == Fraction(1, 68_921)
        assert sigma.probability((41, 39, 0, 40, 0, 0)) == 0

    def test_marginals_uniform(self):
        sp = GameSpec(8, 4)
        sigma = independent_pairs_strategy(sp)
        assert sigma.marginals() == MarginalProfile.uniform(sp)
        assert brute_marginals(sigma, sp) == MarginalProfile.uniform(sp)


class TestWitness:
    def test_focal_point_in_support(self):
        s = (20,) * 6
        sigma = good_strategy_witness(s, FULL_GAME)
        assert sigma.probability(s) > 0

    def test_boundary_strategy_in_support(self):
        s = (40, 40, 40, 0, 0, 0)
        sigma = good_strategy_witness(s, FULL_GAME)
        assert sigma.probability(s) == Fraction(1, 68_921)

    def test_not_coverable(self):
        with pytest.raises(NotCoverableError):
            good_strategy_witness((60, 30, 30, 0, 0, 0), FULL_GAME)

    def test_swap_preserves_marginals_exactly(self):
        sp = GameSpec(8, 4)
        for s in [(4, 4, 0, 0), (3, 1, 2, 2), (0, 4, 3, 1), (2, 2, 2, 2), (4, 0, 0, 4)]:
            sigma = good_strategy_witness(s, sp)
            assert sigma.probability(s) > 0
            assert brute_marginals(sigma, sp) == MarginalProfile.uniform(sp)
            assert sigma.marginals() == brute_marginals(sigma, sp)

    def test_swap_touches_exactly_two_atoms(self):
        sp = GameSpec(8, 4)
        s = (3, 2, 1, 2)  # not pair-balanced: 3+2 != 4
        witness = dict(good_strategy_witness(s, sp).atoms())
        base = dict(independent_pairs_strategy(sp).atoms())
        gained = set(witness) - set(base)
        lost = set(base) - set(witness)
        assert len(gained) == 2 and len(lost) == 2
        assert s in gained

    def test_member_of_base_support_degenerates(self):
        sp = GameSpec(8, 4)
        s = (1, 3, 4, 0)  # each pair sums to 2m = 4
        sigma = good_strategy_witness(s, sp)
        assert dict(sigma.atoms()) == dict(independent_pairs_strategy(sp).atoms())

    def test_single_pair_always_degenerates(self):
        sp = GameSpec(4, 2)
        sigma = good_strategy_witness((1, 3), sp)
        assert dict(sigma.atoms()) == dict(canonical_pair_equilibrium(sp).atoms())


class TestParity:
    def test_even_atoms(self):
        sigma = parity_strategy(GameSpec(4, 2), "even")
        assert dict(sigma.atoms()) == {
            (0, 4): Fraction(1, 3),
            (2, 2): Fraction(1, 3),
            (4, 0): Fraction(1, 3),
        }

    def test_odd_atoms(self):
        sigma = parity_strategy(GameSpec(4, 2), "odd")
        assert dict(sigma.atoms()) == {(1, 3): Fraction(1, 2), (3, 1): Fraction(1, 2)}

    def test_marginals_match_parity_profile(self):
        sp = GameSpec(12, 4)
        for which in ("odd", "even"):
            sigma = parity_strategy(sp, which)
            assert sigma.marginals() == MarginalProfile.parity(sp, which)
            assert brute_marginals(sigma, sp) == sigma.marginals()

    def test_bad_parity_name(self):
        with pytest.raises(PreconditionError):
            parity_strategy(GameSpec(4, 2), "prime")


class TestSolver:
    def test_orbit_cap_is_a_precondition(self):
        # 6/3 has 5 partitions with no part above 4
        with pytest.raises(EnumerationTooLargeError, match="cap of 4 orbits"):
            uniform_marginal_solver(GameSpec(6, 3), max_orbits=4)
        assert uniform_marginal_solver(GameSpec(6, 3), max_orbits=5).support_size() == 13

    def test_odd_battlefields_reproduces_published_weights(self):
        sp = GameSpec(6, 3, Fraction(0))
        sigma = uniform_marginal_solver(sp)
        heavy = {(2, 2, 2)}
        heavy |= set(permutations((3, 3, 0)))
        heavy |= set(permutations((4, 1, 1)))
        light = set(permutations((4, 2, 0)))
        table = dict(sigma.atoms())
        assert set(table) == heavy | light
        assert all(table[s] == Fraction(1, 10) for s in heavy)
        assert all(table[s] == Fraction(1, 20) for s in light)

    def test_solution_lies_in_published_family(self):
        # The nonnegative solutions form a segment between the two published
        # endpoint weight vectors; recover the parameter from one orbit and
        # check every other orbit agrees with it.
        sp = GameSpec(6, 3, Fraction(1))
        sigma = uniform_marginal_solver(sp)
        per_orbit = {}
        for atom, prob in sigma.atoms():
            orbit = tuple(sorted(atom, reverse=True))
            per_orbit.setdefault(orbit, prob)
        end0 = {
            (4, 1, 1): Fraction(1, 10),
            (2, 2, 2): Fraction(1, 10),
            (3, 2, 1): Fraction(0),
            (3, 3, 0): Fraction(1, 10),
            (4, 2, 0): Fraction(1, 20),
        }
        end1 = {
            (4, 1, 1): Fraction(1, 15),
            (2, 2, 2): Fraction(0),
            (3, 2, 1): Fraction(1, 30),
            (3, 3, 0): Fraction(1, 15),
            (4, 2, 0): Fraction(1, 15),
        }
        lam = None
        for orbit in end0:
            got = per_orbit.get(orbit, Fraction(0))
            span = end1[orbit] - end0[orbit]
            if span != 0:
                lam_here = (got - end0[orbit]) / span
                lam = lam_here if lam is None else lam
                assert lam_here == lam
        assert lam is not None and 0 <= lam <= 1
        for orbit in end0:
            got = per_orbit.get(orbit, Fraction(0))
            assert got == (1 - lam) * end0[orbit] + lam * end1[orbit]

    def test_marginals_exactly_uniform(self):
        for n, k in ((6, 3), (4, 2), (9, 3), (8, 4)):
            sp = GameSpec(n, k)
            sigma = uniform_marginal_solver(sp)
            assert brute_marginals(sigma, sp) == MarginalProfile.uniform(sp)

    def test_divisibility_required(self):
        with pytest.raises(PreconditionError):
            uniform_marginal_solver(GameSpec(7, 3))


# a witness target outside the independent-pairs support of each game, so
# two of its atoms are swapped out
WITNESS_TARGETS = {(8, 4): (1, 2, 3, 2), (12, 4): (2, 1, 5, 4)}


@pytest.mark.parametrize(
    "family, n, k",
    [(name, n, 4) for name in FAMILIES for n in (8, 12)] + [("solver", 6, 3)],
)
def test_probability_is_the_atoms_weight(family, n, k):
    # every registered family: each atom's probability is its weight, the
    # weights sum to 1, and every other bid vector scores 0
    sp = GameSpec(n, k)
    sigma = FAMILIES[family](sp, WITNESS_TARGETS.get((n, k)))
    atoms = dict(sigma.atoms())
    assert len(atoms) == sigma.support_size()
    assert sum(atoms.values()) == 1
    for bids in enumerate_allocations(sp):
        assert sigma.probability(bids) == atoms.get(bids, 0)
    if family == "witness":
        assert isinstance(sigma, SwappedPairsWitness)
        for removed in (sigma.removed_a, sigma.removed_b):
            assert removed not in atoms and sigma.probability(removed) == 0
