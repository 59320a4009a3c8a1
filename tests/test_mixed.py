"""Mixed strategies: marginals, expected payoffs, sampling, serialization."""

import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blotto_lab import (
    ExplicitMixed,
    GameSpec,
    InvalidAllocationError,
    MarginalProfile,
    PreconditionError,
    canonical_pair_equilibrium,
    enumerate_allocations,
    expected_payoff_marginal,
    expected_payoff_pure_vs_mixed,
    independent_pairs_strategy,
    parity_strategy,
    read_strategy,
    write_strategy,
)
from blotto_lab import constructors, core, mixed
from blotto_lab.analysis import verify_marginals
from blotto_lab.core import value_row
from blotto_lab.mixed import _big_integers
from conftest import examples
from oracles import brute_expected_payoff, brute_marginal_payoff, brute_marginals

FULL_GAME = GameSpec(120, 6, Fraction(0))


def unit(spec, bids):
    return ExplicitMixed(spec, {tuple(bids): Fraction(1)})


class TestMarginalProfile:
    def test_point_mass_marginals(self):
        sp = GameSpec(120, 6)
        sigma = unit(sp, (20,) * 6)
        profile = sigma.marginals()
        for k in range(6):
            vec = profile.field(k)
            assert vec[20] == 1
            assert sum(vec) == 1

    def test_rejects_non_probability_vectors(self):
        sp = GameSpec(4, 2)
        short_mass = [[Fraction(1, 4)] * 2 + [Fraction(0)] * 3] * 2
        with pytest.raises(PreconditionError):
            MarginalProfile(sp, short_mass)
        wrong_length = [[Fraction(1, 2)] * 2] * 2
        with pytest.raises(PreconditionError):
            MarginalProfile(sp, wrong_length)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ([[1, 0, 0, 0, 0]] * 3, "expected 2 marginal vectors, got 3"),
            ([[1, 0, 0, 0]] * 2, "marginal 0 has 4 levels, expected 5"),
            ([[Fraction(3, 2), Fraction(-1, 2), 0, 0, 0]] * 2,
             "marginal 0 is not a probability vector"),
            ([[Fraction(1, 3)] * 2 + [0] * 3] * 2, "marginal 0 is not a probability vector"),
            ([[0, 1, 0, 0, 0], [Fraction(1, 2), 0, 0, 0, 0]],
             "marginal 1 is not a probability vector"),
            ([[0, 1, 0, 0, 0], [1, 0, 0]], "marginal 1 has 3 levels, expected 5"),
            ([[0, 0, 0, 0, 0], [1, 0, 0]], "marginal 0 is not a probability vector"),
        ],
        ids=["field-count", "length", "negative", "sum", "sum-after-good",
             "length-after-good", "first-bad-field-wins"],
    )
    def test_rejection_messages(self, fields, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            MarginalProfile(GameSpec(4, 2), fields)

    @settings(max_examples=examples(100), deadline=None)
    @given(data=st.data())
    def test_equality_and_hash_follow_the_fractions(self, data):
        sp = GameSpec(3, 2)

        def vec():
            den = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
            cuts = sorted(data.draw(st.lists(st.integers(0, den), min_size=3, max_size=3)))
            return [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]

        a_fields, b_fields = [vec(), vec()], [vec(), vec()]
        a, b = MarginalProfile(sp, a_fields), MarginalProfile(sp, b_fields)
        assert (a == b) == (a_fields == b_fields)
        if a == b:
            assert hash(a) == hash(b)
        again = MarginalProfile(sp, [[int(x) if x.denominator == 1 else x for x in v]
                                     for v in a_fields])
        assert again == a and hash(again) == hash(a)
        assert MarginalProfile(GameSpec(3, 2, Fraction(1)), a_fields) != a
        den, weights = a.scaled()
        assert den == math.lcm(*(x.denominator for v in a_fields for x in v))
        assert [[Fraction(w, den) for w in row] for row in weights] == a_fields

    def test_expected_total_is_budget_for_feasible_strategies(self):
        sp = GameSpec(8, 4)
        for sigma in (
            canonical_pair_equilibrium(sp),
            independent_pairs_strategy(sp),
            parity_strategy(sp, "odd"),
            parity_strategy(sp, "even"),
        ):
            assert sigma.marginals().expected_total() == sp.budget


TIE_VALUES = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2),
              Fraction(-1, 2))


class TestIntegerBuiltProfiles:
    """Profiles built from integer weights against the Fraction-built oracle."""

    @settings(max_examples=examples(150), deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(sorted(constructors.FAMILIES)),
        alpha=st.sampled_from(TIE_VALUES),
    )
    def test_family_marginals_match_the_atoms(self, data, family, alpha):
        k = data.draw(st.sampled_from([2, 4, 6] if family != "solver" else [2, 3]))
        m = data.draw(st.integers(1, 3 if k < 6 else 1))
        n = data.draw(st.sampled_from([m * k, m * k + 1]) if family == "pairs" else st.just(m * k))
        sp = GameSpec(n, k, alpha, allow_any_tie_value=not 0 <= alpha <= 2)
        s = None
        if family == "witness":
            cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
            s = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
            assume(max(s) <= 2 * sp.fair_share)  # else no witness exists
        try:
            sigma = constructors.FAMILIES[family](sp, s)
        except PreconditionError:
            assume(False)  # e.g. a pair count that does not divide the budget
        got, want = sigma.marginals(), sigma._marginals_from_atoms()
        assert got == want and hash(got) == hash(want)
        assert got.scaled() == want.scaled()
        assert [got.field(i) for i in range(k)] == [want.field(i) for i in range(k)]
        assert got.expected_total() == want.expected_total()
        den, weights = want.scaled()
        assert got.weight_matrix().tolist() == [list(w) for w in weights]

    def test_common_factor_is_reduced(self):
        sp = GameSpec(2, 2)
        reduced = MarginalProfile.from_weights(sp, 3, [[1, 2, 0], [0, 0, 3]])
        scaled = MarginalProfile.from_weights(sp, 12, [[4, 8, 0], [0, 0, 12]])
        fractions = MarginalProfile(sp, [[Fraction(1, 3), Fraction(2, 3), 0], [0, 0, 1]])
        assert scaled == reduced == fractions
        assert hash(scaled) == hash(reduced) == hash(fractions)
        assert scaled.scaled() == (3, ((1, 2, 0), (0, 0, 3)))
        assert scaled.field(0) == (Fraction(1, 3), Fraction(2, 3), 0)

    REJECTIONS = pytest.mark.parametrize(
        "den, fields, message",
        [
            (1, [[1, 0, 0, 0, 0]] * 3, "expected 2 marginal vectors, got 3"),
            (1, [[1, 0, 0, 0]] * 2, "marginal 0 has 4 levels, expected 5"),
            (2, [[3, -1, 0, 0, 0]] * 2, "marginal 0 is not a probability vector"),
            (3, [[1, 1, 0, 0, 0]] * 2, "marginal 0 is not a probability vector"),
            (2, [[0, 2, 0, 0, 0], [1, 0, 0, 0, 0]], "marginal 1 is not a probability vector"),
            (0, [[0, 0, 0, 0, 0]] * 2, "marginal 0 is not a probability vector"),
            (1 << 64, [[(1 << 64) + 1, -1, 0, 0, 0], [1 << 64, 0, 0, 0, 0]],
             "marginal 0 is not a probability vector"),
            (5, [[5, 0, 0, 0, 0], [1 << 70, 5 - (1 << 70), 0, 0, 0]],
             "marginal 1 is not a probability vector"),
        ],
        ids=["field-count", "length", "negative", "sum", "sum-after-good", "zero-den",
             "negative-past-int64", "weight-past-int64"],
    )

    @REJECTIONS
    def test_rejection_messages(self, den, fields, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            MarginalProfile.from_weights(GameSpec(4, 2), den, fields)

    @REJECTIONS
    def test_matrix_rejection_messages(self, den, fields, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            MarginalProfile.from_weights(GameSpec(4, 2), den, np.array(fields))

    @settings(max_examples=examples(150), deadline=None)
    @given(data=st.data())
    def test_matrix_input_matches_rows(self, data):
        # an int64 matrix builds the profile the rows build: ==, hash,
        # scaled() (lowest terms) and the weight matrix, which is a read-only
        # copy of the input
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(2, 4))
        factor = data.draw(st.sampled_from([1, 2, 6]))
        rows = [
            [factor * w for w in data.draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))]
            for _ in range(k)
        ]
        den = factor * data.draw(st.integers(1, 3 * (n + 1)))  # factor divides all
        sp = GameSpec(n, k)
        rows = [row[:-1] + [den - sum(row[:-1])] for row in rows]
        assume(all(row[-1] >= 0 for row in rows))
        matrix = np.array(rows, dtype=np.int64)
        got = MarginalProfile.from_weights(sp, den, matrix)
        want = MarginalProfile.from_weights(sp, den, rows)
        assert got == want and hash(got) == hash(want)
        assert got.scaled() == want.scaled()
        assert got.weight_matrix().tolist() == want.weight_matrix().tolist()
        matrix[0, 0] += 1
        assert got.scaled() == want.scaled()
        assert not got.weight_matrix().flags.writeable

    @staticmethod
    def three_ways(sp, den, rows):
        """The profile of ``rows / den`` from Fractions, from rows, and from a matrix.

        The matrix is int64 where every weight fits, ``object`` otherwise.
        """
        fits = all(w < 1 << 63 for row in rows for w in row)
        return [
            MarginalProfile(sp, [[Fraction(w, den) for w in row] for row in rows]),
            MarginalProfile.from_weights(sp, den, rows),
            MarginalProfile.from_weights(sp, den, np.array(rows, dtype=np.int64 if fits else object)),
        ]

    @pytest.mark.parametrize(
        "den, rows, lowest, dtype",
        [
            ((1 << 63) - 1, [[(1 << 63) - 2, 1, 0, 0], [0, 0, (1 << 63) - 3, 2]], (1 << 63) - 1,
             np.int64),
            (1 << 63, [[(1 << 63) - 1, 1, 0, 0], [0, 0, (1 << 63) - 2, 2]], 1 << 63, object),
            (1 << 64, [[1 << 63, 1 << 63, 0, 0], [0, 0, 1 << 63, 1 << 63]], 2, np.int64),
        ],
        ids=["bound-minus-one", "bound", "reduces-below-the-bound"],
    )
    def test_weight_matrix_leaves_int64_at_the_bound(self, den, rows, lowest, dtype):
        # int64 while den < 2**63 in lowest terms, an object matrix of Python
        # ints from there on, whichever entry point builds the profile
        sp = GameSpec(3, 2)
        profiles = self.three_ways(sp, den, rows)
        for got in profiles:
            assert got == profiles[0] and hash(got) == hash(profiles[0])
            assert got.scaled() == (
                lowest, tuple(tuple(w * lowest // den for w in row) for row in rows)
            )
            matrix = got.weight_matrix()
            assert matrix.dtype == dtype and not matrix.flags.writeable
            assert matrix.tolist() == [list(w) for w in got.scaled()[1]]
            assert {type(x) for x in matrix.tolist()[0]} == {int}

    def test_matrix_with_a_wide_denominator_takes_the_rows(self):
        # past 2**63 / (N + 1) a row sum could wrap in int64: the rows decide,
        # whichever entry point builds the profile
        sp = GameSpec(4, 2)
        den = (1 << 63) // 5
        for got in self.three_ways(sp, den, [[den, 0, 0, 0, 0], [0, 0, 0, 0, den]]):
            assert got.scaled() == (1, ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)))
            assert got.weight_matrix().dtype == np.int64
        bad = [[den, den, 0, 0, 0], [0, 0, 0, 0, den]]
        for build in (
            lambda: MarginalProfile(sp, [[Fraction(w, den) for w in row] for row in bad]),
            lambda: MarginalProfile.from_weights(sp, den, bad),
            lambda: MarginalProfile.from_weights(sp, den, np.array(bad, dtype=np.int64)),
            lambda: MarginalProfile.from_weights(sp, den, np.array(bad, dtype=object)),
        ):
            with pytest.raises(PreconditionError, match="^marginal 0 is not a probability vector$"):
                build()

    @settings(max_examples=examples(100), deadline=None)
    @given(data=st.data())
    def test_point_mass_matches_fractions(self, data):
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(2, 4))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
        bids = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        sp = GameSpec(n, k)
        got = MarginalProfile.point_mass(sp, bids)
        want = MarginalProfile(sp, [[Fraction(x == b) for x in range(n + 1)] for b in bids])
        assert got == want and hash(got) == hash(want)
        assert got.scaled() == want.scaled()
        assert list(got) == list(want)
        assert got.weight_matrix().tolist() == [list(w) for w in want.scaled()[1]]


class TestValueMatrix:
    def test_built_once_per_profile_and_tie_value(self, monkeypatch):
        sp = GameSpec(12, 4, "1/3")
        m_a = MarginalProfile.uniform(sp)
        m_b = MarginalProfile.parity(sp, "odd")
        built = []

        class CountingNumpy:  # numpy, with each value matrix build counted
            def __getattr__(self, name):
                return getattr(np, name)

            def cumsum(self, *args, **kwargs):
                built.append(1)
                return np.cumsum(*args, **kwargs)

        monkeypatch.setattr(core, "np", CountingNumpy())  # value_rows builds them
        verify_marginals(m_a, m_b, sp)  # a payoff and a best response per side
        assert len(built) == 2
        rows = mixed.value_matrix(m_b, sp)
        assert rows is mixed.value_matrix(m_b, sp) and not rows.flags.writeable
        assert len(built) == 2
        other = GameSpec(12, 4, "1")
        assert mixed.value_matrix(m_b, other).tolist() == [
            value_row(w, *other.tie_scale) for w in m_b.scaled()[1]
        ]
        assert mixed.value_matrix(m_b, sp).tolist() == rows.tolist()


class TestPayoffGuard:
    """expected_payoff_marginal: int64 while K * (q2 + |p|) * den_self * den_opp < 2**62."""

    @pytest.mark.parametrize(
        "k, alpha, den_self, den_opp, form",
        [
            # 3 * (2 + 715827881) * 1 * (2**31 - 1) == 2**62 - 1
            (3, Fraction(715827881), 1, 2**31 - 1, "int64"),
            # 2 * (2 + 0) * 2**30 * 2**30 == 2**62
            (2, Fraction(0), 2**30, 2**30, "object"),
        ],
        ids=["bound-minus-one", "bound"],
    )
    def test_guard_boundary_picks_the_form(self, k, alpha, den_self, den_opp, form, monkeypatch):
        sp = GameSpec(2, k, alpha, allow_any_tie_value=True)
        p, q2 = sp.tie_scale
        assert k * (q2 + abs(p)) * den_self * den_opp == (1 << 62) - (form == "int64")
        m_self = MarginalProfile.from_weights(sp, den_self, [[den_self - 1, 1, 0]] * k)
        m_opp = MarginalProfile.from_weights(
            sp, den_opp, [[den_opp - 3, 1, 2], [1, den_opp - 1, 0], [0, 1, den_opp - 1]][:k]
        )
        assert (m_self.scaled()[0], m_opp.scaled()[0]) == (den_self, den_opp)  # lowest terms
        seen = []

        class SpyNumpy:  # numpy, with the dtypes of each multiply-sum recorded
            def __getattr__(self, name):
                return getattr(np, name)

            def vdot(self, a, b):
                seen.append((a.dtype, b.dtype))
                return np.vdot(a, b)

        monkeypatch.setattr(mixed, "np", SpyNumpy())
        got = expected_payoff_marginal(m_self, m_opp, sp)
        assert seen == [(np.dtype(form),) * 2]
        assert got == brute_marginal_payoff(m_self, m_opp, sp)


class TestCanonicalMarginals:
    def test_uniform_over_correlated_pairs_is_uniform_marginal(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        assert sigma.marginals() == MarginalProfile.uniform(FULL_GAME)

    def test_analytic_marginals_match_atom_sum(self):
        sp = GameSpec(8, 4)
        for sigma in (
            canonical_pair_equilibrium(sp),
            independent_pairs_strategy(sp),
            parity_strategy(sp, "odd"),
            parity_strategy(sp, "even"),
        ):
            assert sigma.marginals() == brute_marginals(sigma, sp)

    def test_parity_marginal_support(self):
        sp = GameSpec(8, 4)
        even = parity_strategy(sp, "even").marginals()
        for k in range(4):
            assert all(p == 0 for x, p in enumerate(even.field(k)) if x % 2 == 1)


class TestExpectedPayoffs:
    def test_uniform_profile_value(self):
        profile = MarginalProfile.uniform(FULL_GAME)
        assert expected_payoff_marginal(profile, profile, FULL_GAME) == Fraction(120, 41)

    def test_closed_form_across_tie_values(self):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            for n, k in ((4, 2), (8, 4), (12, 6)):
                sp = GameSpec(n, k, alpha)
                profile = MarginalProfile.uniform(sp)
                expected = Fraction(k * (2 * n + alpha * k), 4 * n + 2 * k)
                assert expected_payoff_marginal(profile, profile, sp) == expected

    def test_parity_cross_profile_pays_half_per_battlefield(self):
        for alpha in (Fraction(0), Fraction(1), Fraction(2)):
            sp = GameSpec(8, 4, alpha)
            odd = MarginalProfile.parity(sp, "odd")
            even = MarginalProfile.parity(sp, "even")
            assert expected_payoff_marginal(odd, even, sp) == Fraction(sp.battlefields, 2)
            assert expected_payoff_marginal(even, odd, sp) == Fraction(sp.battlefields, 2)

    def test_marginal_linearity_matches_support_sum(self):
        sp = GameSpec(4, 2, Fraction(1, 3))
        pool = list(enumerate_allocations(sp))
        w = Fraction(1, len(pool))
        sigma_a = ExplicitMixed(sp, {s: w for s in pool})
        sigma_b = ExplicitMixed(
            sp, {(4, 0): Fraction(1, 2), (1, 3): Fraction(1, 4), (2, 2): Fraction(1, 4)}
        )
        via_marginals = expected_payoff_marginal(sigma_a.marginals(), sigma_b.marginals(), sp)
        assert via_marginals == brute_expected_payoff(sigma_a, sigma_b, sp)

    def test_overbid_hits_certainty(self):
        profile = MarginalProfile.uniform(FULL_GAME)
        s = (41, 79, 0, 0, 0, 0)
        value = expected_payoff_pure_vs_mixed(s, profile, FULL_GAME)
        # both positive bids exceed 2m = 40, so they win surely; zeros never win
        assert value == 2

    def test_member_of_support_is_indifferent(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        assert expected_payoff_pure_vs_mixed((0, 40, 0, 40, 0, 40), sigma, FULL_GAME) == Fraction(120, 41)

    def test_concentrated_vs_even_point_mass(self):
        sp = GameSpec(6, 3, Fraction(0))
        sigma = unit(sp, (2, 2, 2))
        assert expected_payoff_pure_vs_mixed((6, 0, 0), sigma, sp) == 1


class TestSampling:
    def test_point_mass_is_constant(self):
        sp = GameSpec(6, 3)
        sigma = unit(sp, (2, 2, 2))
        assert sigma.sample(7, 5) == [(2, 2, 2)] * 5

    def test_same_seed_same_stream(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        assert sigma.sample(123, 1000) == sigma.sample(123, 1000)

    def test_frequencies_within_binomial_bounds(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        draws = sigma.sample(2024, 100_000)
        counts = {}
        for s in draws:
            counts[s] = counts.get(s, 0) + 1
        p = Fraction(1, 41)
        mean = 100_000 * p
        sigma_bound = 5 * math.sqrt(100_000 * p * (1 - p))
        assert len(counts) == 41
        for atom, _ in sigma.atoms():
            assert abs(counts[atom] - mean) < sigma_bound, atom

    def test_explicit_draws_below_two_to_the_63_are_unchanged(self):
        # pinned draws of the int64 path, which denominators below 2**63 keep
        sp = GameSpec(4, 2)
        sigma = ExplicitMixed(sp, {(4, 0): Fraction(3, 4), (0, 4): Fraction(1, 8),
                                   (2, 2): Fraction(1, 8)})
        assert sigma.sample(99, 12) == [(4, 0)] * 4 + [(2, 2)] + [(4, 0)] * 7
        tiny = Fraction(1, 2**61 + 1)  # the lcm of the denominators has 62 bits
        sigma = ExplicitMixed(GameSpec(6, 3), {(6, 0, 0): Fraction(1, 3), (2, 2, 2): tiny,
                                               (1, 2, 3): Fraction(2, 3) - tiny})
        a, b = (6, 0, 0), (1, 2, 3)
        assert sigma.sample(5, 10) == [a, a, b, b, b, b, b, b, a, b]

    def test_explicit_sampler_past_int64(self):
        # the lcm of these denominators passes 2**63, numpy's int64 draw range
        tiny_a, tiny_b = Fraction(1, 2**32 + 15), Fraction(1, 2**31 + 11)
        sigma = ExplicitMixed(GameSpec(4, 2), {
            (0, 4): tiny_a, (1, 3): tiny_b, (2, 2): Fraction(1, 2),
            (4, 0): Fraction(1, 2) - tiny_a - tiny_b,
        })
        assert math.lcm(tiny_a.denominator, tiny_b.denominator) >= 2**63
        draws = sigma.sample(3, 20_000)
        assert draws == sigma.sample(3, 20_000)
        assert set(draws) <= {(2, 2), (4, 0)}
        assert abs(draws.count((2, 2)) - 10_000) < 5 * math.sqrt(20_000 / 4)

    @pytest.mark.parametrize("high", [6, 2**64 + 3, 3 * 2**100])
    def test_big_integer_draws_are_uniform(self, high):
        draws = _big_integers(np.random.PCG64(8), high, 6000)
        assert all(0 <= x < high for x in draws)
        # each sixth of the range holds a sixth of the draws
        counts = [0] * 6
        for x in draws:
            counts[x * 6 // high] += 1
        assert all(abs(c - 1000) < 160 for c in counts), counts

    @pytest.mark.parametrize("seed", [-1, 2.0, True, None])
    @pytest.mark.parametrize("family", ["explicit", "canonical", "independent-pairs", "witness"])
    def test_every_sampler_refuses_a_bad_seed(self, family, seed):
        sp = GameSpec(12, 4)
        sigma = {
            "explicit": lambda: unit(sp, (3, 3, 3, 3)),
            "canonical": lambda: canonical_pair_equilibrium(sp),
            "independent-pairs": lambda: independent_pairs_strategy(sp),
            "witness": lambda: constructors.FAMILIES["witness"](sp, (6, 1, 3, 2)),
        }[family]()
        with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
            sigma.sample(seed, 3)
        assert sigma.sample(2**64, 3) == sigma.sample(2**64, 3)

    def test_explicit_sampler_respects_weights(self):
        sp = GameSpec(4, 2)
        sigma = ExplicitMixed(sp, {(4, 0): Fraction(3, 4), (0, 4): Fraction(1, 4)})
        draws = sigma.sample(99, 40_000)
        heavy = sum(1 for d in draws if d == (4, 0))
        assert abs(heavy - 30_000) < 5 * math.sqrt(40_000 * 0.75 * 0.25)


class TestSerialization:
    def test_round_trip(self):
        sp = GameSpec(6, 2, Fraction(1, 2))
        sigma = canonical_pair_equilibrium(sp)
        buf = io.StringIO()
        write_strategy(sigma, buf, comment="round trip")
        buf.seek(0)
        back = read_strategy(buf)
        assert back.spec == sp
        assert dict(back.atoms()) == dict(sigma.atoms())

    def test_header_format(self):
        sp = GameSpec(4, 2, Fraction(1, 3))
        buf = io.StringIO()
        write_strategy(canonical_pair_equilibrium(sp), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "4 2 1 3"
        assert lines[1] == "1 5 0 4"

    def test_rejects_bad_totals(self):
        text = "4 2 1 1\n1 2 4 0\n"
        with pytest.raises(PreconditionError):
            read_strategy(io.StringIO(text))

    @pytest.mark.parametrize(
        "text",
        ["2 2 0 1\nhalf 2 1 1\n", "2 2 0 1\n1 0 1 1\n", "2 2 0 0\n"],
        ids=["non-integer", "zero-atom-denominator", "zero-tie-denominator"],
    )
    def test_malformed_cells_are_invalid_allocations(self, text):
        with pytest.raises(InvalidAllocationError):
            read_strategy(io.StringIO(text))
