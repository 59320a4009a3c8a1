"""Best responses, equilibrium verification, classification, dominance."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blotto_lab import (
    GameSpec,
    InvalidComparisonError,
    MarginalProfile,
    Verdict,
    WrongRegimeError,
    alpha_robustness_scan,
    best_response,
    canonical_pair_equilibrium,
    classify,
    classify_constant_sum,
    concentration_bounds,
    concentration_threshold,
    enumerate_allocations,
    expected_payoff_marginal,
    expected_payoff_pure_vs_mixed,
    no_dominance_regime,
    parity_strategy,
    payoff,
    psne_check,
    uniform_marginal_solver,
    verify_equilibrium,
    weakly_dominates,
)
from blotto_lab import SolverFailureError, analysis, constructors, kernels
from blotto_lab.core import value_row
from conftest import examples
from oracles import (
    brute_best_response,
    brute_dominance_gaps,
    brute_marginal_payoff,
    brute_marginals,
)

FULL_GAME = GameSpec(120, 6, Fraction(0))


def explicit_profile(spec, rows):
    return MarginalProfile(spec, rows)


class TestBestResponse:
    def test_uniform_opponent_full_game(self):
        res = best_response(MarginalProfile.uniform(FULL_GAME), FULL_GAME)
        assert res.value == Fraction(120, 41)

    def test_point_mass_opponent_small(self):
        sp = GameSpec(6, 3, Fraction(0))
        res = best_response(MarginalProfile.point_mass(sp, (2, 2, 2)), sp)
        assert res.value == 2
        assert res.argmax == (0, 3, 3)

    @pytest.mark.parametrize(
        "alpha, den, dtype",
        [
            # (2 + 1) * (2**62 - 1) / 3 == 2**62 - 1
            (Fraction(1), ((1 << 62) - 1) // 3, np.int64),
            # (2 + 0) * 2**61 == 2**62
            (Fraction(0), 1 << 61, object),
        ],
        ids=["bound-minus-one", "bound"],
    )
    def test_value_rows_leave_int64_at_the_bound(self, alpha, den, dtype, monkeypatch):
        # the value rows are one int64 matrix while (q2 + |p|) * den < 2**62,
        # one object matrix (Python ints) from there on, past the DP's guard;
        # both give the enumerated best response
        sp = GameSpec(3, 3, alpha)
        p, q2 = sp.tie_scale
        weights = [[den - 1, 1, 0, 0], [0, den - 2, 1, 1], [1, 0, 0, den - 1]]
        profile = MarginalProfile.from_weights(sp, den, weights)
        assert profile.scaled()[0] == den  # lowest terms
        assert (q2 + abs(p)) * den == (1 << 62) - (dtype is np.int64)
        seen = []
        dp = analysis.best_split
        monkeypatch.setattr(analysis, "best_split", lambda t, b: seen.append(t.dtype) or dp(t, b))
        res = best_response(profile, sp)
        assert seen == [np.dtype(dtype)]
        assert (res.value, res.argmax) == brute_best_response(profile, sp)

    def test_overbidding_never_beats_uniform(self):
        for alpha in (Fraction(0), Fraction(1), Fraction(2)):
            sp = GameSpec(12, 4, alpha)
            profile = MarginalProfile.uniform(sp)
            res = best_response(profile, sp)
            top = 2 * sp.fair_share
            stay = Fraction(sp.battlefields * (2 * sp.budget + alpha * sp.battlefields),
                            4 * sp.budget + 2 * sp.battlefields)
            assert res.value == stay
            overbid = (top + 1, sp.budget - top - 1, 0, 0)
            assert expected_payoff_pure_vs_mixed(overbid, profile, sp) <= stay

    def test_matches_brute_force_on_assorted_profiles(self):
        sp = GameSpec(6, 3, Fraction(1, 3))
        profiles = [
            MarginalProfile.uniform(sp),
            MarginalProfile.point_mass(sp, (4, 1, 1)),
            uniform_marginal_solver(sp).marginals(),
            explicit_profile(
                sp,
                [
                    [Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, 0],
                    [0, 0, Fraction(1, 4), Fraction(3, 4), 0, 0, 0],
                    [Fraction(1, 6)] * 6 + [0],
                ],
            ),
        ]
        for profile in profiles:
            res = best_response(profile, sp)
            brute_value, _ = brute_best_response(profile, sp)
            assert res.value == brute_value
            assert expected_payoff_pure_vs_mixed(res.argmax, profile, sp) == res.value

    def test_matches_brute_force_on_larger_desk_spec(self):
        sp = GameSpec(12, 4, Fraction(1, 2))
        for profile in (
            MarginalProfile.uniform(sp),
            MarginalProfile.parity(sp, "even"),
            MarginalProfile.point_mass(sp, (5, 4, 2, 1)),
        ):
            res = best_response(profile, sp)
            brute_value, _ = brute_best_response(profile, sp)
            assert res.value == brute_value

    def test_argmax_is_lexicographically_smallest(self):
        sp = GameSpec(4, 2, Fraction(0))
        res = best_response(MarginalProfile.point_mass(sp, (2, 2)), sp)
        brute = [
            s
            for s in enumerate_allocations(sp)
            if expected_payoff_pure_vs_mixed(s, MarginalProfile.point_mass(sp, (2, 2)), sp)
            == res.value
        ]
        assert res.argmax == min(brute)


def corrupt_kernel(monkeypatch, change):
    """Make the int64 budget DP return ``change(value, bids)`` instead of its answer."""
    dp = kernels.best_split_numpy
    monkeypatch.setattr(kernels, "best_split_numpy", lambda t, b: change(*dp(t, b)))


class TestRuntimeCrossCheck:
    """A wrong kernel answer raises SolverFailureError instead of becoming a verdict."""

    @pytest.mark.parametrize(
        "change",
        [lambda v, bids: (v + 1, bids), lambda v, bids: (v, bids[1:] + bids[:1])],
        ids=["optimum", "argmax"],
    )
    def test_best_response_rescores_its_argmax(self, change, monkeypatch):
        sp = GameSpec(12, 4, Fraction(1, 3))
        profile = MarginalProfile.point_mass(sp, (6, 3, 2, 1))
        best_response(profile, sp)
        corrupt_kernel(monkeypatch, change)
        with pytest.raises(SolverFailureError, match="best response"):
            best_response(profile, sp)

    def test_best_response_rescores_apart_from_the_value_rows(self, monkeypatch):
        # the true rows, but bidding the whole budget on field 0 outscores
        # every split: the DP follows the bad rows, the re-score the weights
        sp = GameSpec(12, 4, Fraction(1, 3))
        profile = MarginalProfile.point_mass(sp, (6, 3, 2, 1))
        honest = best_response(profile, sp)
        bumped = np.array(analysis.value_matrix(profile, sp))
        bumped[0, sp.budget] += sp.tie_scale[1] * 4  # K fields of at most q2 * den
        assert kernels.best_split(bumped, sp.budget)[1] == (12, 0, 0, 0) != honest.argmax
        monkeypatch.setattr(analysis, "value_matrix", lambda m_opp, spec: bumped)
        with pytest.raises(SolverFailureError, match="best response"):
            best_response(profile, sp)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_dominance_rescores_both_witnesses(self, shift, monkeypatch):
        sp = GameSpec(6, 3)
        weakly_dominates((2, 2, 2), (4, 1, 1), sp)
        corrupt_kernel(monkeypatch, lambda v, bids: (v + shift, bids))
        with pytest.raises(SolverFailureError, match="dominance witness"):
            weakly_dominates((2, 2, 2), (4, 1, 1), sp)


class TestSymmetricVerify:
    def test_one_side_is_computed_once(self, monkeypatch):
        sp = GameSpec(12, 4, Fraction(1, 3))
        sigma = canonical_pair_equilibrium(sp)
        both = verify_equilibrium(sigma, canonical_pair_equilibrium(sp), sp)
        calls = []
        for name in ("best_response", "expected_payoff_marginal"):
            fn = getattr(analysis, name)
            monkeypatch.setattr(analysis, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        marginals = sigma.marginals
        monkeypatch.setattr(sigma, "marginals", lambda: calls.append("marginals") or marginals())
        assert verify_equilibrium(sigma, sigma, sp) == both
        assert sorted(calls) == ["best_response", "expected_payoff_marginal", "marginals"]

    def test_asymmetric_profile_computes_both_sides(self):
        sp = GameSpec(8, 4, Fraction(1, 2))
        odd, even = parity_strategy(sp, "odd"), parity_strategy(sp, "even")
        report = verify_equilibrium(odd, even, sp)
        flipped = verify_equilibrium(even, odd, sp)
        assert (report.gap_a, report.payoff_a) == (flipped.gap_b, flipped.payoff_b)
        assert report.best_reply_a == best_response(even.marginals(), sp).argmax
        assert report.best_reply_b == best_response(odd.marginals(), sp).argmax


def random_marginals(draw, spec, dens):
    """One random probability vector per field, field k over denominator ``dens[k]``."""
    fields = []
    for den in dens:
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=spec.budget,
                                    max_size=spec.budget)))
        fields.append([Fraction(hi - lo, den) for lo, hi in zip([0, *cuts], [*cuts, den])])
    return MarginalProfile(spec, fields)


class TestIntegerValueRows:
    """best_response and expected_payoff_marginal run on value_row; check them by brute force."""

    def test_value_row_against_uniform(self):
        sp = GameSpec(8, 4, Fraction(1))
        den, weights = MarginalProfile.uniform(sp).scaled()
        p, q2 = sp.tie_scale
        row = value_row(weights[0], p, q2)
        # bidding 2m + 1 = 5 against the uniform marginal wins for sure
        assert Fraction(row[5], q2 * den) == 1
        assert Fraction(row[0], q2 * den) == Fraction(1, 2) * Fraction(1, 5)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        k=st.integers(2, 3),
        alpha=st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(-1, 2)]
        ),
    )
    def test_match_brute_force_on_small_games(self, data, n, k, alpha):
        sp = GameSpec(n, k, alpha, allow_any_tie_value=not 0 <= alpha <= 2)
        dens = st.lists(st.integers(1, 30), min_size=k, max_size=k, unique=True)
        m_self = random_marginals(data.draw, sp, data.draw(dens))
        m_opp = random_marginals(data.draw, sp, data.draw(dens))
        res = best_response(m_opp, sp)
        assert (res.value, res.argmax) == brute_best_response(m_opp, sp)
        assert expected_payoff_marginal(m_self, m_opp, sp) == brute_marginal_payoff(
            m_self, m_opp, sp
        )


class TestVerifyEquilibrium:
    def test_canonical_profile_full_game(self):
        sigma = canonical_pair_equilibrium(FULL_GAME)
        report = verify_equilibrium(sigma, sigma, FULL_GAME)
        assert report.is_equilibrium
        assert report.gap_a == 0 and report.gap_b == 0
        assert report.payoff_a == Fraction(120, 41)

    def test_canonical_across_grid(self):
        for k in (2, 4, 6):
            for m in (1, 2, 3):
                for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
                    sp = GameSpec(m * k, k, alpha)
                    sigma = canonical_pair_equilibrium(sp)
                    report = verify_equilibrium(sigma, sigma, sp)
                    assert report.is_equilibrium, sp

    def test_parity_profile_table(self):
        sp = GameSpec(8, 4)
        odd = lambda a: parity_strategy(GameSpec(8, 4, a), "odd")
        even = lambda a: parity_strategy(GameSpec(8, 4, a), "even")
        half = Fraction(1, 2)
        for alpha, expect in ((Fraction(0), True), (half, True), (Fraction(1), True),
                              (Fraction(3, 2), False)):
            sp_a = GameSpec(8, 4, alpha)
            report = verify_equilibrium(odd(alpha), even(alpha), sp_a)
            assert report.is_equilibrium is expect, alpha
            if expect:
                assert report.payoff_a == report.payoff_b == 2
        for alpha, expect in ((half, False), (Fraction(1), True),
                              (Fraction(3, 2), True), (Fraction(2), True)):
            sp_a = GameSpec(8, 4, alpha)
            report = verify_equilibrium(even(alpha), even(alpha), sp_a)
            assert report.is_equilibrium is expect, alpha

    def test_solver_output_is_equilibrium_for_any_tie_value(self):
        for alpha in (Fraction(0), Fraction(1), Fraction(2)):
            sp = GameSpec(6, 3, alpha)
            sigma = uniform_marginal_solver(sp)
            assert verify_equilibrium(sigma, sigma, sp).is_equilibrium


class TestClassify:
    def test_full_game_threshold(self):
        assert concentration_threshold(FULL_GAME) == Fraction(720, 246)

    def test_two_battlefield_concentration_never_good(self):
        verdict = classify((60, 60, 0, 0, 0, 0), FULL_GAME)
        assert verdict.verdict is Verdict.NEVER_GOOD
        assert verdict.active_fields == 2
        assert verdict.witness is None

    def test_over_cap_three_field_strategy_unknown(self):
        verdict = classify((60, 30, 30, 0, 0, 0), FULL_GAME)
        assert verdict.verdict is Verdict.UNKNOWN

    def test_within_cap_good_with_verified_witness(self):
        verdict = classify((40, 40, 40, 0, 0, 0), FULL_GAME)
        assert verdict.verdict is Verdict.GOOD
        assert verdict.witness is not None
        assert verdict.witness.probability((40, 40, 40, 0, 0, 0)) > 0

    def test_corrupted_swap_is_not_good(self, monkeypatch):
        sp = GameSpec(12, 4)
        s = (6, 1, 3, 2)
        assert classify(s, sp).verdict is Verdict.GOOD
        build = constructors.good_strategy_witness

        def wrong_mirror(target, spec):
            witness = build(target, spec)
            witness.added_b = tuple(reversed(witness.added_b))
            return witness

        monkeypatch.setattr(constructors, "good_strategy_witness", wrong_mirror)
        witness = constructors.good_strategy_witness(s, sp)
        assert witness.marginals() == brute_marginals(witness, sp)
        assert witness.marginals() != MarginalProfile.uniform(sp)
        assert classify(s, sp).verdict is Verdict.UNKNOWN

    def test_good_verdict_computes_witness_marginals_once(self, monkeypatch):
        build = constructors.good_strategy_witness
        calls = []

        def counted(target, spec):
            witness = build(target, spec)
            marginals = witness.marginals

            def count():
                calls.append(target)
                return marginals()

            witness.marginals = count
            return witness

        monkeypatch.setattr(constructors, "good_strategy_witness", counted)
        assert classify((40, 40, 40, 0, 0, 0), FULL_GAME).verdict is Verdict.GOOD
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "n, k, alpha, s, verdict, reason",
        [
            (12, 4, 1, (9, 1, 1, 1), Verdict.UNKNOWN, "over_cap"),
            (12, 3, 1, (4, 4, 4), Verdict.UNKNOWN, "odd_fields"),
            (13, 4, 0, (13, 0, 0, 0), Verdict.UNKNOWN, "indivisible"),
            (12, 4, 0, (12, 0, 0, 0), Verdict.NEVER_GOOD, "below_threshold"),
            (12, 4, 1, (6, 1, 3, 2), Verdict.GOOD, "witness_verified"),
        ],
    )
    def test_reason(self, n, k, alpha, s, verdict, reason):
        result = classify(s, GameSpec(n, k, alpha))
        assert (result.verdict, result.reason) == (verdict, reason)

    def test_reason_witness_failed(self, monkeypatch):
        build = constructors.good_strategy_witness

        def wrong_mirror(target, spec):
            witness = build(target, spec)
            witness.added_b = tuple(reversed(witness.added_b))
            return witness

        monkeypatch.setattr(constructors, "good_strategy_witness", wrong_mirror)
        result = classify((6, 1, 3, 2), GameSpec(12, 4))
        assert (result.verdict, result.reason) == (Verdict.UNKNOWN, "witness_failed")

    def test_never_good_disabled_at_constant_sum(self):
        sp = GameSpec(120, 6, Fraction(1))
        verdict = classify((120, 0, 0, 0, 0, 0), sp)
        assert verdict.verdict is Verdict.NEVER_GOOD or verdict.verdict is Verdict.UNKNOWN
        # tie value 1 voids the concentration bound: must NOT be NEVER_GOOD
        assert verdict.verdict is Verdict.UNKNOWN

    def test_constant_sum_iff(self):
        sp = GameSpec(120, 6, Fraction(1))
        assert classify_constant_sum((40, 40, 40, 0, 0, 0), sp) is Verdict.GOOD
        assert classify_constant_sum((41, 39, 20, 20, 0, 0), sp) is Verdict.NEVER_GOOD
        assert classify_constant_sum((40, 40, 20, 20, 0, 0), sp) is Verdict.GOOD

    def test_constant_sum_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            classify_constant_sum((40, 40, 40, 0, 0, 0), FULL_GAME)

    def test_concentration_bounds_strictly_ordered(self):
        # on the desk spec, every active count below the cutoff yields
        # ceiling < floor, and the first count above does not
        sp = GameSpec(12, 4, Fraction(0))
        cutoff = concentration_threshold(sp)
        for active in range(1, 5):
            ceiling, floor = concentration_bounds(active, sp)
            if active < cutoff:
                assert ceiling < floor
            else:
                assert ceiling >= floor


class TestWeakDominance:
    def test_concentrated_strategy_dominated_in_constant_sum_game(self):
        sp = GameSpec(120, 6, Fraction(1))
        report = weakly_dominates(
            (115, 1, 1, 1, 1, 1), (120, 0, 0, 0, 0, 0), sp
        )
        assert report.dominates
        assert report.min_gap >= 0
        assert report.max_gap > 0

    def test_witness_opponent_realizes_example_gap(self):
        from blotto_lab import payoff

        sp = GameSpec(120, 6, Fraction(1))
        t = (119, 1, 0, 0, 0, 0)
        assert payoff((120, 0, 0, 0, 0, 0), t, sp) == 3
        assert payoff((115, 1, 1, 1, 1, 1), t, sp) == Fraction(9, 2)

    def test_no_dominance_for_small_tie_values(self):
        for alpha in (Fraction(0), Fraction(1, 5), Fraction(3, 5)):
            sp = GameSpec(6, 3, alpha)
            assert no_dominance_regime(sp)
            pool = list(enumerate_allocations(sp))
            for cand in pool:
                for target in pool:
                    if cand == target:
                        continue
                    assert not weakly_dominates(cand, target, sp).dominates

    def test_dp_matches_brute_force(self):
        sp = GameSpec(6, 3, Fraction(1))
        pool = list(enumerate_allocations(sp))
        for cand in pool[::3]:
            for target in pool[::4]:
                if cand == target:
                    continue
                report = weakly_dominates(cand, target, sp)
                lo, hi = brute_dominance_gaps(cand, target, sp)
                assert (report.min_gap, report.max_gap) == (lo, hi)

    @settings(max_examples=examples(60), deadline=None)
    @given(
        data=st.data(),
        k=st.sampled_from([4, 5]),
        alpha=st.sampled_from(["0", "1/3", "1", "3/2", "2", "5/2", "-1/2"]),
        block=st.sampled_from([1, 3, 64]),
    )
    def test_dp_matches_enumeration_with_stages(self, data, k, alpha, block):
        # K >= 4 gives the DP tail stages to fill; ROW_BLOCK 1 and 3 make the
        # merge and the run fill win there, 64 the block fill.  Both gaps and
        # both lex-smallest witnesses against every opponent in order.
        n = data.draw(st.integers(1, 9 if k == 4 else 6))
        sp = GameSpec(n, k, Fraction(alpha), allow_any_tie_value=True)
        pool = list(enumerate_allocations(sp))  # lexicographic order
        cand, target = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        gaps = [payoff(cand, t, sp) - payoff(target, t, sp) for t in pool]
        with mock.patch.object(kernels, "ROW_BLOCK", block):
            report = weakly_dominates(cand, target, sp)
        assert (report.min_gap, report.max_gap) == (min(gaps), max(gaps))
        assert report.min_witness == pool[gaps.index(min(gaps))]
        assert report.max_witness == pool[gaps.index(max(gaps))]

    @pytest.mark.parametrize("p", [1, 2])
    def test_gap_tables_leave_int64_at_the_bound(self, p, monkeypatch):
        # the tables are one int64 matrix while q2 + |p| < 2**62, one object
        # matrix (Python ints) from there on; both give the enumerated gaps
        seen = []
        dp = analysis.best_split
        monkeypatch.setattr(analysis, "best_split", lambda t, b: seen.append(t.dtype) or dp(t, b))
        sp = GameSpec(5, 4, Fraction(p, (1 << 61) - 1))
        top = sum(map(abs, sp.tie_scale))
        assert top == (1 << 62) - 2 + p
        cand, target = (2, 0, 3, 0), (0, 1, 1, 3)
        report = weakly_dominates(cand, target, sp)
        assert (report.min_gap, report.max_gap) == brute_dominance_gaps(cand, target, sp)
        assert seen == [np.dtype(np.int64) if top < 1 << 62 else np.dtype(object)] * 2

    def test_regime_boundary(self):
        assert no_dominance_regime(GameSpec(120, 6, Fraction(0)))
        assert not no_dominance_regime(GameSpec(120, 6, Fraction(1)))
        assert not no_dominance_regime(GameSpec(12, 6, Fraction(1, 3)))  # alpha == 2/K

    def test_self_comparison_rejected(self):
        with pytest.raises(InvalidComparisonError):
            weakly_dominates((2, 2, 2), (2, 2, 2), GameSpec(6, 3))


class TestPsne:
    def test_threshold_tie_value_makes_everything_psne(self):
        for k in (2, 3, 4):
            alpha = Fraction(2 * (k - 1), k)
            sp = GameSpec(k, k, alpha)
            for s in enumerate_allocations(sp):
                assert psne_check(s, sp).is_psne, (s, k)

    def test_even_split_not_psne_without_tie_value(self):
        sp = GameSpec(6, 3, Fraction(0))
        assert not psne_check((2, 2, 2), sp).is_psne

    def test_saturated_tie_value(self):
        sp = GameSpec(8, 4, Fraction(2))
        for s in [(8, 0, 0, 0), (2, 2, 2, 2), (5, 1, 1, 1)]:
            assert psne_check(s, sp).is_psne

    def test_concentrated_fails_below_threshold(self):
        k = 4
        sp = GameSpec(4, 4, Fraction(2 * (k - 1), k) - Fraction(1, 20))
        assert not psne_check((4, 0, 0, 0), sp).is_psne

    def test_override_admits_superefficient_ties(self):
        sp = GameSpec(8, 4, Fraction(5, 2), allow_any_tie_value=True)
        for s in [(8, 0, 0, 0), (2, 2, 2, 2)]:
            assert psne_check(s, sp).is_psne


class TestScan:
    def test_uniform_everywhere_parities_where_expected(self):
        rows = alpha_robustness_scan(
            GameSpec(8, 4), ["0", "1/2", "1", "3/2", "2"]
        )
        verdicts = {
            (row.profile_a, row.profile_b, row.tie_value): row.report.is_equilibrium
            for row in rows
        }
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            assert verdicts[("uniform", "uniform", alpha)]
        assert verdicts[("odd", "even", Fraction(1, 2))]
        assert not verdicts[("odd", "even", Fraction(3, 2))]
        assert not verdicts[("even", "even", Fraction(1, 2))]
        assert verdicts[("even", "even", Fraction(3, 2))]
        assert not verdicts[("odd", "odd", Fraction(1, 2))]
        assert verdicts[("odd", "odd", Fraction(3, 2))]
