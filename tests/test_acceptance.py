"""Acceptance suite: one test per headline claim, each with a runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion.  Every expected value is exact; no tolerances are involved except
the wall-clock budgets.
"""

import time
from fractions import Fraction

import numpy as np

from blotto_lab import (
    GameSpec,
    MarginalProfile,
    best_response,
    canonical_pair_equilibrium,
    concentration_bounds,
    concentration_threshold,
    count_ordered,
    count_partitions,
    enumerate_allocations,
    expected_payoff_marginal,
    expected_payoff_pure_vs_mixed,
    fp_run,
    good_strategy_witness,
    parity_strategy,
    payoff,
    psne_check,
    rank_report,
    uniform_marginal_solver,
    verify_equilibrium,
    weakly_dominates,
)
from oracles import brute_marginals

FULL_GAME = GameSpec(120, 6, Fraction(0))


def passline(number, label, elapsed, budget):
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s < {budget}s) {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_canonical_equilibrium_value():
    start = time.perf_counter()
    sigma = canonical_pair_equilibrium(FULL_GAME)
    report = verify_equilibrium(sigma, sigma, FULL_GAME)
    assert report.gap_a == 0 and report.gap_b == 0
    assert report.payoff_a == Fraction(120, 41)
    assert report.payoff_b == Fraction(120, 41)
    passline(1, "canonical equilibrium pays 120/41 with zero gaps", time.perf_counter() - start, 1.0)


def test_criterion_02_uniform_marginal_payoff_formula():
    start = time.perf_counter()
    alphas = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    checked = 0
    for k in (2, 4, 6):
        for m in (1, 2, 3, 5):
            for alpha in alphas:
                n = m * k
                sp = GameSpec(n, k, alpha)
                profile = MarginalProfile.uniform(sp)
                value = expected_payoff_marginal(profile, profile, sp)
                assert value == Fraction(k * (2 * n + alpha * k), 4 * n + 2 * k)
                assert best_response(profile, sp).value - value == 0
                checked += 1
    assert checked == 60
    passline(2, f"uniform-marginal payoff formula on {checked} specs", time.perf_counter() - start, 10.0)


def test_criterion_03_strategy_counts():
    start = time.perf_counter()
    assert count_ordered(FULL_GAME) == 234_531_275
    assert count_partitions(126, 6) == 436_140
    passline(3, "ordered and partition strategy counts", time.perf_counter() - start, 0.1)


def test_criterion_04_witness_construction():
    start = time.perf_counter()
    sp0 = GameSpec(12, 4)
    cap = 2 * sp0.fair_share
    pool = [s for s in enumerate_allocations(sp0) if max(s) <= cap]
    rng = np.random.default_rng(20240)
    picks = [pool[i] for i in rng.choice(len(pool), size=50, replace=False)]
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        sp = GameSpec(12, 4, alpha)
        uniform = MarginalProfile.uniform(sp)
        for s in picks:
            witness = good_strategy_witness(s, sp)
            assert witness.probability(s) > 0
            assert brute_marginals(witness, sp) == uniform
            report = verify_equilibrium(witness, witness, sp)
            assert report.gap_a == 0 and report.gap_b == 0
    passline(4, "swap witnesses for 50 strategies x 3 tie values", time.perf_counter() - start, 30.0)


def test_criterion_05_concentration_is_never_best():
    start = time.perf_counter()
    assert concentration_threshold(FULL_GAME) == Fraction(720, 246)
    sp = GameSpec(12, 4, Fraction(0))
    cutoff = concentration_threshold(sp)
    uniform = MarginalProfile.uniform(sp)
    values = {s: expected_payoff_pure_vs_mixed(s, uniform, sp) for s in enumerate_allocations(sp)}
    top = max(values.values())
    concentrated = [s for s in values if sum(1 for b in s if b > 0) < cutoff]
    assert concentrated  # the all-in strategies
    for s in concentrated:
        assert values[s] < top
        ceiling, floor = concentration_bounds(sum(1 for b in s if b > 0), sp)
        assert ceiling < floor
    passline(5, "below-cutoff strategies never best replies", time.perf_counter() - start, 60.0)


def test_criterion_06_no_dominance_for_small_tie_values():
    start = time.perf_counter()
    for alpha in (Fraction(0), Fraction(1, 5), Fraction(3, 5)):
        sp = GameSpec(6, 3, alpha)
        pool = list(enumerate_allocations(sp))
        matrix = {s: [payoff(s, t, sp) for t in pool] for s in pool}
        dominated = 0
        for cand in pool:
            for target in pool:
                if cand == target:
                    continue
                report = weakly_dominates(cand, target, sp)
                row_c, row_t = matrix[cand], matrix[target]
                gaps = [a - b for a, b in zip(row_c, row_t)]
                assert report.min_gap == min(gaps)
                assert report.max_gap == max(gaps)
                if report.dominates:
                    dominated += 1
        assert dominated == 0
    passline(6, "zero weakly dominated strategies below 2/K", time.perf_counter() - start, 60.0)


def test_criterion_07_constant_sum_dominance_example():
    start = time.perf_counter()
    sp = GameSpec(120, 6, Fraction(1))
    report = weakly_dominates((115, 1, 1, 1, 1, 1), (120, 0, 0, 0, 0, 0), sp)
    assert report.dominates
    witness = (119, 1, 0, 0, 0, 0)
    assert payoff((120, 0, 0, 0, 0, 0), witness, sp) == 3
    assert payoff((115, 1, 1, 1, 1, 1), witness, sp) == Fraction(9, 2)
    passline(7, "concentrated strategy weakly dominated at tie value 1", time.perf_counter() - start, 1.0)


def test_criterion_08_odd_battlefield_solver():
    start = time.perf_counter()
    heavy = {(2, 2, 2), (3, 3, 0), (3, 0, 3), (0, 3, 3), (4, 1, 1), (1, 4, 1), (1, 1, 4)}
    light = {(4, 2, 0), (4, 0, 2), (2, 4, 0), (2, 0, 4), (0, 4, 2), (0, 2, 4)}
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        sp = GameSpec(6, 3, alpha)
        sigma = uniform_marginal_solver(sp)
        table = dict(sigma.atoms())
        assert set(table) == heavy | light
        assert all(table[s] == Fraction(1, 10) for s in heavy)
        assert all(table[s] == Fraction(1, 20) for s in light)
        assert brute_marginals(sigma, sp) == MarginalProfile.uniform(sp)
        report = verify_equilibrium(sigma, sigma, sp)
        assert report.gap_a == 0 and report.gap_b == 0
    passline(8, "three-battlefield solver reproduces published weights", time.perf_counter() - start, 5.0)


def test_criterion_09_parity_profiles_and_robustness():
    start = time.perf_counter()
    alphas = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    for alpha in alphas:
        sp = GameSpec(8, 4, alpha)
        uniform = canonical_pair_equilibrium(sp)
        assert verify_equilibrium(uniform, uniform, sp).is_equilibrium
    for alpha, expected in zip(alphas[:4], (True, True, True, False)):
        sp = GameSpec(8, 4, alpha)
        report = verify_equilibrium(parity_strategy(sp, "odd"), parity_strategy(sp, "even"), sp)
        assert report.is_equilibrium is expected
        if expected:
            assert report.payoff_a == report.payoff_b == Fraction(sp.battlefields, 2)
    for alpha, expected in zip(alphas[1:], (False, True, True, True)):
        sp = GameSpec(8, 4, alpha)
        report = verify_equilibrium(parity_strategy(sp, "even"), parity_strategy(sp, "even"), sp)
        assert report.is_equilibrium is expected
    passline(9, "parity equilibria hold exactly on their tie-value ranges", time.perf_counter() - start, 10.0)


def test_criterion_10_pure_equilibrium_threshold():
    start = time.perf_counter()
    for k in range(2, 7):
        sp_base = GameSpec(k, k)  # budget k: the all-in strategy can win k-1 fields
        pool = list(enumerate_allocations(sp_base))
        cutoff = Fraction(2 * (k - 1), k)
        for i in range(0, 41):
            alpha = Fraction(i, 20)
            sp = GameSpec(k, k, alpha)
            all_pure = all(psne_check(s, sp).is_psne for s in pool)
            assert all_pure == (alpha >= cutoff), (k, alpha)
    passline(10, "pure equilibria for every strategy iff tie value >= 2(K-1)/K", time.perf_counter() - start, 60.0)


def test_criterion_11_constant_sum_iff_characterization():
    start = time.perf_counter()
    sp = GameSpec(8, 4, Fraction(1))
    cap = 2 * sp.fair_share
    uniform = MarginalProfile.uniform(sp)
    equilibrium_value = Fraction(
        sp.battlefields * (2 * sp.budget + sp.tie_value * sp.battlefields),
        4 * sp.budget + 2 * sp.battlefields,
    )
    for s in enumerate_allocations(sp):
        if max(s) <= cap:
            witness = good_strategy_witness(s, sp)
            assert witness.probability(s) > 0
            assert brute_marginals(witness, sp) == uniform
            report = verify_equilibrium(witness, witness, sp)
            assert report.gap_a == 0 and report.gap_b == 0
        else:
            value = expected_payoff_pure_vs_mixed(s, uniform, sp)
            assert value < equilibrium_value  # strict: overbidding loses value
    passline(11, "good iff every bid at most twice the fair share (tie value 1)", time.perf_counter() - start, 60.0)


def test_criterion_12a_fictitious_play_convergence():
    start = time.perf_counter()
    sp = GameSpec(12, 4, Fraction(0))
    state = fp_run(sp, 100_000, trace_every=10_000)
    elapsed = time.perf_counter() - start
    trace = state.trace
    assert trace[0].round_index == 1
    assert trace[-1].round_index == 100_000
    assert trace[-1].tv_to_uniform < trace[0].tv_to_uniform
    assert trace[-1].br_gap < trace[0].br_gap
    assert all(row.br_gap >= 0 for row in trace)
    passline("12a", "100k-round run shrinks TV distance and gap", elapsed, 60.0)


def test_criterion_12b_fictitious_play_determinism(tmp_path):
    start = time.perf_counter()
    sp = GameSpec(12, 4, Fraction(0))
    p1, p2 = tmp_path / "one.fp", tmp_path / "two.fp"
    fp_run(sp, 10_000, seed=11, checkpoint_path=str(p1))
    fp_run(sp, 10_000, seed=11, checkpoint_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    passline("12b", "identical runs write byte-identical checkpoints", time.perf_counter() - start, 60.0)


def test_criterion_12c_full_game_smoke_run():
    start = time.perf_counter()
    state = fp_run(FULL_GAME, 100_000)
    elapsed = time.perf_counter() - start
    report = rank_report(state, top=9)
    assert len(report.rows) == 9
    assert report.support_size >= 9
    probs = [row.probability for row in report.rows]
    assert probs == sorted(probs, reverse=True)
    for row in report.rows:
        assert sum(row.partition) == 120
        assert 1 <= row.first_round <= 100_000
    # paper-scale observations: reported for comparison, deliberately not asserted
    print("[acceptance] 12c rank report (top 9 of", report.support_size, "partitions):")
    for row in report.rows:
        print(f"[acceptance]   #{row.rank} {row.partition} p={row.probability} first={row.first_round}")
    tracked = (31, 31, 31, 23, 2, 2)
    full = rank_report(state, top=report.support_size)
    nash_rank = next((row.rank for row in full.rows if row.partition == tracked), None)
    discovery_pos = (
        list(state.discovery_a).index(tracked) + 1 if tracked in state.discovery_a else None
    )
    print(f"[acceptance] 12c rank of {tracked}: nash={nash_rank} discovery={discovery_pos}")
    passline("12c", "full-game 100k-round smoke run emits a well-formed report", elapsed, 600.0)
