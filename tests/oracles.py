"""Independent brute-force oracles the tests check the fast paths against.

Everything here enumerates; nothing shares code with the dynamic programs or
analytic marginal formulas it is used to validate.
"""

from fractions import Fraction
from itertools import permutations

from blotto_lab import (
    GameSpec,
    MarginalProfile,
    battlefield_value,
    enumerate_allocations,
    payoff,
)


def brute_best_response(profile: MarginalProfile, spec: GameSpec):
    """Max expected payoff over every allocation, by full enumeration."""
    best_value, best_alloc = None, None
    for s in enumerate_allocations(spec):
        value = Fraction(0)
        for k, bid in enumerate(s):
            opp = profile.field(k)
            value += sum(opp[:bid], start=Fraction(0)) + spec.half_tie * opp[bid]
        if best_value is None or value > best_value:
            best_value, best_alloc = value, s
    return best_value, best_alloc


def brute_expected_payoff(sigma_a, sigma_b, spec: GameSpec) -> Fraction:
    """Expected payoff by summing over every support pair."""
    total = Fraction(0)
    for s, ps in sigma_a.atoms():
        for t, pt in sigma_b.atoms():
            total += ps * pt * payoff(s, t, spec)
    return total


def brute_marginal_payoff(m_self, m_opp, spec: GameSpec) -> Fraction:
    """Expected payoff between independent mixers: every bid pair on every field."""
    total = Fraction(0)
    for own, opp in zip(m_self, m_opp):
        for x, p_x in enumerate(own):
            for b, p_b in enumerate(opp):
                total += p_x * p_b * battlefield_value(x, b, spec)
    return total


def brute_marginals(sigma, spec: GameSpec) -> MarginalProfile:
    """Marginals accumulated atom by atom (ignores any analytic shortcut)."""
    acc = [[Fraction(0)] * (spec.budget + 1) for _ in range(spec.battlefields)]
    for bids, prob in sigma.atoms():
        for k, b in enumerate(bids):
            acc[k][b] += prob
    return MarginalProfile(spec, acc)


def brute_lotto_payoff(p, q, spec: GameSpec) -> Fraction:
    """Average Blotto payoff over all K! opponent battlefield orders."""
    perms = list(permutations(q))
    total = sum((payoff(p, perm, spec) for perm in perms), start=Fraction(0))
    return total / len(perms)


def brute_dominance_gaps(candidate, target, spec: GameSpec):
    """Min and max payoff difference over every opponent allocation."""
    gaps = [
        payoff(candidate, t, spec) - payoff(target, t, spec)
        for t in enumerate_allocations(spec)
    ]
    return min(gaps), max(gaps)


def partitions_by_listing(spec: GameSpec):
    """Distinct sorted-descending forms of all allocations."""
    return sorted({tuple(sorted(s, reverse=True)) for s in enumerate_allocations(spec)})


def uniform_value(x: int, spec: GameSpec) -> Fraction:
    """Per-battlefield value of bidding x against the uniform marginal."""
    top = 2 * spec.fair_share
    if x > top:
        return Fraction(1)
    return Fraction(x, top + 1) + spec.half_tie / (top + 1)
