"""Exact best responses, equilibrium verification, and strategy classification.

The workhorse is a budget dynamic program over (battlefield, remaining units)
that maximizes a separable value function (:func:`blotto_lab.kernels.best_split`),
so best responses against any marginal profile cost O(K * N^2) instead of a
scan over all C(N+K-1, K-1) bid vectors.  Because payoffs between independent
mixers depend only on marginals, checking deviations against marginals is
sufficient for equilibrium verification.  The DP runs on integers: the
opponent's weight matrix over one common denominator
(:meth:`MarginalProfile.weight_matrix`, the one form the profile keeps),
turned into one integer value row per battlefield
(:func:`blotto_lab.core.value_row`), all rows at once as one matrix
(:func:`blotto_lab.mixed.value_matrix`), int64 while its entries fit and
Python ints past that.  The DP runs in the
narrowest integer type in which ``K * max|entry|`` fits its guard, up to
``2**60`` in int64, and on Python ints past that; every type gives the
same optimum and the same lexicographically smallest argmax.  Each best
response and dominance witness is re-scored in integers apart from the
tables and the DP, and a mismatch raises
:class:`~blotto_lab.core.SolverFailureError`.  Everything returns exact
rationals; a gap of zero means zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    GameSpec,
    InvalidComparisonError,
    PreconditionError,
    RationalLike,
    SolverFailureError,
    WrongRegimeError,
    exact_fraction,
)
from .kernels import best_split
from .mixed import (
    MarginalProfile,
    MixedStrategy,
    expected_payoff_marginal,
    value_matrix,
)
from . import constructors


@dataclass(frozen=True)
class BestResponseResult:
    """Exact maximum payoff against a marginal profile and its witness.

    ``argmax`` is the lexicographically smallest maximizing bid vector.
    """

    value: Fraction
    argmax: "tuple[int, ...]"


def best_response(m_opp: MarginalProfile, spec: GameSpec) -> BestResponseResult:
    """Maximize the expected payoff of a pure strategy against ``m_opp``.

    The DP's optimum is re-scored at its argmax from the profile's weight
    matrix, apart from the value rows and the DP; a mismatch raises
    :class:`SolverFailureError`.
    """
    den, weights = m_opp._den, m_opp.weight_matrix()
    p, q2 = spec.tie_scale
    value, argmax = best_split(value_matrix(m_opp, spec), spec.budget)
    # no int64 prefix of a row wraps: each is at most den
    rescored = sum(q2 * int(w[:x].sum()) + p * int(w[x]) for w, x in zip(weights, argmax))
    if rescored != value:
        raise SolverFailureError(
            f"best response {argmax} scores {rescored}, not the optimum {value} "
            f"the budget DP reported (units of 1/{q2 * den})"
        )
    return BestResponseResult(value=Fraction(value, q2 * den), argmax=argmax)


@dataclass(frozen=True)
class EquilibriumReport:
    """Best-response gaps and payoffs of a strategy profile."""

    gap_a: Fraction
    gap_b: Fraction
    payoff_a: Fraction
    payoff_b: Fraction
    best_reply_a: "tuple[int, ...]"
    best_reply_b: "tuple[int, ...]"

    @property
    def is_equilibrium(self) -> bool:
        return self.gap_a == 0 and self.gap_b == 0


def verify_equilibrium(
    sigma_a: MixedStrategy, sigma_b: MixedStrategy, spec: GameSpec
) -> EquilibriumReport:
    """Exact equilibrium check via marginal best responses.

    Sound because expected payoffs between independent mixers are linear in
    each player's marginals: no joint-distribution deviation can beat the
    best pure response to the opponent's marginals.
    """
    m_a = sigma_a.marginals()
    m_b = m_a if sigma_b is sigma_a else sigma_b.marginals()
    return verify_marginals(m_a, m_b, spec)


def verify_marginals(
    m_a: MarginalProfile, m_b: MarginalProfile, spec: GameSpec
) -> EquilibriumReport:
    """:func:`verify_equilibrium` for independent mixers with marginals ``m_a``, ``m_b``.

    A symmetric profile (``m_a == m_b``) computes one side and reuses it.
    """
    pay_a = expected_payoff_marginal(m_a, m_b, spec)
    br_a = best_response(m_b, spec)
    if m_a == m_b:
        pay_b, br_b = pay_a, br_a
    else:
        pay_b = expected_payoff_marginal(m_b, m_a, spec)
        br_b = best_response(m_a, spec)
    return EquilibriumReport(
        gap_a=br_a.value - pay_a,
        gap_b=br_b.value - pay_b,
        payoff_a=pay_a,
        payoff_b=pay_b,
        best_reply_a=br_a.argmax,
        best_reply_b=br_b.argmax,
    )


class Verdict(Enum):
    GOOD = "good"
    NEVER_GOOD = "never_good"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GoodnessVerdict:
    """Classification of a pure strategy's equilibrium membership.

    ``threshold`` is the active-battlefield cutoff below which a strategy is
    never played in any equilibrium (meaningful for tie values below 1);
    ``active_fields`` counts the strategy's positive bids.  ``reason`` says
    why the verdict came out as it did: ``below_threshold`` (never good),
    ``witness_verified`` (good), or for an unknown verdict the first
    precondition of the witness that fails, ``indivisible`` (the budget does
    not split evenly), ``odd_fields``, ``over_cap`` (a bid above twice the
    fair share), or ``witness_failed`` (the witness was built but did not
    verify).
    """

    verdict: Verdict
    witness: "MixedStrategy | None"
    threshold: Fraction
    active_fields: int
    reason: str


def concentration_threshold(spec: GameSpec) -> Fraction:
    """Active-battlefield cutoff 2NK(1-a)/((2N+K)(2-a)) for tie value a < 1.

    Zero (vacuous) for tie values of 1 and above, where the bound is void.
    """
    a = spec.tie_value
    if a >= 1:
        return Fraction(0)
    n, k = spec.budget, spec.battlefields
    return Fraction(2 * n * k, 2 * n + k) * (1 - a) / (2 - a)


def concentration_bounds(active_fields: int, spec: GameSpec) -> "tuple[Fraction, Fraction]":
    """(ceiling for a strategy active on few fields, floor for a uniform mixer).

    The ceiling bounds the payoff of any pure strategy with the given number
    of positive bids against any opponent; the floor is what a
    uniform-marginal strategy guarantees against any pure opponent.  Strict
    ceiling < floor is exactly what makes such strategies never best replies.
    """
    a = spec.tie_value
    n, k = spec.budget, spec.battlefields
    ceiling = a / 2 * k + (2 - a) / 2 * active_fields
    floor = Fraction(n * k, 2 * n + k) + a / 2 * Fraction(k * k, 2 * n + k)
    return ceiling, floor


def classify(s: Sequence[int], spec: GameSpec) -> GoodnessVerdict:
    """Good / never-good / unknown verdict for a pure strategy.

    Good comes with a verified witness equilibrium containing ``s`` (needs an
    even battlefield count, an evenly divisible budget, and no bid above
    twice the fair share).  Never-good applies for tie values in [0, 1) when
    the strategy concentrates on fewer active battlefields than the cutoff.
    Anything else is honestly unknown rather than guessed.
    """
    s = spec.validate_allocation(s)
    active = sum(1 for b in s if b > 0)
    threshold = concentration_threshold(spec)
    if not spec.divisible:
        reason = "indivisible"
    elif spec.tie_value < 1 and active < threshold:
        return GoodnessVerdict(Verdict.NEVER_GOOD, None, threshold, active, "below_threshold")
    elif spec.battlefields % 2:
        reason = "odd_fields"
    elif max(s) > 2 * spec.fair_share:
        reason = "over_cap"
    else:
        witness = constructors.good_strategy_witness(s, spec)
        m = witness.marginals()
        if (
            witness.probability(s) > 0
            and m == MarginalProfile.uniform(spec)
            and verify_marginals(m, m, spec).is_equilibrium
        ):
            return GoodnessVerdict(Verdict.GOOD, witness, threshold, active, "witness_verified")
        reason = "witness_failed"
    return GoodnessVerdict(Verdict.UNKNOWN, None, threshold, active, reason)


def classify_constant_sum(s: Sequence[int], spec: GameSpec) -> Verdict:
    """Binary verdict in the constant-sum game: good iff no bid above 2N/K."""
    if spec.tie_value != 1:
        raise WrongRegimeError(
            f"constant-sum classification needs tie value 1, got {spec.tie_value}"
        )
    if spec.battlefields % 2:
        raise PreconditionError("constant-sum classification needs an even battlefield count")
    s = spec.validate_allocation(s)
    cap = 2 * spec.fair_share
    return Verdict.GOOD if max(s) <= cap else Verdict.NEVER_GOOD


@dataclass(frozen=True)
class DominanceReport:
    """Extremes of the payoff difference (candidate minus target)."""

    min_gap: Fraction
    max_gap: Fraction
    min_witness: "tuple[int, ...]"
    max_witness: "tuple[int, ...]"

    @property
    def dominates(self) -> bool:
        return self.min_gap >= 0 and self.max_gap > 0


def weakly_dominates(
    candidate: Sequence[int], target: Sequence[int], spec: GameSpec
) -> DominanceReport:
    """Does ``candidate`` weakly dominate ``target``?

    The payoff difference against an opponent ``t`` is separable across
    battlefields, so its minimum and maximum over all opponent bid vectors
    come from the same budget DP (run once on the negated tables, once as is) -
    no enumeration of the opponent space.  The tables are one matrix, int64
    while every entry fits and Python ints past that.  Each witness is
    re-scored battlefield by battlefield from the three bids alone.
    """
    candidate = spec.validate_allocation(candidate)
    target = spec.validate_allocation(target)
    if candidate == target:
        raise InvalidComparisonError("cannot compare a strategy against itself")
    p, q2 = spec.tie_scale
    n = spec.budget
    # row k: value(c, b) - value(t, b) for every opponent bid b, where
    # value(x, b) is q2 for b < x, p at b == x and 0 above
    fits = q2 + abs(p) < 1 << 62  # every entry, negated too, fits in int64
    gaps = np.zeros((spec.battlefields, n + 1), dtype=np.int64 if fits else object)
    for row, c_bid, t_bid in zip(gaps, candidate, target):
        if c_bid != t_bid:
            low, high, sign = (t_bid, c_bid, 1) if t_bid < c_bid else (c_bid, t_bid, -1)
            row[low] = sign * (q2 - p)
            row[low + 1 : high] = sign * q2
            row[high] = sign * p
    neg_lo, lo_witness = best_split(-gaps, n)
    hi, hi_witness = best_split(gaps, n)
    for gap, witness in ((-neg_lo, lo_witness), (hi, hi_witness)):
        rescored = sum(
            q2 * ((c > w) - (t > w)) + p * ((c == w) - (t == w))
            for c, t, w in zip(candidate, target, witness)
        )
        if rescored != gap:
            raise SolverFailureError(
                f"dominance witness {witness} gives the gap {Fraction(rescored, q2)}, "
                f"not the {Fraction(gap, q2)} the budget DP reported"
            )
    return DominanceReport(
        min_gap=Fraction(-neg_lo, q2),
        max_gap=Fraction(hi, q2),
        min_witness=lo_witness,
        max_witness=hi_witness,
    )


def no_dominance_regime(spec: GameSpec) -> bool:
    """True when no pure strategy can be weakly dominated: tie value < 2/K."""
    return spec.tie_value < Fraction(2, spec.battlefields)


@dataclass(frozen=True)
class PsneReport:
    """Payoff of staying at ``s`` against a point mass at ``s``, and the best deviation."""

    stay_payoff: Fraction
    best_deviation: Fraction
    deviation: "tuple[int, ...]"

    @property
    def is_psne(self) -> bool:
        return self.best_deviation <= self.stay_payoff


def psne_check(s: Sequence[int], spec: GameSpec) -> PsneReport:
    """Is (s, s) a pure-strategy Nash equilibrium?

    Exact test: the best deviation against a point mass at ``s`` must not
    beat the all-ties payoff K * tie_value / 2.
    """
    s = spec.validate_allocation(s)
    br = best_response(MarginalProfile.point_mass(spec, s), spec)
    return PsneReport(
        stay_payoff=spec.battlefields * spec.half_tie,
        best_deviation=br.value,
        deviation=br.argmax,
    )


# scan-alpha output label -> constructors.FAMILIES name
SCAN_FAMILIES = {"uniform": "canonical", "odd": "parity-odd", "even": "parity-even"}

SCAN_PROFILES = (
    ("uniform", "uniform"),
    ("odd", "even"),
    ("even", "even"),
    ("odd", "odd"),
)


@dataclass(frozen=True)
class ScanRow:
    tie_value: Fraction
    profile_a: str
    profile_b: str
    report: EquilibriumReport


def alpha_robustness_scan(
    spec: GameSpec, tie_values: Iterable[RationalLike]
) -> "list[ScanRow]":
    """Verify the named profiles across a grid of tie values.

    Profiles are named 'uniform' (pair-coupled uniform marginals), 'odd', and
    'even' (parity marginals); each grid point re-verifies every profile on a
    copy of ``spec`` with that tie value.
    """
    rows = []
    for value in tie_values:
        grid_spec = replace(spec, tie_value=exact_fraction(value))
        for name_a, name_b in SCAN_PROFILES:
            sigma_a = constructors.FAMILIES[SCAN_FAMILIES[name_a]](grid_spec, None)
            sigma_b = constructors.FAMILIES[SCAN_FAMILIES[name_b]](grid_spec, None)
            rows.append(
                ScanRow(
                    tie_value=grid_spec.tie_value,
                    profile_a=name_a,
                    profile_b=name_b,
                    report=verify_equilibrium(sigma_a, sigma_b, grid_spec),
                )
            )
    return rows
