"""Independent oracles the tests check the fast paths against.

Most of them enumerate: every allocation, atom or opponent order.  The budget
DPs here (:func:`best_split_python`, :func:`br_lex_python`,
:func:`br_sampled_python`) are plain loops on Python ints, which never
overflow and never truncate a stage; they are checked against enumeration
themselves.  Nothing here shares code with the numpy DPs or the analytic
marginal formulas it is used to validate.
"""

from fractions import Fraction
from itertools import permutations
from operator import add
from typing import Sequence

from blotto_lab import (
    GameSpec,
    MarginalProfile,
    battlefield_value,
    enumerate_allocations,
    payoff,
)
from blotto_lab.kernels import KernelSet

BestReply = "tuple[int, tuple[int, ...]]"


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


def best_split_python(tables: Sequence[Sequence[int]], budget: int) -> BestReply:
    """:func:`blotto_lab.kernels.best_split` on Python ints: never overflows."""
    k = len(tables)
    # tail[j][r]: optimum over fields j.. with r units left; every r is
    # reachable since bids may be zero or take the rest.
    tail = [None] * k
    tail[k - 1] = list(tables[k - 1][: budget + 1])
    for j in range(k - 2, 0, -1):
        row, prev = tables[j], tail[j + 1]
        tail[j] = [max(map(add, row, prev[r::-1])) for r in range(budget + 1)]
    bids = []
    r = budget
    for j in range(k - 1):
        cand = list(map(add, tables[j], tail[j + 1][r::-1]))
        x = cand.index(max(cand))
        bids.append(x)
        r -= x
    bids.append(r)
    return sum(row[x] for row, x in zip(tables, bids)), tuple(bids)


def br_lex_python(values: Sequence[int], budget: int, fields: int) -> BestReply:
    """Shared-table form of :func:`best_split_python`, the signature of ``br_lex_numpy``."""
    return best_split_python([list(values)] * fields, budget)


def br_sampled_python(
    values: Sequence[int], budget: int, fields: int, uniforms: Sequence[float]
) -> BestReply:
    """Uniform draw over all optimal bid vectors, driven by ``uniforms``.

    Counts optimal completions per state and walks stages choosing each bid
    with probability proportional to the completions it leaves open, so the
    draw is uniform over the full argmax set (up to float resolution of the
    supplied uniforms).
    """
    values = list(values)
    suffix = [values[: budget + 1]]
    counts = [[1] * (budget + 1)]
    for _ in range(1, fields):
        prev, prev_counts = suffix[-1], counts[-1]
        row, row_counts = [], []
        for r in range(budget + 1):
            best = max(values[x] + prev[r - x] for x in range(r + 1))
            row.append(best)
            row_counts.append(
                sum(prev_counts[r - x] for x in range(r + 1) if values[x] + prev[r - x] == best)
            )
        suffix.append(row)
        counts.append(row_counts)
    bids = []
    r = budget
    for c in range(fields - 1, 0, -1):
        target = suffix[c][r]
        prev, prev_counts = suffix[c - 1], counts[c - 1]
        total = counts[c][r]
        want = min(int(uniforms[fields - 1 - c] * total), total - 1)
        acc = 0
        for x in range(r + 1):
            if values[x] + prev[r - x] == target:
                acc += prev_counts[r - x]
                if acc > want:
                    bids.append(x)
                    r -= x
                    break
    bids.append(r)
    return suffix[fields - 1][budget], tuple(bids)


# The FP kernels' interface on the oracles, for fp_run to run them in place of
# the numpy kernels.
oracle_kernels = KernelSet("python", br_lex_python, br_sampled_python)
