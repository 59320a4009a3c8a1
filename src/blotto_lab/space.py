"""Enumeration and counting of pure strategies.

Ordered bid vectors (the Blotto strategy space) are counted by a binomial
coefficient; their multiset quotient (the Lotto space of partitions) by a
closed form up to three parts and past that by a bottom-up table of
partitions into exactly k positive parts.
Enumerators are generators so desk-scale oracles can stream without
materializing anything, and they refuse to start when the count exceeds a cap
rather than silently truncating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    EnumerationTooLargeError,
    GameSpec,
    battlefield_value,
)

DEFAULT_ENUMERATION_CAP = 10**7


def count_ordered(spec: GameSpec) -> int:
    """Number of ordered bid vectors: C(N + K - 1, K - 1)."""
    return math.comb(spec.budget + spec.battlefields - 1, spec.battlefields - 1)


def count_partitions(n: int, k: int) -> int:
    """Number of partitions of ``n`` into exactly ``k`` positive parts.

    Removing one unit from each part leaves a partition of ``n - k`` into
    parts of size at most ``k``, counted bottom-up by adding the allowed part
    sizes one at a time.  The Lotto strategy count of a game is
    ``count_partitions(N + K, K)``: shifting every part up by one absorbs
    the zero parts.  Up to three parts the count has a closed form in
    ``rest = n - k``: 1, ``rest // 2 + 1`` and the integer nearest to
    ``(rest + 3)**2 / 12``, so a two- or three-field game of any budget
    needs no table.
    """
    if k <= 0:
        return 1 if n == 0 and k == 0 else 0
    if k > n:
        return 0
    rest = n - k
    if k == 1:
        return 1
    if k == 2:
        return rest // 2 + 1
    if k == 3:  # (rest + 3)**2 % 12 is 0, 1, 4 or 9: only 9 rounds up
        return (rest * rest + 6 * rest + 12) // 12
    ways = [1] + [0] * rest  # ways[m]: partitions of m into parts of size <= part
    for part in range(1, min(k, rest) + 1):
        for m in range(part, rest + 1):
            ways[m] += ways[m - part]
    return ways[rest]


def count_unordered(spec: GameSpec) -> int:
    """Number of Lotto pure strategies (partitions with zeros allowed)."""
    return count_partitions(spec.budget + spec.battlefields, spec.battlefields)


def enumerate_allocations(
    spec: GameSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator["tuple[int, ...]"]:
    """Yield every bid vector in lexicographic order.

    Raises :class:`EnumerationTooLargeError` up front when the exact count
    exceeds ``cap``.
    """
    total = count_ordered(spec)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} allocations exceed the cap of {cap}"
        )
    return _allocations(spec.budget, spec.battlefields)


def _allocations(budget: int, fields: int) -> Iterator["tuple[int, ...]"]:
    if fields == 1:
        yield (budget,)
        return
    for first in range(budget + 1):
        for rest in _allocations(budget - first, fields - 1):
            yield (first,) + rest


def enumerate_partitions(
    spec: GameSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator["tuple[int, ...]"]:
    """Yield every partition (weakly decreasing vector) in reverse-lex order."""
    total = count_unordered(spec)
    if total > cap:
        raise EnumerationTooLargeError(f"{total} partitions exceed the cap of {cap}")
    return _partitions(spec.budget, spec.battlefields, spec.budget)


def _partitions(budget: int, fields: int, max_part: int) -> Iterator["tuple[int, ...]"]:
    if fields == 1:
        if budget <= max_part:
            yield (budget,)
        return
    lo = -(-budget // fields)  # ceil: first part can't drop below the average
    for first in range(min(budget, max_part), lo - 1, -1):
        for rest in _partitions(budget - first, fields - 1, first):
            yield (first,) + rest


def lotto_payoff(p: Sequence[int], q: Sequence[int], spec: GameSpec) -> Fraction:
    """Expected Blotto payoff of partition ``p`` vs ``q`` under a uniformly
    random matching of battlefields: (1/K) * sum over all cross pairings.
    """
    p = spec.validate_partition(p)
    q = spec.validate_partition(q)
    total = Fraction(0)
    for a in p:
        for b in q:
            total += battlefield_value(a, b, spec)
    return total / spec.battlefields
