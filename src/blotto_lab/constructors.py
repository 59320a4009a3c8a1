"""Builders for the named equilibrium strategies.

The pair-based families cover an even number of battlefields; the exact
linear-feasibility solver handles the general case (including odd counts) by
searching for a battlefield-symmetric strategy, one weight per partition
orbit, whose marginals are exactly uniform.  Battlefield pairing is fixed as
(1,2), (3,4), ... so that outputs are deterministic.  ``FAMILIES`` is the one
table of family names, read by the CLI and the tie-value scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    EnumerationTooLargeError,
    GameSpec,
    NotCoverableError,
    PreconditionError,
    SolverFailureError,
)
from .mixed import (
    ExplicitMixed,
    IndependentPairsUniform,
    MixedStrategy,
    PairCoupledUniform,
    SwappedPairsWitness,
)
from .space import enumerate_partitions

def canonical_pair_equilibrium(spec: GameSpec) -> MixedStrategy:
    """Perfectly correlated uniform pair splits; marginals uniform on {0..2m}."""
    if spec.battlefields % 2:
        raise PreconditionError(
            f"{spec.battlefields} battlefields cannot be paired; "
            "use uniform_marginal_solver for odd counts"
        )
    if not spec.divisible:
        raise PreconditionError(
            f"budget {spec.budget} is not divisible by {spec.battlefields} battlefields"
        )
    return PairCoupledUniform(spec)


def pairwise_fixed_sum_equilibrium(spec: GameSpec) -> MixedStrategy:
    """Correlated pair splits needing only the pair count to divide the budget."""
    return PairCoupledUniform(spec)


def independent_pairs_strategy(spec: GameSpec) -> MixedStrategy:
    """Uniform independent splits per pair; (2m+1)^(K/2) atoms, never tabled."""
    return IndependentPairsUniform(spec)


def good_strategy_witness(s: Sequence[int], spec: GameSpec) -> MixedStrategy:
    """Equilibrium strategy whose support contains ``s``.

    Works for any pure strategy bidding at most twice the fair share
    everywhere: two atoms of the independent-pairs support are swapped for
    ``s`` and its mirror, which leaves the marginals uniform.  When ``s``
    already lies in that support the swap is the identity.
    """
    s = spec.validate_allocation(s)
    base = IndependentPairsUniform(spec)
    if any(b > base.pair_sum for b in s):
        raise NotCoverableError(
            f"{s} bids more than {base.pair_sum} on some battlefield; "
            "no uniform-marginal support can contain it"
        )
    if base._digits_of(s) is not None:
        return base
    return SwappedPairsWitness(spec, s)


def parity_strategy(spec: GameSpec, parity: str) -> MixedStrategy:
    """Correlated pair splits over odd or even levels only."""
    return PairCoupledUniform(spec, parity)


def _witness(spec: GameSpec, s: "Sequence[int] | None") -> MixedStrategy:
    if s is None:
        raise PreconditionError("the witness family needs a target strategy s")
    return good_strategy_witness(s, spec)


# Every named family: name -> builder(spec, s), where ``s`` is the target bid
# vector (used by "witness" only).  The entries look the builders up by global
# name at call time, so a builder replaced on this module is the one called.
FAMILIES: "dict[str, Callable[[GameSpec, Sequence[int] | None], MixedStrategy]]" = {
    "canonical": lambda spec, s: canonical_pair_equilibrium(spec),
    "pairs": lambda spec, s: pairwise_fixed_sum_equilibrium(spec),
    "independent": lambda spec, s: independent_pairs_strategy(spec),
    "parity-odd": lambda spec, s: parity_strategy(spec, "odd"),
    "parity-even": lambda spec, s: parity_strategy(spec, "even"),
    "witness": _witness,
    "solver": lambda spec, s: uniform_marginal_solver(spec),
}


def uniform_marginal_solver(
    spec: GameSpec,
    max_orbits: int = 2000,
    max_subsets: int = 500_000,
) -> ExplicitMixed:
    """Battlefield-symmetric strategy with every marginal exactly uniform.

    Solves the exact feasibility system "orbit weights x level counts =
    uniform" over partition orbits whose parts stay within {0, ..., 2m},
    returning the solution with the fewest positive orbits (ties broken by
    the lexicographically smallest orbit list).  Existence is guaranteed
    whenever the budget is divisible by the battlefield count, so a failure
    here means a cap was hit, not that no solution exists: a game with more
    than ``max_orbits`` orbits is refused up front
    (:class:`~blotto_lab.core.EnumerationTooLargeError`, a precondition), and
    a search that examines ``max_subsets`` supports without a solution raises
    :class:`~blotto_lab.core.SolverFailureError`.
    """
    top = 2 * spec.fair_share
    k = spec.battlefields
    orbits = []
    for p in enumerate_partitions(spec):
        if p[0] <= top:
            orbits.append(p)
            if len(orbits) > max_orbits:
                raise EnumerationTooLargeError(
                    f"more than {max_orbits} partitions with no part above {top} "
                    f"exceed the solver's cap of {max_orbits} orbits (max_orbits)"
                )
    orbits.sort()
    # Level-x constraint: sum over orbits of weight * (#parts equal to x)
    # equals K / (2m + 1).  Summing all rows forces total weight 1.
    columns = [[Fraction(orbit.count(x)) for x in range(top + 1)] for orbit in orbits]
    target = [Fraction(k, top + 1)] * (top + 1)

    examined = 0
    for size in range(1, min(len(orbits), top + 1) + 1):
        for subset in itertools.combinations(range(len(orbits)), size):
            examined += 1
            if examined > max_subsets:
                raise SolverFailureError(
                    f"gave up after {max_subsets} candidate supports"
                )
            weights = _solve_positive([columns[i] for i in subset], target)
            if weights is None:
                continue
            table = {}
            for i, w in zip(subset, weights):
                perms = sorted(set(itertools.permutations(orbits[i])))
                share = w / len(perms)
                for perm in perms:
                    table[perm] = share
            return ExplicitMixed(spec, table)
    raise SolverFailureError("no feasible support found (unreachable for valid games)")


def _solve_positive(
    columns: "list[list[Fraction]]", target: "list[Fraction]"
) -> "list[Fraction] | None":
    """Unique strictly positive solution of columns @ x = target, else None.

    Exact Gaussian elimination over rationals.  Rank-deficient systems are
    rejected: any solution they admit is supported on a strictly smaller
    subset, which the caller has already visited.
    """
    rows = len(target)
    size = len(columns)
    aug = [[col[r] for col in columns] + [target[r]] for r in range(rows)]
    pivot_rows = []
    for col in range(size):
        pivot = next(
            (r for r in range(rows) if r not in pivot_rows and aug[r][col] != 0), None
        )
        if pivot is None:
            return None  # rank deficient in this column
        pivot_rows.append(pivot)
        inv = 1 / aug[pivot][col]
        aug[pivot] = [x * inv for x in aug[pivot]]
        for r in range(rows):
            if r != pivot and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[pivot])]
    for r in range(rows):
        if r not in pivot_rows and aug[r][size] != 0:
            return None  # inconsistent
    solution = [aug[pivot_rows[c]][size] for c in range(size)]
    if any(x <= 0 for x in solution):
        return None
    return solution
