"""Game definition and exact payoff evaluation for discrete Colonel Blotto.

Two players each allocate an integer budget across battlefields.  A
battlefield pays 1 to the strictly higher bid and nothing to the lower one; a
tied battlefield pays ``tie_value / 2`` to each player.  ``tie_value = 1``
gives the classical constant-sum game, ``tie_value = 0`` the variant where
tied battlefields are lost by both sides.

All payoff arithmetic is exact, so an equilibrium gap that is truly zero can
be distinguished from one that is merely tiny.  Single matchups are scored in
:class:`fractions.Fraction`; sums over bid distributions go through
:func:`value_row`, the tie rule in integers (:attr:`GameSpec.tie_scale`), or
:func:`value_rows`, the same rule over numpy arrays, so the budget DPs never
touch a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence, Union

import numpy as np

RationalLike = Union[int, str, Fraction]

Allocation = tuple  # length-K tuple of nonnegative ints summing to the budget
Partition = tuple  # same, sorted in weakly decreasing order


class BlottoError(Exception):
    """Base class for every error raised by blotto_lab."""


class PreconditionError(BlottoError, ValueError):
    """A documented precondition was violated (CLI exit code 2)."""


class InvalidAllocationError(PreconditionError):
    """Bid vector has the wrong length, a negative entry, or a bad total."""


class EnumerationTooLargeError(PreconditionError):
    """Requested enumeration exceeds the configured cap."""


class NotCoverableError(PreconditionError):
    """A bid above twice the fair share cannot appear in a uniform-marginal support."""


class WrongRegimeError(PreconditionError):
    """Operation is only defined for a specific tie value."""


class InvalidComparisonError(PreconditionError):
    """Dominance comparison of a strategy against itself."""


class SolverFailureError(BlottoError):
    """An exact computation failed to produce a result it can stand behind (exit code 1).

    Either the exact feasibility search hit its cap before finding a
    solution, or a fast path's answer failed its independent re-check: a
    best response or dominance witness that does not re-score to the
    optimum the budget DP reported.
    """


def exact_fraction(value: RationalLike) -> Fraction:
    """Convert ``value`` to a Fraction without passing through floating point.

    Accepts ints, Fractions, and strings such as ``"3/2"`` or ``"0.5"``.
    Floats are rejected: binary rounding would silently break the exact
    arithmetic everything downstream relies on.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing to convert float {value!r}; pass a string or Fraction")
    return Fraction(value)


def check_seed(seed: object) -> int:
    """``seed`` as a Python int when it is a non-negative integer, of any size.

    The one check of every seed the package takes (fictitious play, its
    checkpoints, ``sample``): numpy's PCG64 hashes a non-negative integer of
    any size into its state, and refuses the rest with a bare ``ValueError``
    or ``TypeError``.  numpy integers pass; ``bool`` does not.
    """
    if _integer(seed) and seed >= 0:
        return int(seed)
    raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")


def check_count(name: str, value: object) -> int:
    """``value`` as a Python int when it is an integer ``>= 1``: a number of rounds, or a cadence.

    numpy integers pass; ``bool`` and non-integers do not, whatever they
    would round or compare to.
    """
    if not _integer(value):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise PreconditionError(f"{name} must be >= 1, got {value}")
    return int(value)


def _integer(value: object) -> bool:
    """A Python or numpy integer that is not a ``bool``: the one integer rule of every check here."""
    # a plain int first: the Integral check costs about 25 times as much,
    # and runs per bid of every atom and checkpoint row validated
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class GameSpec:
    """A Blotto game: integer budget, number of battlefields, tie value.

    ``budget`` and ``battlefields`` may be Python or numpy integers, and are
    kept as Python ints, so a spec built from either compares, hashes and
    serializes alike.  ``tie_value`` is the total value split at a tied
    battlefield (each side receives half of it).  It must lie in [0, 2]
    unless ``allow_any_tie_value`` is set, which admits the coordination-game
    regime above 2.
    """

    budget: int
    battlefields: int
    tie_value: Fraction = Fraction(0)
    allow_any_tie_value: bool = False

    def __post_init__(self) -> None:
        if not _integer(self.budget) or self.budget < 1:
            raise PreconditionError(f"budget must be a positive integer, got {self.budget!r}")
        if not _integer(self.battlefields) or self.battlefields < 2:
            raise PreconditionError(
                f"need at least 2 battlefields, got {self.battlefields!r}"
            )
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "battlefields", int(self.battlefields))
        object.__setattr__(self, "tie_value", exact_fraction(self.tie_value))
        if not self.allow_any_tie_value and not 0 <= self.tie_value <= 2:
            raise PreconditionError(
                f"tie value {self.tie_value} outside [0, 2]; "
                "set allow_any_tie_value=True to override"
            )

    @property
    def divisible(self) -> bool:
        """True when the budget splits evenly over the battlefields."""
        return self.budget % self.battlefields == 0

    @property
    def fair_share(self) -> int:
        """Budget per battlefield under the even split (requires divisibility)."""
        if not self.divisible:
            raise PreconditionError(
                f"budget {self.budget} is not divisible by {self.battlefields} battlefields"
            )
        return self.budget // self.battlefields

    @property
    def half_tie(self) -> Fraction:
        """Payoff to each player at a tied battlefield."""
        return self.tie_value / 2

    @property
    def tie_scale(self) -> "tuple[int, int]":
        """``(p, q2)``: a battlefield pays ``q2`` won, ``p`` tied, 0 lost (units of ``1/q2``)."""
        return self.tie_value.numerator, 2 * self.tie_value.denominator

    def validate_allocation(self, bids: Sequence[int]) -> "tuple[int, ...]":
        """Return ``bids`` as a tuple of Python ints after checking it is a pure strategy."""
        vec = tuple(bids)
        if len(vec) != self.battlefields:
            raise InvalidAllocationError(
                f"expected {self.battlefields} bids, got {len(vec)}"
            )
        if any(not _integer(b) or b < 0 for b in vec):
            raise InvalidAllocationError(f"bids must be nonnegative integers: {vec}")
        vec = tuple(map(int, vec))
        if sum(vec) != self.budget:
            raise InvalidAllocationError(
                f"bids sum to {sum(vec)}, budget is {self.budget}: {vec}"
            )
        return vec

    def validate_partition(self, parts: Sequence[int]) -> "tuple[int, ...]":
        """Like :meth:`validate_allocation` but also requires sorted-descending."""
        vec = self.validate_allocation(parts)
        if any(vec[i] < vec[i + 1] for i in range(len(vec) - 1)):
            raise InvalidAllocationError(f"partition parts must be weakly decreasing: {vec}")
        return vec


def as_partition(bids: Sequence[int]) -> "tuple[int, ...]":
    """Canonical multiset form of a bid vector: sorted weakly decreasing."""
    return tuple(sorted(bids, reverse=True))


@dataclass(frozen=True)
class BattlefieldOutcome:
    """Decomposition of one matchup into won, tied, and lost battlefields."""

    wins: int
    ties: int
    losses: int


def battlefield_value(a: int, b: int, spec: GameSpec) -> Fraction:
    """Value of a single battlefield to the player bidding ``a`` against ``b``."""
    if a > b:
        return Fraction(1)
    if a == b:
        return spec.half_tie
    return Fraction(0)


def value_row(weights: Sequence[int], p: int, q2: int) -> "list[int]":
    """``q2 * (weight below x) + p * (weight at x)`` for every bid ``x``.

    Divided by ``q2 * sum(weights)``, with ``(p, q2) = spec.tie_scale``,
    entry ``x`` is the expected value of bidding ``x`` against bids drawn by
    ``weights``.
    """
    row, below = [], 0
    for w in weights:
        row.append(q2 * below + p * w)
        below += w
    return row


def value_rows(weights: np.ndarray, p: int, q2: int) -> np.ndarray:
    """:func:`value_row` along the last axis of ``weights``, as one numpy expression.

    Computed as ``q2 * (weight up to x) - (q2 - p) * (weight at x)``: with
    ``total`` the weight of a row, no term exceeds ``(q2 + |p|) * total`` in
    magnitude.  The result takes the dtype of ``weights``; the caller picks
    ``object`` (Python ints) where int64 could overflow.
    """
    return q2 * np.cumsum(weights, axis=-1) - (q2 - p) * weights


def battle_outcome(s: Sequence[int], t: Sequence[int], spec: GameSpec) -> BattlefieldOutcome:
    """Win/tie/loss counts for ``s`` against ``t`` (both validated)."""
    s = spec.validate_allocation(s)
    t = spec.validate_allocation(t)
    wins = sum(1 for a, b in zip(s, t) if a > b)
    ties = sum(1 for a, b in zip(s, t) if a == b)
    return BattlefieldOutcome(wins=wins, ties=ties, losses=spec.battlefields - wins - ties)


def payoff(s: Sequence[int], t: Sequence[int], spec: GameSpec) -> Fraction:
    """Exact payoff of pure strategy ``s`` against ``t``: wins + half-tie per tie."""
    out = battle_outcome(s, t, spec)
    return out.wins + spec.half_tie * out.ties


def payoff_sum_identity(s: Sequence[int], t: Sequence[int], spec: GameSpec) -> Fraction:
    """Sum of both players' payoffs; equals K - (1 - tie_value) * #ties."""
    out = battle_outcome(s, t, spec)
    return Fraction(spec.battlefields) - (1 - spec.tie_value) * out.ties
