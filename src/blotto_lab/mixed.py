"""Mixed strategies, marginal profiles, and expected payoffs.

Because the two players randomize independently, expected payoffs depend only
on the per-battlefield marginal distributions.  Everything here keeps those
marginals exact: a :class:`MarginalProfile` is one read-only matrix of
integer weights over one common denominator in lowest terms, and makes
Fractions only when asked for them.  The structured families (pair-coupled
uniform over all levels or over the odd or even ones, independent pairs, the
swapped-pair variant) build that matrix directly, so their supports never
need to be materialized.  The integer tables
(:meth:`MarginalProfile.weight_matrix`, :func:`value_matrix`) are numpy
matrices in one format: int64 behind a bound that rules out overflow, and
``object`` (exact Python ints) past it, so each consumer runs one numpy
expression whichever dtype it gets.

Sampling is seeded and reproducible: every ``sample`` call builds a fresh
``numpy.random.Generator`` over PCG64 from the given seed, any non-negative
integer (:func:`~blotto_lab.core.check_seed`), so identical seeds give
identical draws across processes and releases.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    GameSpec,
    InvalidAllocationError,
    PreconditionError,
    check_seed,
    exact_fraction,
    value_rows,
)

ZERO = Fraction(0)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


class MarginalProfile:
    """One exact bid-level distribution per battlefield.

    The profile stores one thing: its weights over one common denominator in
    lowest terms, as one read-only ``(K, budget + 1)`` matrix
    (:meth:`weight_matrix`), int64 while the denominator is below ``2**63``
    (no weight exceeds it) and ``object`` (Python ints) from there on.  Every
    constructor validates through :meth:`_build`.  Equality, :meth:`scaled`
    and ``field(k)``, a tuple of ``budget + 1`` Fractions summing to one,
    derive from the matrix; the Fractions are made once, when first asked for.
    """

    __slots__ = ("spec", "_den", "_matrix", "_fields", "_values")

    def __init__(self, spec: GameSpec, per_field: Sequence[Sequence[Fraction]]):
        fields = [tuple([x if isinstance(x, Fraction) else Fraction(x) for x in vec])
                  for vec in per_field]
        den = math.lcm(*{x.denominator for vec in fields for x in vec})
        self._build(spec, den, [[x.numerator * (den // x.denominator) for x in vec]
                                for vec in fields])
        self._fields = tuple(fields)

    @classmethod
    def from_weights(
        cls, spec: GameSpec, den: int, per_field: Sequence[Sequence[int]]
    ) -> "MarginalProfile":
        """The profile whose field ``k`` is ``per_field[k][x] / den``, built without Fractions.

        ``per_field`` is one row of ints per field, or one ``(K, budget + 1)``
        integer array.  Either way the checks and messages are the
        constructor's, and the profile keeps a read-only copy in lowest
        terms, so it equals, and hashes like, the profile of the same Fractions.
        """
        self = cls.__new__(cls)
        self._build(spec, den, per_field)
        return self

    def _build(self, spec: GameSpec, den: int, weights: Sequence[Sequence[int]]) -> None:
        """Check ``weights / den`` field by field and keep it as the matrix in lowest terms.

        The first bad field wins, whether it has the wrong length or is not a
        probability vector.
        """
        fields, levels = spec.battlefields, spec.budget + 1
        if len(weights) != fields:
            raise PreconditionError(f"expected {fields} marginal vectors, got {len(weights)}")
        if isinstance(weights, np.ndarray):
            good = fields if weights.shape[1] == levels else 0
        else:  # the fields before the first one of the wrong length
            good = next((k for k, w in enumerate(weights) if len(w) != levels), fields)
        # int64 while no row of weights in [0, den] can sum past 2**63
        wide = not 1 <= den < (1 << 63) // levels
        try:
            matrix = np.array(weights[:good], dtype=object if wide else np.int64)
        except OverflowError:  # a weight past int64, so past den: found bad below
            matrix = np.array(weights[:good], dtype=object)
        matrix = matrix.reshape(good, levels)
        # each field's largest weight, a negative weight counting as past den
        if matrix.dtype == object:
            highs = [den + 1 if lo < 0 else hi
                     for lo, hi in zip(matrix.min(axis=1).tolist(), matrix.max(axis=1).tolist())]
        else:  # as uint64 a negative weight reads as 2**63 or more
            highs = matrix.view(np.uint64).max(axis=1).tolist()
        totals = matrix.sum(axis=1).tolist()
        bad = [den < 1 or hi > den or t != den for hi, t in zip(highs, totals)]
        if True in bad:
            raise PreconditionError(f"marginal {bad.index(True)} is not a probability vector")
        if good < fields:
            raise PreconditionError(
                f"marginal {good} has {len(weights[good])} levels, expected {levels}"
            )
        # lowest terms, as the lcm of reduced Fractions gives; the gcd divides
        # field 0's largest weight, which often brings it down to 1 already
        g = math.gcd(den, highs[0])
        if g > 1:
            g = math.gcd(g, int(np.gcd.reduce(matrix, axis=None)))
            matrix //= g
            den //= g
        if den < 1 << 63:
            matrix = matrix.astype(np.int64, copy=False)
        matrix.flags.writeable = False
        self.spec = spec
        self._den = den
        self._matrix = matrix
        self._fields = None
        self._values = None

    def _fractions(self) -> "tuple[tuple[Fraction, ...], ...]":
        if self._fields is None:
            rows = self._matrix.tolist()
            fractions = {x: Fraction(x, self._den) for x in set().union(*rows)}
            self._fields = tuple(tuple([fractions[x] for x in row]) for row in rows)
        return self._fields

    def field(self, k: int) -> "tuple[Fraction, ...]":
        return self._fractions()[k]

    def __iter__(self) -> Iterator["tuple[Fraction, ...]"]:
        return iter(self._fractions())

    def __eq__(self, other: object) -> bool:
        # one common denominator in lowest terms: equal ints iff equal Fractions
        return (
            isinstance(other, MarginalProfile)
            and self.spec == other.spec
            and self._den == other._den
            and np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self.spec, self._den, tuple(self._matrix.ravel().tolist())))

    def scaled(self) -> "tuple[int, tuple[tuple[int, ...], ...]]":
        """``(den, weights)``: every field as ints over ``den``, the lcm of all denominators."""
        return self._den, tuple(map(tuple, self._matrix.tolist()))

    def weight_matrix(self) -> np.ndarray:
        """The weights of :meth:`scaled` as one read-only ``(K, budget + 1)`` matrix.

        int64 while ``den < 2**63`` (no weight exceeds ``den``), ``object``
        (Python ints) from there on.
        """
        return self._matrix

    def expected_total(self) -> Fraction:
        """Sum over battlefields of the expected bid."""
        den, weights = self.scaled()
        return Fraction(sum(sum(map(mul, range(len(w)), w)) for w in weights), den)

    @classmethod
    def point_mass(cls, spec: GameSpec, bids: Sequence[int]) -> "MarginalProfile":
        bids = spec.validate_allocation(bids)
        weights = np.zeros((spec.battlefields, spec.budget + 1), dtype=np.int64)
        weights[np.arange(spec.battlefields), bids] = 1
        return cls.from_weights(spec, 1, weights)

    @classmethod
    def on_levels(cls, spec: GameSpec, levels: range) -> "MarginalProfile":
        """Uniform on the bid levels in ``levels`` at every battlefield."""
        weights = np.zeros((spec.battlefields, spec.budget + 1), dtype=np.int64)
        weights[:, levels.start : levels.stop : levels.step] = 1
        return cls.from_weights(spec, len(levels), weights)

    @classmethod
    def uniform(cls, spec: GameSpec) -> "MarginalProfile":
        """Uniform on {0, ..., 2 * fair_share} at every battlefield."""
        return cls.on_levels(spec, range(2 * spec.fair_share + 1))

    @classmethod
    def parity(cls, spec: GameSpec, parity: str) -> "MarginalProfile":
        """Uniform on the odd or even levels within {0, ..., 2 * fair_share}."""
        return cls.on_levels(spec, parity_levels(spec, parity))


def parity_levels(spec: GameSpec, parity: str) -> range:
    """Odd or even bid levels within {0, ..., 2 * fair_share}."""
    top = 2 * spec.fair_share
    if parity == "odd":
        return range(1, top, 2)
    if parity == "even":
        return range(0, top + 1, 2)
    raise PreconditionError(f"parity must be 'odd' or 'even', got {parity!r}")


class MixedStrategy:
    """Finitely supported distribution over pure strategies.

    Subclasses either hold an explicit table or describe a structured family;
    both expose exact ``probability``/``marginals`` and seeded ``sample``.
    """

    spec: GameSpec

    def support_size(self) -> int:
        raise NotImplementedError

    def atoms(self) -> Iterator["tuple[tuple[int, ...], Fraction]"]:
        """Yield (bid vector, probability) pairs in a deterministic order."""
        raise NotImplementedError

    def probability(self, bids: Sequence[int]) -> Fraction:
        raise NotImplementedError

    def marginals(self) -> MarginalProfile:
        raise NotImplementedError

    def sample(self, seed: int, count: int) -> "list[tuple[int, ...]]":
        raise NotImplementedError

    def _marginals_from_atoms(self) -> MarginalProfile:
        n = self.spec.budget
        acc = [[ZERO] * (n + 1) for _ in range(self.spec.battlefields)]
        for bids, prob in self.atoms():
            for k, b in enumerate(bids):
                acc[k][b] += prob
        return MarginalProfile(self.spec, acc)


class ExplicitMixed(MixedStrategy):
    """Mixed strategy given by an explicit atom -> probability table."""

    def __init__(self, spec: GameSpec, weights: Mapping[Sequence[int], Fraction]):
        table = {}
        total = ZERO
        for bids, prob in weights.items():
            vec = spec.validate_allocation(bids)
            prob = exact_fraction(prob)
            if prob <= 0:
                raise PreconditionError(f"atom {vec} has nonpositive probability {prob}")
            if vec in table:
                raise PreconditionError(f"duplicate atom {vec}")
            table[vec] = prob
            total += prob
        if total != 1:
            raise PreconditionError(f"probabilities sum to {total}, not 1")
        self.spec = spec
        self._table = dict(sorted(table.items()))

    def support_size(self) -> int:
        return len(self._table)

    def atoms(self) -> Iterator["tuple[tuple[int, ...], Fraction]"]:
        return iter(self._table.items())

    def probability(self, bids: Sequence[int]) -> Fraction:
        return self._table.get(tuple(bids), ZERO)

    def marginals(self) -> MarginalProfile:
        return self._marginals_from_atoms()

    def sample(self, seed: int, count: int) -> "list[tuple[int, ...]]":
        support = list(self._table)
        den = math.lcm(*(p.denominator for p in self._table.values()))
        weights = [p.numerator * (den // p.denominator) for p in self._table.values()]
        if den < 1 << 63:
            draws = _rng(seed).integers(0, den, size=count)
            idx = np.searchsorted(np.cumsum(weights), draws, side="right")
        else:  # past int64: exact draws, and bisection on Python ints
            cum = list(accumulate(weights))
            draws = _big_integers(_rng(seed).bit_generator, den, count)
            idx = [bisect_right(cum, d) for d in draws]
        return [support[i] for i in idx]


def _big_integers(bitgen: np.random.BitGenerator, high: int, count: int) -> "list[int]":
    """``count`` exact uniform draws from ``[0, high)`` for any ``high >= 1``.

    Each candidate takes the top ``bits`` bits of as many raw 64-bit words of
    ``bitgen`` as ``high - 1`` needs, and is kept when below ``high``: more
    than half of them are.
    """
    bits = (high - 1).bit_length()
    words = -(-bits // 64)
    draws = []
    while len(draws) < count:
        x = 0
        for word in bitgen.random_raw(words).tolist():
            x = x << 64 | word
        x >>= 64 * words - bits
        if x < high:
            draws.append(x)
    return draws


class _PairFamily(MixedStrategy):
    """Shared plumbing for families built from battlefield pairs (1,2), (3,4), ..."""

    def __init__(self, spec: GameSpec):
        if spec.battlefields % 2:
            raise PreconditionError(
                f"{spec.battlefields} battlefields cannot be paired; "
                "for an odd count use uniform_marginal_solver"
            )
        self.spec = spec
        self.pairs = spec.battlefields // 2

    def atoms(self) -> Iterator["tuple[tuple[int, ...], Fraction]"]:
        w = Fraction(1, self.support_size())
        for i in range(self.support_size()):
            yield self.atom(i), w

    @staticmethod
    def _interleave(firsts: Sequence[int], pair_sum: int) -> "tuple[int, ...]":
        out = []
        for j in firsts:
            out.append(j)
            out.append(pair_sum - j)
        return tuple(out)


class PairCoupledUniform(_PairFamily):
    """One uniform split, perfectly correlated across all pairs.

    Atoms are (j, c-j, j, c-j, ...) with c the per-pair budget, for every j
    in {0, ..., c}, or with ``parity`` only the odd or even j.  Every marginal
    is uniform on those levels.  The parity variants need an evenly divisible
    budget (so that c = 2 * fair_share) and support the payoff-inequivalent
    equilibria of the constant-sum regime.
    """

    def __init__(self, spec: GameSpec, parity: "str | None" = None):
        super().__init__(spec)
        if parity is None:
            if spec.budget % self.pairs:
                raise PreconditionError(
                    f"budget {spec.budget} is not divisible by the {self.pairs} battlefield pairs"
                )
            self.pair_sum = spec.budget // self.pairs
            self.levels = range(self.pair_sum + 1)
        else:
            self.pair_sum = 2 * spec.fair_share
            self.levels = parity_levels(spec, parity)
            if not self.levels:
                raise PreconditionError(f"no {parity} levels available for {spec}")

    def support_size(self) -> int:
        return len(self.levels)

    def atom(self, index: int) -> "tuple[int, ...]":
        if not 0 <= index < len(self.levels):
            raise IndexError(index)
        return self._interleave([self.levels[index]] * self.pairs, self.pair_sum)

    def probability(self, bids: Sequence[int]) -> Fraction:
        bids = tuple(bids)
        j = bids[0]
        if j in self.levels and bids == self._interleave([j] * self.pairs, self.pair_sum):
            return Fraction(1, self.support_size())
        return ZERO

    def marginals(self) -> MarginalProfile:
        return MarginalProfile.on_levels(self.spec, self.levels)

    def sample(self, seed: int, count: int) -> "list[tuple[int, ...]]":
        idx = _rng(seed).integers(0, self.support_size(), size=count)
        return [self.atom(int(i)) for i in idx]


class IndependentPairsUniform(_PairFamily):
    """Independent uniform splits, one per battlefield pair.

    The support has (2m+1)^(K/2) equiprobable atoms, indexed by the
    most-significant-first digits (j_1, ..., j_L) in base 2m+1; atoms are
    addressable by index and are never stored as a table.
    """

    def __init__(self, spec: GameSpec):
        super().__init__(spec)
        self.pair_sum = 2 * spec.fair_share
        self.base = self.pair_sum + 1

    def support_size(self) -> int:
        return self.base**self.pairs

    def _digits(self, index: int) -> "tuple[int, ...]":
        digits = []
        for _ in range(self.pairs):
            index, d = divmod(index, self.base)
            digits.append(d)
        return tuple(reversed(digits))

    def _atom_for_digits(self, digits: Sequence[int]) -> "tuple[int, ...]":
        return self._interleave(digits, self.pair_sum)

    def _digits_of(self, bids: Sequence[int]) -> "tuple[int, ...] | None":
        """Per-pair first components, or None when bids lie outside the family."""
        bids = tuple(bids)
        if len(bids) != self.spec.battlefields:
            return None
        for i in range(self.pairs):
            a, b = bids[2 * i], bids[2 * i + 1]
            if a < 0 or a > self.pair_sum or a + b != self.pair_sum:
                return None
        return bids[0::2]

    def atom(self, index: int) -> "tuple[int, ...]":
        if not 0 <= index < self.support_size():
            raise IndexError(index)
        return self._atom_for_digits(self._digits(index))

    def probability(self, bids: Sequence[int]) -> Fraction:
        if self._digits_of(bids) is None:
            return ZERO
        return Fraction(1, self.support_size())

    def marginals(self) -> MarginalProfile:
        return MarginalProfile.uniform(self.spec)

    def sample(self, seed: int, count: int) -> "list[tuple[int, ...]]":
        mat = _rng(seed).integers(0, self.base, size=(count, self.pairs))
        return [self._atom_for_digits([int(d) for d in row]) for row in mat]


class SwappedPairsWitness(IndependentPairsUniform):
    """Independent pairs with two atoms swapped so a target strategy is played.

    Replacing the atom whose per-pair splits follow the target's odd-indexed
    bids, and the one following its (mirrored) even-indexed bids, by the
    target itself and its mirror leaves every marginal untouched, so the
    result still has uniform marginals while giving the target positive
    probability.
    """

    def __init__(self, spec: GameSpec, target: Sequence[int]):
        super().__init__(spec)
        target = spec.validate_allocation(target)
        top = self.pair_sum
        if any(b > top for b in target):
            raise PreconditionError(
                f"{target} bids above {top} on some battlefield; not coverable"
            )
        if self._digits_of(target) is not None:
            raise PreconditionError(
                f"{target} already lies in the independent-pairs support; the swap "
                "is the identity (use independent_pairs_strategy directly)"
            )
        self.target = target
        self.removed_a = self._atom_for_digits(target[0::2])
        self.removed_b = self._atom_for_digits([top - b for b in target[1::2]])
        mirror = []
        for i in range(self.pairs):
            mirror.append(top - target[2 * i + 1])
            mirror.append(top - target[2 * i])
        self.added_b = tuple(mirror)

    def _swap(self, bids: "tuple[int, ...]") -> "tuple[int, ...]":
        if bids == self.removed_a:
            return self.target
        if bids == self.removed_b:
            return self.added_b
        return bids

    def atom(self, index: int) -> "tuple[int, ...]":
        return self._swap(super().atom(index))

    def probability(self, bids: Sequence[int]) -> Fraction:
        bids = tuple(bids)
        w = Fraction(1, self.support_size())
        if bids == self.target or bids == self.added_b:
            return w
        if bids == self.removed_a or bids == self.removed_b:
            return ZERO
        return super().probability(bids)

    def marginals(self) -> MarginalProfile:
        """The independent-pairs marginals with the four swapped atoms applied.

        Derived from the atoms actually removed and added rather than assumed
        uniform, so a swap that breaks uniformity shows up here.  In units of
        ``1 / support_size``: ``support_size // base`` per level, one per atom.
        """
        den = self.support_size()
        weights = np.zeros(
            (self.spec.battlefields, self.spec.budget + 1),
            dtype=np.int64 if den < 1 << 63 else object,
        )
        weights[:, : self.base] = den // self.base
        fields = np.arange(self.spec.battlefields)
        for bids, delta in (
            (self.removed_a, -1),
            (self.removed_b, -1),
            (self.target, 1),
            (self.added_b, 1),
        ):
            weights[fields, bids] += delta
        return MarginalProfile.from_weights(self.spec, den, weights)

    def sample(self, seed: int, count: int) -> "list[tuple[int, ...]]":
        return [self._swap(bids) for bids in super().sample(seed, count)]


def value_matrix(m_opp: MarginalProfile, spec: GameSpec) -> np.ndarray:
    """:func:`~blotto_lab.core.value_row` of every field of ``m_opp``, as one matrix.

    Row ``k`` is ``q2 * (weight below x) + p * (weight at x)`` over the
    opponent's weights at battlefield ``k``; no entry exceeds
    ``(q2 + |p|) * den`` in magnitude.  int64 while that bound stays below
    ``2**62``, ``object`` (Python ints) from there on.  The profile keeps the
    matrix of the last tie value asked for, read-only, so a payoff and a
    best response against it build it once.
    """
    p, q2 = spec.tie_scale
    if m_opp._values is not None and m_opp._values[0] == (p, q2):
        return m_opp._values[1]
    weights = m_opp._matrix
    if (q2 + abs(p)) * m_opp._den >= 1 << 62:
        weights = weights.astype(object)
    values = value_rows(weights, p, q2)
    values.flags.writeable = False
    m_opp._values = (p, q2), values
    return values


def expected_payoff_marginal(
    m_self: MarginalProfile, m_opp: MarginalProfile, spec: GameSpec
) -> Fraction:
    """Expected payoff between independent players from marginals alone.

    One multiply-sum over the weight and value matrices, in int64 while
    ``K * (q2 + |p|) * den_self * den_opp < 2**62``, which bounds every
    partial sum, and over ``object`` matrices (Python ints) from there on.
    """
    den_self, den_opp = m_self._den, m_opp._den
    p, q2 = spec.tie_scale
    own, values = m_self._matrix, value_matrix(m_opp, spec)
    if spec.battlefields * (q2 + abs(p)) * den_self * den_opp >= 1 << 62:
        own, values = own.astype(object), values.astype(object)
    total = int(np.vdot(own, values))
    return Fraction(total, q2 * den_self * den_opp)


def expected_payoff_pure_vs_mixed(
    s: Sequence[int], sigma: "MixedStrategy | MarginalProfile", spec: GameSpec
) -> Fraction:
    """Expected payoff of pure strategy ``s`` against an independent mixer."""
    profile = sigma if isinstance(sigma, MarginalProfile) else sigma.marginals()
    s = spec.validate_allocation(s)
    total = ZERO
    for k, bid in enumerate(s):
        opp = profile.field(k)
        total += sum(opp[:bid], start=ZERO) + spec.half_tie * opp[bid]
    return total


# ---------------------------------------------------------------------------
# Text serialization: header "N K alpha_num alpha_den", then one line per atom
# "p_num p_den b_1 ... b_K".  Lines starting with '#' are comments.
# ---------------------------------------------------------------------------


def write_strategy(sigma: MixedStrategy, stream: IO[str], comment: "str | None" = None) -> None:
    spec = sigma.spec
    if comment:
        for line in comment.splitlines():
            stream.write(f"# {line}\n")
    alpha = spec.tie_value
    stream.write(f"{spec.budget} {spec.battlefields} {alpha.numerator} {alpha.denominator}\n")
    for bids, prob in sigma.atoms():
        cells = [str(prob.numerator), str(prob.denominator), *map(str, bids)]
        stream.write(" ".join(cells) + "\n")


def _int_cells(line: str, width: int, den_at: int, what: str) -> "list[int]":
    """The ``width`` integers of one line, the one at ``den_at`` a nonzero denominator."""
    cells = line.split()
    if len(cells) != width:
        raise InvalidAllocationError(f"bad {what}: {line!r}")
    try:
        ints = [int(cell) for cell in cells]
    except ValueError as exc:
        raise InvalidAllocationError(f"bad {what}: {line!r}") from exc
    if ints[den_at] == 0:
        raise InvalidAllocationError(f"zero denominator in {what}: {line!r}")
    return ints


def read_strategy(stream: IO[str], allow_any_tie_value: bool = False) -> ExplicitMixed:
    lines = [ln.strip() for ln in stream if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise InvalidAllocationError("empty strategy file")
    n, k, num, den = _int_cells(lines[0], 4, 3, "header")
    spec = GameSpec(n, k, Fraction(num, den), allow_any_tie_value=allow_any_tie_value)
    weights = {}
    for ln in lines[1:]:
        p_num, p_den, *bids = _int_cells(ln, 2 + k, 1, "atom line")
        weights[tuple(bids)] = Fraction(p_num, p_den)
    return ExplicitMixed(spec, weights)
