"""Mixed strategies, marginal profiles, and expected payoffs.

Because the two players randomize independently, expected payoffs depend only
on the per-battlefield marginal distributions.  Everything here keeps those
marginals exact: a :class:`MarginalProfile` holds integer weights over one
common denominator and makes Fractions only when asked for them.  The
structured families (pair-coupled uniform over all levels or over the odd or
even ones, independent pairs, the swapped-pair variant) build those weights
directly, so their supports never need to be materialized.  The integer
tables (:meth:`MarginalProfile.weight_matrix`, :func:`value_matrix`) are
numpy matrices in one format: int64 behind a bound that rules out overflow,
and ``object`` (exact Python ints) past it, so each consumer runs one numpy
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
)

ZERO = Fraction(0)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


class MarginalProfile:
    """One exact bid-level distribution per battlefield.

    ``field(k)`` is a tuple of ``budget + 1`` Fractions summing to one.
    The profile is validated on, and keeps, its integer form
    (:meth:`scaled`), which also decides equality.  Profiles built from
    integer weights (:meth:`from_weights`) make their Fractions only when
    asked for them; :meth:`weight_matrix` is the same integer form as one matrix.
    """

    __slots__ = ("spec", "_fields", "_scaled", "_matrix", "_values")

    def __init__(self, spec: GameSpec, per_field: Sequence[Sequence[Fraction]]):
        if len(per_field) != spec.battlefields:
            raise PreconditionError(
                f"expected {spec.battlefields} marginal vectors, got {len(per_field)}"
            )
        fields = []  # (Fractions, their lcm denominator, ints over it) per field
        for k, vec in enumerate(per_field):
            if k and vec is per_field[k - 1]:  # the same field again: checked already
                fields.append(fields[-1])
                continue
            vec = tuple([x if isinstance(x, Fraction) else Fraction(x) for x in vec])
            if len(vec) != spec.budget + 1:
                raise PreconditionError(
                    f"marginal {k} has {len(vec)} levels, expected {spec.budget + 1}"
                )
            ratios = [x.as_integer_ratio() for x in vec]
            den = math.lcm(*{d for _, d in ratios})
            weights = tuple([n * (den // d) for n, d in ratios])
            if min(weights) < 0 or sum(weights) != den:
                raise PreconditionError(f"marginal {k} is not a probability vector")
            fields.append((vec, den, weights))
        den = math.lcm(*(d for _, d, _ in fields))
        self.spec = spec
        self._fields = tuple(vec for vec, _, _ in fields)
        self._scaled = den, tuple(
            w if d == den else tuple(x * (den // d) for x in w) for _, d, w in fields
        )
        self._matrix = None
        self._values = None

    @classmethod
    def from_weights(
        cls, spec: GameSpec, den: int, per_field: Sequence[Sequence[int]]
    ) -> "MarginalProfile":
        """The profile whose field ``k`` is ``per_field[k][x] / den``, built without Fractions.

        Runs the constructor's checks with its messages and reduces by the
        gcd, so it equals, and hashes like, the profile of the same Fractions.
        Equal fields are checked once and share one tuple.  ``per_field`` may
        also be one ``(K, budget + 1)`` integer array: it is checked in numpy
        and a copy kept as :meth:`weight_matrix`.
        """
        if len(per_field) != spec.battlefields:
            raise PreconditionError(
                f"expected {spec.battlefields} marginal vectors, got {len(per_field)}"
            )
        if isinstance(per_field, np.ndarray):
            return cls._from_matrix(spec, den, per_field)
        fields, seen = [], {}
        g = den
        for k, w in enumerate(per_field):
            if k and w is per_field[k - 1]:
                fields.append(fields[-1])
                continue
            w = tuple(w)
            if w not in seen:
                if len(w) != spec.budget + 1:
                    raise PreconditionError(
                        f"marginal {k} has {len(w)} levels, expected {spec.budget + 1}"
                    )
                if den < 1 or min(w) < 0 or sum(w) != den:
                    raise PreconditionError(f"marginal {k} is not a probability vector")
                if g > 1:
                    g = math.gcd(g, *w)
                seen[w] = w
            fields.append(seen[w])
        if g > 1:  # lowest terms, as the lcm of reduced Fractions gives
            den //= g
            reduced = {w: tuple([x // g for x in w]) for w in seen}
            fields = [reduced[w] for w in fields]
        self = cls.__new__(cls)
        self.spec = spec
        self._fields = None
        self._scaled = den, tuple(fields)
        self._matrix = None
        self._values = None
        return self

    @classmethod
    def _from_matrix(cls, spec: GameSpec, den: int, weights: np.ndarray) -> "MarginalProfile":
        levels = weights.shape[1]
        if levels != spec.budget + 1:
            raise PreconditionError(
                f"marginal 0 has {levels} levels, expected {spec.budget + 1}"
            )
        if not 1 <= den < (1 << 63) // levels:  # past it, a row sum could wrap
            return cls.from_weights(spec, den, weights.tolist())
        # a row holding an entry above den cannot sum to it: no sum can wrap
        bad = (weights.min(axis=1) < 0) | (weights.max(axis=1) > den)
        bad |= weights.sum(axis=1) != den
        if bad.any():
            raise PreconditionError(f"marginal {int(bad.argmax())} is not a probability vector")
        g = math.gcd(den, int(np.gcd.reduce(weights, axis=None))) if den > 1 else 1
        matrix = np.array(weights, dtype=np.int64)
        if g > 1:  # lowest terms, as the list form reduces
            matrix //= g
        matrix.flags.writeable = False
        self = cls.__new__(cls)
        self.spec = spec
        self._fields = None
        self._scaled = den // g, tuple(map(tuple, matrix.tolist()))
        self._matrix = matrix
        self._values = None
        return self

    def _fractions(self) -> "tuple[tuple[Fraction, ...], ...]":
        if self._fields is None:
            den, weights = self._scaled
            fields = []
            for k, w in enumerate(weights):
                fields.append(
                    fields[-1] if k and w is weights[k - 1] else tuple(
                        [Fraction(x, den) for x in w]
                    )
                )
            self._fields = tuple(fields)
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
            and self._scaled == other._scaled
        )

    def __hash__(self) -> int:
        return hash((self.spec, self._scaled))

    def scaled(self) -> "tuple[int, tuple[tuple[int, ...], ...]]":
        """``(den, weights)``: every field as ints over ``den``, the lcm of all denominators."""
        return self._scaled

    def weight_matrix(self) -> np.ndarray:
        """The weights of :meth:`scaled` as one read-only ``(K, budget + 1)`` matrix.

        int64 while ``den < 2**63`` (no weight exceeds ``den``), ``object``
        (Python ints) from there on.  Built once, on the first call.
        """
        den, weights = self._scaled
        if self._matrix is None:
            shape = len(weights), len(weights[0])
            matrix = np.empty(shape, dtype=np.int64 if den < 1 << 63 else object)
            for k, w in enumerate(weights):
                matrix[k] = matrix[k - 1] if k and w is weights[k - 1] else w
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def expected_total(self) -> Fraction:
        """Sum over battlefields of the expected bid."""
        den, weights = self._scaled
        return Fraction(sum(sum(map(mul, range(len(w)), w)) for w in weights), den)

    @classmethod
    def point_mass(cls, spec: GameSpec, bids: Sequence[int]) -> "MarginalProfile":
        bids = spec.validate_allocation(bids)
        weights = np.zeros((spec.battlefields, spec.budget + 1), dtype=np.int64)
        weights[np.arange(spec.battlefields), bids] = 1
        return cls.from_weights(spec, 1, weights)

    @classmethod
    def on_levels(cls, spec: GameSpec, levels: Sequence[int]) -> "MarginalProfile":
        """Uniform on the given bid levels at every battlefield."""
        w = [0] * (spec.budget + 1)
        for x in levels:
            w[x] = 1
        return cls.from_weights(spec, len(levels), [w] * spec.battlefields)

    @classmethod
    def uniform(cls, spec: GameSpec) -> "MarginalProfile":
        """Uniform on {0, ..., 2 * fair_share} at every battlefield."""
        return cls.on_levels(spec, range(2 * spec.fair_share + 1))

    @classmethod
    def parity(cls, spec: GameSpec, parity: str) -> "MarginalProfile":
        """Uniform on the odd or even levels within {0, ..., 2 * fair_share}."""
        return cls.on_levels(spec, parity_levels(spec, parity))


def parity_levels(spec: GameSpec, parity: str) -> "tuple[int, ...]":
    """Odd or even bid levels within {0, ..., 2 * fair_share}."""
    top = 2 * spec.fair_share
    if parity == "odd":
        return tuple(range(1, top, 2))
    if parity == "even":
        return tuple(range(0, top + 1, 2))
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
            self.levels: "Sequence[int]" = range(self.pair_sum + 1)
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
        level = self.support_size() // self.base
        fields = [
            [level] * self.base + [0] * (self.spec.budget - self.pair_sum)
            for _ in range(self.spec.battlefields)
        ]
        for bids, delta in (
            (self.removed_a, -1),
            (self.removed_b, -1),
            (self.target, 1),
            (self.added_b, 1),
        ):
            for k, b in enumerate(bids):
                fields[k][b] += delta
        return MarginalProfile.from_weights(self.spec, self.support_size(), fields)

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
    den, _ = m_opp.scaled()
    weights = m_opp.weight_matrix()
    if (q2 + abs(p)) * den >= 1 << 62:
        weights = weights.astype(object)
    below = np.cumsum(weights, axis=1)
    below -= weights
    below *= q2
    below += p * weights
    below.flags.writeable = False
    m_opp._values = (p, q2), below
    return below


def expected_payoff_marginal(
    m_self: MarginalProfile, m_opp: MarginalProfile, spec: GameSpec
) -> Fraction:
    """Expected payoff between independent players from marginals alone.

    One multiply-sum over the weight and value matrices, in int64 while
    ``K * (q2 + |p|) * den_self * den_opp < 2**62``, which bounds every
    partial sum, and over ``object`` matrices (Python ints) from there on.
    """
    den_self, den_opp = m_self.scaled()[0], m_opp.scaled()[0]
    p, q2 = spec.tie_scale
    own, values = m_self.weight_matrix(), value_matrix(m_opp, spec)
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
