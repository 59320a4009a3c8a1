"""Long-run fictitious play over the Colonel Lotto strategy space.

Each round every player best-replies to the opponent's empirical distribution
of past play.  Under the random-matching payoff of the Lotto reduction the
whole belief collapses into a single bid-level value function: the expected
payoff of playing partition p is ``sum_j v(p_j)`` with
``v(x) = sum_b hist(b) * value(x, b) / (rounds * K)``, so a best reply is one
budget DP over that shared table (see :mod:`blotto_lab.kernels`).  A
two-sided round stacks both players' tables (:class:`~blotto_lab.kernels.FPStack`)
and makes one kernel call per reply: the first fills both DPs' stages in one
pass, and the second reads them.  A self-play round and a trace row hand a
plain table, which the kernels fill as a stack of one.

That table is the integer value row of the opponent's bid histogram
(:func:`blotto_lab.core.value_row`), in units of ``1 / (q2 * rounds * K)``
with ``(p, q2) = spec.tie_scale``, as one numpy array on the kernels' type
ladder: int32 while ``K * (q2 + |p|) * rounds * K`` stays below int32's guard
(``2**28``, about 1.06M rounds at 120/6 with tie value 1/3), int64 up to
``2**59``, and ``object`` (Python ints) from the first round past that, or,
with random tie-breaking, for the whole run when the sampler's int64
completion counts could overflow (:func:`blotto_lab.kernels.br_sampled_numpy`).
The kernels run in the array's type, and the type changes only between
rounds: every integer is exact in each, so no output byte depends on it.
Runs are deterministic given (init, mode, seed) and serialize to a versioned
binary checkpoint that is byte-identical across identical runs.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import GameSpec, PreconditionError, as_partition, check_count, check_seed, value_rows
from .kernels import _INT_TYPES, FPStack, KernelSet, get_kernels
from .space import count_ordered

CHECKPOINT_MAGIC = b"BLOTTOFP"
CHECKPOINT_VERSION = 1

# k * (2q + |p|) * rounds * k must stay below this for int64 kernels
_INT64_SAFE = 1 << 59

MODES = ("two-sided", "self-play")
TIE_BREAKS = ("lex", "random")


@dataclass(frozen=True)
class TraceRow:
    """Convergence diagnostics recorded after a round completes."""

    round_index: int
    tv_to_uniform: Fraction
    br_gap: Fraction


@dataclass
class FPState:
    """Complete, resumable state of a fictitious-play run.

    ``counts_*`` map partition -> times played; ``hist_*`` aggregate bid
    levels over the whole history (total = rounds_played * K); ``discovery_*``
    record the round each partition was first played, in discovery order.
    In self-play mode the B-side structures alias the A-side ones.
    """

    spec: GameSpec
    mode: str
    tie_break: str
    seed: int
    init: "tuple[int, ...]"
    rounds_played: int
    counts_a: "dict[tuple[int, ...], int]"
    counts_b: "dict[tuple[int, ...], int]"
    hist_a: np.ndarray
    hist_b: np.ndarray
    discovery_a: "dict[tuple[int, ...], int]"
    discovery_b: "dict[tuple[int, ...], int]"
    trace: "list[TraceRow]" = field(default_factory=list)
    rng_state: "dict | None" = None

    @property
    def shared_history(self) -> bool:
        return self.mode == "self-play"


def balanced_partition(spec: GameSpec) -> "tuple[int, ...]":
    """The most even split: the lexicographically smallest partition."""
    base, extra = divmod(spec.budget, spec.battlefields)
    return (base + 1,) * extra + (base,) * (spec.battlefields - extra)


def _fresh_state(
    spec: GameSpec, mode: str, tie_break: str, seed: int, init: "Sequence[int] | None"
) -> FPState:
    if mode not in MODES:
        raise PreconditionError(f"mode must be one of {MODES}, got {mode!r}")
    if tie_break not in TIE_BREAKS:
        raise PreconditionError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    if init is None:
        start = balanced_partition(spec)
    else:
        start = spec.validate_allocation(as_partition(init))
    counts_a: dict = {}
    hist_a = np.zeros(spec.budget + 1, dtype=np.int64)
    discovery_a: dict = {}
    if mode == "self-play":
        counts_b, hist_b, discovery_b = counts_a, hist_a, discovery_a
    else:
        counts_b, hist_b, discovery_b = {}, np.zeros(spec.budget + 1, dtype=np.int64), {}
    return FPState(
        spec=spec,
        mode=mode,
        tie_break=tie_break,
        seed=seed,
        init=start,
        rounds_played=0,
        counts_a=counts_a,
        counts_b=counts_b,
        hist_a=hist_a,
        hist_b=hist_b,
        discovery_a=discovery_a,
        discovery_b=discovery_b,
    )


def _record(state: FPState, side: str, partition: "tuple[int, ...]", round_index: int) -> None:
    counts = state.counts_a if side == "a" else state.counts_b
    hist = state.hist_a if side == "a" else state.hist_b
    discovery = state.discovery_a if side == "a" else state.discovery_b
    counts[partition] = counts.get(partition, 0) + 1
    for b in partition:
        hist[b] += 1
    if partition not in discovery:
        discovery[partition] = round_index


def _belief_values(hist: np.ndarray, p: int, q2: int, dtype: np.dtype) -> np.ndarray:
    """Scaled value table: q2 * (#bids below x) + p * (#bids at x), in ``dtype``.

    :func:`~blotto_lab.core.value_rows` of the histogram, or of each row of
    a stack of histograms: no term exceeds
    ``(q2 + |p|) * rounds * K``, inside the guard of the type ``fp_run``
    picks for the stretch of rounds: int32, int64 or ``object``.  The row is
    built in int64, or on Python ints for ``object``, and narrowed to int32
    after, so no intermediate wraps.
    """
    if dtype == object:  # Python ints: the scaled values may not fit in int64
        hist = hist.astype(object)
    return value_rows(hist, p, q2).astype(dtype, copy=False)


def fp_run(
    spec: GameSpec,
    rounds: int,
    init: "Sequence[int] | None" = None,
    mode: "str | None" = None,
    seed: "int | None" = None,
    *,
    tie_break: "str | None" = None,
    trace_every: "int | None" = None,
    checkpoint_path: "str | None" = None,
    checkpoint_every: "int | None" = None,
    resume: "str | None" = None,
    progress: "Callable[[int, int], None] | None" = None,
) -> FPState:
    """Run fictitious play to ``rounds`` total rounds and return the state.

    Round 1 plays ``init`` (default: the most even split); round r >= 2 has
    each player best-reply to the opponent's first r-1 plays, both updates
    applied simultaneously.  With ``resume`` the run continues a checkpoint
    up to the new total.  Deterministic for tie_break='lex'; 'random' draws
    uniformly among all maximizers, reproducibly from ``seed``.

    ``init``, ``mode``, ``seed`` and ``tie_break`` left at ``None`` mean the
    most even split, 'two-sided', 0 and 'lex' on a fresh run, and the
    checkpoint's values on a resume, where a given value must match them.
    """
    rounds = check_count("rounds", rounds)
    if seed is not None:
        seed = check_seed(seed)
    if trace_every is not None:
        trace_every = check_count("trace_every", trace_every)
    if checkpoint_every is not None:
        checkpoint_every = check_count("checkpoint_every", checkpoint_every)
    if resume is not None:
        state = load_checkpoint(resume)
        if state.spec != spec:
            raise PreconditionError(f"{resume} continues {state.spec}, not {spec}")
        if rounds < state.rounds_played:
            raise PreconditionError(
                f"checkpoint already has {state.rounds_played} rounds > target {rounds}"
            )
        if init is not None:
            init = spec.validate_allocation(as_partition(init))
        for name, given, saved in (
            ("init", init, state.init),
            ("mode", mode, state.mode),
            ("seed", seed, state.seed),
            ("tie_break", tie_break, state.tie_break),
        ):
            if given is not None and given != saved:
                raise PreconditionError(f"{resume} was run with {name} {saved!r}, not {given!r}")
    else:
        state = _fresh_state(
            spec,
            "two-sided" if mode is None else mode,
            "lex" if tie_break is None else tie_break,
            0 if seed is None else seed,
            init,
        )
    n, k = spec.budget, spec.battlefields
    if trace_every is not None and not spec.divisible:
        raise PreconditionError("convergence traces need an evenly divisible budget")
    if rounds * k >= (1 << 62):
        raise PreconditionError(f"{rounds} rounds would overflow the bid counters")

    p, q2 = spec.tie_scale
    # Beliefs over r rounds run in the narrowest type whose guard k * (q2 +
    # |p|) * r * k stays below: int32's (kernels._INT_TYPES) from round 0,
    # then int64's (_INT64_SAFE), then Python ints.  ends[t] is the first
    # number of rounds read past type t's guard.  The numpy sampler's counts
    # are int64 in both fixed-width types and reach count_ordered(spec),
    # whatever the round, so past 2**63 a random run takes Python ints from
    # the start.
    scale = k * k * (q2 + abs(p))
    if state.tie_break == "random" and count_ordered(spec) >= 1 << 63:
        first_big = 0
    else:
        first_big = -(-_INT64_SAFE // scale)
    first_int64 = min(-(-_INT_TYPES[np.dtype(np.int32)] // scale), first_big)
    ends = {np.dtype(np.int32): first_int64, np.dtype(np.int64): first_big, np.dtype(object): None}

    def row_type(rounds_read: int) -> np.dtype:
        return next(t for t, end in ends.items() if end is None or rounds_read < end)

    # one pair of kernels under two names, so a tracer can count the calls on
    # Python ints; int32 and int64 rows both ask for "numpy"
    kernel_sets: dict = {}

    def kernels_for(dtype: np.dtype) -> KernelSet:
        name = "python" if dtype == object else "numpy"
        if name not in kernel_sets:
            kernel_sets[name] = get_kernels(name)
        return kernel_sets[name]

    rng = None
    if state.tie_break == "random":
        bitgen = np.random.PCG64(state.seed)
        if state.rng_state is not None:
            bitgen.state = state.rng_state
        rng = np.random.Generator(bitgen)

    def best_replies(hists: np.ndarray) -> "list[tuple[int, ...]]":
        # one kernel call per history: one row, or each row of a stack,
        # whose stages fill in one pass on the first call; the first row's
        # uniforms are drawn first
        values = _belief_values(hists, p, q2, dtype)
        rows = [values] if values.ndim == 1 else FPStack(values, n, k).rows()
        if state.tie_break == "lex":
            replies = [kern.lex(row, n, k) for row in rows]
        else:
            uniforms = rng.random((len(rows), k - 1))
            replies = [kern.sampled(row, n, k, u) for row, u in zip(rows, uniforms)]
        return [as_partition(bids) for _, bids in replies]

    target = rounds
    while state.rounds_played < target:
        # one stretch of rounds whose replies run in one type: the reply of
        # round r reads r - 1 rounds
        dtype = row_type(state.rounds_played)
        kern = kernels_for(dtype)
        stop = target if ends[dtype] is None else min(target, ends[dtype])
        while state.rounds_played < stop:
            r = state.rounds_played + 1
            if r == 1:
                play_a = play_b = state.init
            elif state.shared_history:
                play_a = play_b = best_replies(state.hist_a)[0]
            else:  # both players' DPs in one stacked pass: A replies to B's history
                play_a, play_b = best_replies(np.stack((state.hist_b, state.hist_a)))
            _record(state, "a", play_a, r)
            if not state.shared_history:
                _record(state, "b", play_b, r)
            state.rounds_played = r
            if trace_every is not None and (r == 1 or r % trace_every == 0 or r == target):
                row = row_type(r)  # a trace row reads r rounds
                state.trace.append(_trace_row(state, kernels_for(row), p, q2, row))
            if (
                checkpoint_path is not None
                and checkpoint_every is not None
                and (r % checkpoint_every == 0 or r == target)
            ):
                state.rng_state = rng.bit_generator.state if rng is not None else None
                save_checkpoint(state, checkpoint_path)
            if progress is not None:
                progress(r, target)
    state.rng_state = rng.bit_generator.state if rng is not None else None
    if checkpoint_path is not None and checkpoint_every is None:
        save_checkpoint(state, checkpoint_path)
    return state


def _trace_row(state: FPState, kern: KernelSet, p: int, q2: int, dtype: np.dtype) -> TraceRow:
    """Exact TV distance of A's bid histogram to uniform, and A's BR gap."""
    spec = state.spec
    n, k = spec.budget, spec.battlefields
    r = state.rounds_played
    rk = r * k
    top = 2 * spec.fair_share
    ha = state.hist_a.tolist()
    deviation = sum(abs(ha[x] * (top + 1) - rk) for x in range(top + 1))
    overflow_mass = sum(ha[top + 1 :])
    tv = Fraction(deviation, 2 * rk * (top + 1)) + Fraction(overflow_mass, 2 * rk)

    values_b = _belief_values(state.hist_b, p, q2, dtype)
    total, _ = kern.lex(values_b, n, k)
    br_value = Fraction(int(total), q2 * rk)
    pay = Fraction(sum(a * v for a, v in zip(ha, values_b.tolist())), q2 * rk * rk)
    return TraceRow(round_index=r, tv_to_uniform=tv, br_gap=br_value - pay)


# ---------------------------------------------------------------------------
# rank-order reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankRow:
    rank: int
    partition: "tuple[int, ...]"
    probability: Fraction
    first_round: int


@dataclass(frozen=True)
class RankReport:
    """Most-played partitions of player A's empirical mixed strategy."""

    rows: "tuple[RankRow, ...]"
    support_size: int
    rounds_played: int


def rank_report(state: FPState, top: int) -> RankReport:
    """Top partitions by empirical probability, ties broken lexicographically."""
    if state.rounds_played < 1:
        raise PreconditionError("cannot rank an empty run")
    order = sorted(state.counts_a.items(), key=lambda item: (-item[1], item[0]))
    rows = tuple(
        RankRow(
            rank=i + 1,
            partition=partition,
            probability=Fraction(count, state.rounds_played),
            first_round=state.discovery_a[partition],
        )
        for i, (partition, count) in enumerate(order[: max(top, 0)])
    )
    return RankReport(rows=rows, support_size=len(state.counts_a), rounds_played=state.rounds_played)


# ---------------------------------------------------------------------------
# versioned binary checkpoints
# ---------------------------------------------------------------------------


def _state_payload(state: FPState) -> dict:
    payload = {
        "spec": {
            "budget": state.spec.budget,
            "battlefields": state.spec.battlefields,
            "tie_num": state.spec.tie_value.numerator,
            "tie_den": state.spec.tie_value.denominator,
            "any_tie": state.spec.allow_any_tie_value,
        },
        "mode": state.mode,
        "tie_break": state.tie_break,
        "seed": state.seed,
        "init": list(state.init),
        "rounds_played": state.rounds_played,
        "counts_a": sorted([*p, c] for p, c in state.counts_a.items()),
        "discovery_a": [[*p, r] for p, r in state.discovery_a.items()],
        "trace": [
            [
                row.round_index,
                row.tv_to_uniform.numerator,
                row.tv_to_uniform.denominator,
                row.br_gap.numerator,
                row.br_gap.denominator,
            ]
            for row in state.trace
        ],
        "rng_state": state.rng_state,
    }
    if not state.shared_history:
        payload["counts_b"] = sorted([*p, c] for p, c in state.counts_b.items())
        payload["discovery_b"] = [[*p, r] for p, r in state.discovery_b.items()]
    return payload


def save_checkpoint(state: FPState, path: str) -> None:
    """Write a versioned, byte-deterministic binary checkpoint.

    The bytes go to ``path + ".tmp"`` and reach the disk before that file
    replaces ``path``, so a write that fails or crashes partway leaves the
    previous checkpoint intact.
    """
    body = json.dumps(_state_payload(state), sort_keys=True, separators=(",", ":"))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(body.encode("ascii"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _hist_from_counts(counts: dict, budget: int) -> np.ndarray:
    hist = np.zeros(budget + 1, dtype=np.int64)
    for partition, count in counts.items():
        for b in partition:
            hist[b] += count
    return hist


def _check_side(spec: GameSpec, rounds: int, counts: dict, discovery: dict, side: str) -> None:
    """The invariants every saved side holds, so a corrupted payload is refused."""
    for partition in counts:
        try:
            spec.validate_partition(partition)
        except PreconditionError as exc:
            raise PreconditionError(f"counts_{side} holds a bad partition: {exc}") from exc
    total = sum(counts.values())
    if total != rounds:
        raise PreconditionError(f"counts_{side} sum to {total}, not rounds_played {rounds}")
    if discovery.keys() != counts.keys():
        raise PreconditionError(
            f"discovery_{side} and counts_{side} name different partitions"
        )


def load_checkpoint(path: str) -> FPState:
    """Load a checkpoint; histograms are recomputed from the counts.

    Raises ``PreconditionError`` naming ``path`` unless the file parses as a
    checkpoint with a known mode and tie-break and a restorable RNG state,
    each side's counts sum to ``rounds_played``, every counted key is a
    partition of the game, and the discovery keys equal the count keys.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise PreconditionError(f"{path} is not a fictitious-play checkpoint")
    try:
        return _parse_checkpoint(blob)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, ArithmeticError, struct.error) as exc:
        raise PreconditionError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})"
        ) from exc


def _parse_checkpoint(blob: bytes) -> FPState:
    (version,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise PreconditionError(f"unsupported checkpoint version {version}")
    payload = json.loads(blob[len(CHECKPOINT_MAGIC) + 4 :].decode("ascii"))
    for key, allowed in (("mode", MODES), ("tie_break", TIE_BREAKS)):
        if payload[key] not in allowed:
            raise PreconditionError(f"{key} must be one of {allowed}, got {payload[key]!r}")
    seed = check_seed(payload["seed"])
    if payload["rng_state"] is not None:  # as fp_run restores it; raises if it cannot
        np.random.PCG64(seed).state = payload["rng_state"]
    spec = GameSpec(
        payload["spec"]["budget"],
        payload["spec"]["battlefields"],
        Fraction(payload["spec"]["tie_num"], payload["spec"]["tie_den"]),
        allow_any_tie_value=payload["spec"]["any_tie"],
    )
    k = spec.battlefields

    def parse_counts(rows: Iterable[Sequence[int]]) -> dict:
        return {tuple(row[:k]): row[k] for row in rows}

    rounds = payload["rounds_played"]
    counts_a = parse_counts(payload["counts_a"])
    discovery_a = parse_counts(payload["discovery_a"])
    _check_side(spec, rounds, counts_a, discovery_a, "a")
    hist_a = _hist_from_counts(counts_a, spec.budget)
    if payload["mode"] == "self-play":
        counts_b, discovery_b, hist_b = counts_a, discovery_a, hist_a
    else:
        counts_b = parse_counts(payload["counts_b"])
        discovery_b = parse_counts(payload["discovery_b"])
        _check_side(spec, rounds, counts_b, discovery_b, "b")
        hist_b = _hist_from_counts(counts_b, spec.budget)
    trace = [
        TraceRow(row[0], Fraction(row[1], row[2]), Fraction(row[3], row[4]))
        for row in payload["trace"]
    ]
    return FPState(
        spec=spec,
        mode=payload["mode"],
        tie_break=payload["tie_break"],
        seed=seed,
        init=tuple(payload["init"]),
        rounds_played=rounds,
        counts_a=counts_a,
        counts_b=counts_b,
        hist_a=hist_a,
        hist_b=hist_b,
        discovery_a=discovery_a,
        discovery_b=discovery_b,
        trace=trace,
        rng_state=payload["rng_state"],
    )
