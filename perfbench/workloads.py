"""The benchmark's three workloads, their inputs and their output checks.

Every input comes from the benchmark seed; the program only ever receives
the generated inputs.  A workload runs in units (one fictitious-play run, or
one cycle of the verdict mix) so that every timed phase holds whole units and
the same shares of each kind of op.  Outputs are checked after each op or
unit, outside the timed region and with tracing paused, against oracles that
do not run the kernels or the budget DP whose results they check.

Each workload owns a ``speed.SpeedClock``, probed between ops, and every time
it reports is scaled by that clock to fast-state seconds (see ``speed``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

from blotto_lab import GameSpec, cli, constructors, learning
from blotto_lab.core import payoff
from blotto_lab.mixed import expected_payoff_pure_vs_mixed
from speed import SpeedClock

# SHA-256 of the outputs of the first unit for GOLDEN_SEED, recorded when the
# benchmark was defined.  Any change to an output byte fails the unit's ops.
# The fp-full rank CSV is byte-identical to what ``blotto fp --report-top 9``
# prints for the same arguments.
GOLDEN_SEED = 0
GOLDEN = {
    "fp-full": {
        "rank_csv": "6fa00246155d6ca07a19b9a29717e3d8b14b1991c09e57b674eb3eb672976868",
    },
    "fp-sampled-resume": {
        "rank_csv": "948c9ebc372447943d07db0dc7a34ef559ad764af4ac8a48a55886fac6b88d5b",
        "checkpoint": "046f5183ff796a5a769e83a0ef338d0a94bc1c64b63cb0e292fb4bf5bd229963",
    },
    "exact-verdicts": {
        "verdict_lines": "7c5652977a57bb53a375c0997d9948a69ca9f7512732a3535ed4984215b8216f",
    },
}

FULL_ROUNDS = 3000
LEG_ROUNDS = 500
TRACE_EVERY = 1000  # the README's cadence for --trace-every
CHECKPOINT_EVERY = 10_000  # and for --checkpoint-every
REPORT_TOP = 9


@dataclass
class Phase:
    """What a timed phase measured: op latencies, program time and failures.

    Workloads record each interval spent in the program with ``timed``;
    ``measure`` scales a unit's intervals once the unit is over.
    """

    latencies: "list[float]" = field(default_factory=list)  # per op, scaled
    program_s: float = 0.0  # raw program time: what the run length counts
    scaled_s: float = 0.0  # program time in fast-state seconds
    attempted: int = 0
    failed: int = 0
    units: int = 0
    unit_rates: "list[float]" = field(default_factory=list)  # ops per scaled second, per unit
    errors: "list[str]" = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    pending: "list[tuple[float, float, bool]]" = field(default_factory=list)

    def timed(self, start: float, end: float, op: bool = True) -> None:
        """Record ``[start, end]`` spent in the program: one op, or work between ops."""
        self.program_s += end - start
        self.pending.append((start, end, op))

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)


def random_allocation(rng: random.Random, budget: int, fields: int) -> "tuple[int, ...]":
    """Uniform draw over bid vectors (compositions of the budget)."""
    cuts = sorted(rng.sample(range(budget + fields - 1), fields - 1))
    bounds = [-1, *cuts, budget + fields - 1]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(fields))


class Workload:
    """One named workload: inputs from a seed, a warm-up op, timed units."""

    name = ""
    probe = ""  # the speed probe whose work is most like this workload's

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.clock = SpeedClock(self.probe)

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_unit(self, phase: Phase, index: int) -> None:
        raise NotImplementedError

    def checking_golden(self, index: int) -> bool:
        return index == 0 and self.seed == GOLDEN_SEED

    def golden_problems(self, key: str, data: bytes) -> "list[str]":
        got = hashlib.sha256(data).hexdigest()
        want = GOLDEN[self.name][key]
        return [] if got == want else [f"{key} digest {got} != golden {want}"]


def measure(workload: Workload, seconds: float) -> Phase:
    """Run whole units until ``seconds`` of raw program time have been measured."""
    phase = Phase()
    clock = workload.clock
    clock.sample(force=True)
    while phase.units == 0 or phase.program_s < seconds:
        workload.run_unit(phase, phase.units)
        clock.sample(force=True)
        ops, unit_s = 0, 0.0
        for start, end, op in phase.pending:
            scaled = clock.scaled(start, end)
            unit_s += scaled
            if op:
                phase.latencies.append(scaled)
                ops += 1
        phase.pending.clear()
        phase.units += 1
        phase.scaled_s += unit_s
        if unit_s > 0:
            phase.unit_rates.append(ops / unit_s)
    return phase


# ---------------------------------------------------------------------------
# fictitious play
# ---------------------------------------------------------------------------


def fp_problems(state, rounds: int) -> "list[str]":
    """Invariants every fictitious-play state must satisfy."""
    spec = state.spec
    n, k = spec.budget, spec.battlefields
    problems = []
    if state.rounds_played != rounds:
        problems.append(f"played {state.rounds_played} rounds, asked for {rounds}")
    sides = (
        ("a", state.counts_a, state.discovery_a, state.hist_a),
        ("b", state.counts_b, state.discovery_b, state.hist_b),
    )
    for side, counts, discovery, hist in sides:
        if sum(counts.values()) != state.rounds_played:
            problems.append(f"counts_{side} sum to {sum(counts.values())}")
        for p in counts:
            valid = (
                len(p) == k
                and all(isinstance(b, int) and b >= 0 for b in p)
                and sum(p) == n
                and all(p[i] >= p[i + 1] for i in range(k - 1))
            )
            if not valid:
                problems.append(f"invalid partition {p} on side {side}")
                break
        if set(discovery) != set(counts):
            problems.append(f"discovery_{side} keys differ from counts_{side} keys")
        recount = np.zeros(n + 1, dtype=np.int64)
        for p, c in counts.items():
            for b in p:
                recount[b] += c
        if not np.array_equal(recount, hist):
            problems.append(f"hist_{side} disagrees with counts_{side}")
    for row in state.trace:
        if row.br_gap < 0:
            problems.append(f"negative br_gap {row.br_gap} at round {row.round_index}")
    return problems


def rank_csv(report) -> bytes:
    """The rank report as ``blotto fp`` writes it, without the provenance line."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rank", "partition", "probability", "first_round"])
    for row in report.rows:
        p = row.probability
        writer.writerow(
            [row.rank, "-".join(map(str, row.partition)), f"{p.numerator}/{p.denominator}",
             row.first_round]
        )
    return buf.getvalue().encode("ascii")


class _FictitiousPlay(Workload):
    spec: GameSpec
    probe = "numpy"

    def fp(self, phase: Phase, rounds: int, **kwargs):
        """One timed ``fp_run``.

        A round's latency runs from the end of the previous round, or of the
        speed probe that followed it, to the ``progress`` call that ends it.
        """
        clock, tracer = self.clock, self.tracer
        previous = perf_counter()
        played = 0

        def progress(done: int, total: int) -> None:
            nonlocal previous, played
            phase.timed(previous, perf_counter())
            played += 1
            tracer.op_id += 1
            clock.sample()
            previous = perf_counter()

        try:
            state = learning.fp_run(self.spec, rounds, progress=progress, **kwargs)
        finally:
            phase.timed(previous, perf_counter(), op=False)
        return state, played

    def report(self, phase: Phase, state):
        start = perf_counter()
        try:
            report = learning.rank_report(state, REPORT_TOP)
        finally:
            phase.timed(start, perf_counter(), op=False)
        phase.observed.setdefault("support_size", report.support_size)
        return report

    def check(self, phase: Phase, ops: int, problems: "list[str]") -> None:
        phase.attempted += ops
        if problems:
            phase.fail(ops, f"{self.name}: " + "; ".join(problems[:3]))


class FullGame(_FictitiousPlay):
    name = "fp-full"
    spec = GameSpec(120, 6, Fraction(0))

    def init(self) -> "tuple[int, ...]":
        s = random_allocation(self.rng, self.spec.budget, self.spec.battlefields)
        return tuple(sorted(s, reverse=True))

    def warm_up(self) -> None:
        learning.fp_run(self.spec, 2, init=self.init())

    def run_unit(self, phase: Phase, index: int) -> None:
        init = self.init()
        try:
            state, played = self.fp(phase, FULL_ROUNDS, init=init)
            report = self.report(phase, state)
        except Exception as exc:  # a failed op is counted, never fatal
            phase.attempted += FULL_ROUNDS
            phase.fail(FULL_ROUNDS, f"{self.name}: {type(exc).__name__}: {exc}")
            return
        with self.tracer.paused():
            problems = fp_problems(state, FULL_ROUNDS)
            if report.support_size != len(state.counts_a):
                problems.append("support size disagrees with counts")
            if self.checking_golden(index):
                problems += self.golden_problems("rank_csv", rank_csv(report))
        self.check(phase, played, problems)


class SampledResume(_FictitiousPlay):
    name = "fp-sampled-resume"
    spec = GameSpec(120, 6, Fraction(1, 3))

    def legs(self, path: str, seed: int, first: int, total: int, phase: Phase):
        common = dict(trace_every=TRACE_EVERY, checkpoint_path=path,
                      checkpoint_every=CHECKPOINT_EVERY)
        leg1, played1 = self.fp(phase, first, seed=seed, tie_break="random", **common)
        leg2, played2 = self.fp(phase, total, resume=path, **common)
        return leg1, leg2, played1 + played2

    def warm_up(self) -> None:
        path = os.path.join(self.workdir, "warm-up.fp")
        self.legs(path, self.rng.getrandbits(32), 2, 3, Phase())

    def run_unit(self, phase: Phase, index: int) -> None:
        path = os.path.join(self.workdir, "run.fp")
        total = 2 * LEG_ROUNDS
        try:
            leg1, leg2, played = self.legs(path, self.rng.getrandbits(32), LEG_ROUNDS,
                                           total, phase)
            report = self.report(phase, leg2)
        except Exception as exc:  # a failed op is counted, never fatal
            phase.attempted += total
            phase.fail(total, f"{self.name}: {type(exc).__name__}: {exc}")
            return
        phase.observed["trace_rows"] = phase.observed.get("trace_rows", 0) + len(leg2.trace)
        with self.tracer.paused():
            problems = fp_problems(leg1, LEG_ROUNDS) + fp_problems(leg2, total)
            if leg2.trace[: len(leg1.trace)] != leg1.trace:
                problems.append("resumed run lost the first leg's trace rows")
            if self.checking_golden(index):
                with open(path, "rb") as fh:
                    checkpoint = fh.read()
                problems += self.golden_problems("rank_csv", rank_csv(report))
                problems += self.golden_problems("checkpoint", checkpoint)
        self.check(phase, played, problems)


# ---------------------------------------------------------------------------
# exact verdict queries
# ---------------------------------------------------------------------------

# (budget, battlefields, tie value, verdict of the cheap classify query):
# 120/6 at three tie values, 600/6 at one.  NEVER_GOOD needs a tie value
# below 1.  One cheap query per game keeps the median inside the 120/6
# verify queries, whose costs are alike.
GAMES = (
    (120, 6, "0", "never_good"),
    (120, 6, "1/3", "never_good"),
    (120, 6, "1", "unknown"),
    (600, 6, "1/3", "unknown"),
)
# Every cycle verifies these family pairs at each game; "witness" swaps a
# seed-drawn strategy into the independent-pairs support.  Fixing the pairs
# keeps each cycle's cost the same, whatever the seed.
VERIFY_PAIRS = (("canonical", "canonical"), ("independent", "witness"),
                ("parity-odd", "parity-even"))
UNIFORM_FAMILIES = ("canonical", "independent", "witness")


def threshold(spec: GameSpec) -> Fraction:
    """Closed-form never-good cutoff 2NK(1-a)/((2N+K)(2-a)); zero from a = 1 on."""
    n, k, a = spec.budget, spec.battlefields, spec.tie_value
    return Fraction(0) if a >= 1 else Fraction(2 * n * k * (1 - a), (2 * n + k) * (2 - a))


def uniform_payoff(spec: GameSpec) -> Fraction:
    """Closed form K(2N + aK)/(4N + 2K) of two uniform-marginal mixers."""
    n, k, a = spec.budget, spec.battlefields, spec.tie_value
    return k * (2 * n + a * k) / (4 * n + 2 * k)


@dataclass(frozen=True)
class Query:
    kind: str
    spec: GameSpec
    argv: "tuple[str, ...]"
    detail: tuple


def _bids(s) -> str:
    return ",".join(map(str, s))


def _active(s) -> int:
    return sum(1 for b in s if b > 0)


def _build(family: str, spec: GameSpec, s):
    if family == "canonical":
        return constructors.canonical_pair_equilibrium(spec)
    if family == "independent":
        return constructors.independent_pairs_strategy(spec)
    if family == "witness":
        return constructors.good_strategy_witness(s, spec)
    return constructors.parity_strategy(spec, family.split("-")[1])


class ExactVerdicts(Workload):
    name = "exact-verdicts"
    probe = "python"

    def draw(self, spec: GameSpec, accept) -> "tuple[int, ...]":
        while True:
            s = random_allocation(self.rng, spec.budget, spec.battlefields)
            if accept(s):
                return s

    def cycle(self) -> "list[Query]":
        """One pass over the mix; the seed picks the strategies, never the kinds."""
        queries = []
        for n, k, alpha, cheap in GAMES:
            spec = GameSpec(n, k, Fraction(alpha))
            head = ("--n", str(n), "--k", str(k), "--alpha", alpha)
            cap = 2 * spec.fair_share
            cut = threshold(spec)
            for fam_a, fam_b in VERIFY_PAIRS:
                argv = ("verify", *head, "--family", fam_a, "--family-b", fam_b)
                s = None
                if "witness" in (fam_a, fam_b):
                    s = self.draw(spec, lambda s: max(s) <= cap)
                    argv += ("--s", _bids(s))
                queries.append(Query("verify", spec, argv, (fam_a, fam_b, s)))
            good = self.draw(spec, lambda s: max(s) <= cap and _active(s) >= cut)
            queries.append(Query("classify", spec, ("classify", *head, "--s", _bids(good)),
                                 (good, "good")))
            if cheap == "never_good":
                few = self.rng.randint(1, min(2, math.ceil(cut) - 1))
                fields = self.rng.sample(range(k), few)
                never = [0] * k
                for i, share in zip(fields, self._split(n, len(fields))):
                    never[i] = share
                queries.append(Query("classify", spec,
                                     ("classify", *head, "--s", _bids(never)),
                                     (tuple(never), "never_good")))
            else:
                unknown = self.draw(spec, lambda s: max(s) > cap and _active(s) >= cut)
                queries.append(Query("classify", spec,
                                     ("classify", *head, "--s", _bids(unknown)),
                                     (unknown, "unknown")))
            target = random_allocation(self.rng, n, k)
            candidate = self.draw(spec, lambda s: s != target)
            queries.append(Query("dominate", spec,
                                 ("dominate", *head, "--candidate", _bids(candidate),
                                  "--target", _bids(target)), (candidate, target)))
            s = random_allocation(self.rng, n, k)
            queries.append(Query("psne", spec, ("psne", *head, "--s", _bids(s)), (s,)))
        return queries

    def _split(self, total: int, parts: int) -> "list[int]":
        """``total`` in ``parts`` positive shares."""
        if parts == 1:
            return [total]
        first = self.rng.randint(1, total - 1)
        return [first, total - first]

    def ask(self, query: Query) -> "tuple[int, str]":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
        return code, out.getvalue()

    def warm_up(self) -> None:
        self.ask(self.cycle()[0])

    def run_unit(self, phase: Phase, index: int) -> None:
        queries = self.cycle()
        lines, problems = [], {}
        for i, query in enumerate(queries):
            self.tracer.op_id += 1
            self.clock.sample()
            start = perf_counter()
            try:
                code, text = self.ask(query)
            except (Exception, SystemExit) as exc:  # a failed op is counted, never fatal
                phase.timed(start, perf_counter(), op=False)
                problems[i] = [f"{type(exc).__name__}: {exc}"]
                continue
            phase.timed(start, perf_counter())
            lines.append(text)
            with self.tracer.paused():
                try:
                    problems[i] = verdict_problems(query, code, text)
                except (ValueError, KeyError, TypeError) as exc:
                    problems[i] = [f"unreadable output {text!r}: {exc}"]
        if self.checking_golden(index):
            golden = self.golden_problems("verdict_lines", "".join(lines).encode())
            for i in range(len(queries)):
                problems[i] = problems.get(i, []) + golden
        phase.attempted += len(queries)
        for i, found in problems.items():
            if found:
                phase.fail(1, f"{' '.join(queries[i].argv)}: " + "; ".join(found))


def verdict_problems(query: Query, code: int, text: str) -> "list[str]":
    """Check one verdict line without the DP that produced it."""
    if code != 0:
        return [f"exit code {code}"]
    obj = json.loads(text)
    spec = query.spec
    F = Fraction
    problems = []
    if query.kind == "verify":
        fam_a, fam_b, s = query.detail
        sigma_a, sigma_b = _build(fam_a, spec, s), _build(fam_b, spec, s)
        pay_a, pay_b, gap_a, gap_b = (F(obj[key]) for key in
                                      ("payoff_a", "payoff_b", "gap_a", "gap_b"))
        if expected_payoff_pure_vs_mixed(obj["best_reply_a"], sigma_b, spec) != pay_a + gap_a:
            problems.append("best_reply_a does not earn payoff_a + gap_a")
        if expected_payoff_pure_vs_mixed(obj["best_reply_b"], sigma_a, spec) != pay_b + gap_b:
            problems.append("best_reply_b does not earn payoff_b + gap_b")
        if fam_a in UNIFORM_FAMILIES and fam_b in UNIFORM_FAMILIES:
            if pay_a != uniform_payoff(spec) or pay_b != uniform_payoff(spec):
                problems.append("uniform-marginal payoff differs from the closed form")
        if obj["is_equilibrium"] != (gap_a == 0 and gap_b == 0):
            problems.append("is_equilibrium disagrees with the gaps")
        if gap_a < 0 or gap_b < 0:
            problems.append("negative best-response gap")
    elif query.kind == "classify":
        s, verdict = query.detail
        if obj["verdict"] != verdict:
            problems.append(f"verdict {obj['verdict']}, expected {verdict}")
        if F(obj["threshold"]) != threshold(spec):
            problems.append("threshold differs from the closed form")
        if obj["active_fields"] != _active(s):
            problems.append("wrong active field count")
        support = (2 * spec.fair_share + 1) ** (spec.battlefields // 2)
        if obj["witness_support"] != (support if verdict == "good" else None):
            problems.append(f"witness support {obj['witness_support']}")
    elif query.kind == "dominate":
        candidate, target = query.detail
        gaps = {}
        for end in ("min", "max"):
            t = obj[f"{end}_witness"]
            gaps[end] = payoff(candidate, t, spec) - payoff(target, t, spec)
            if gaps[end] != F(obj[f"{end}_gap"]):
                problems.append(f"{end}_witness does not reproduce {end}_gap")
        if obj["dominates"] != (gaps["min"] >= 0 and gaps["max"] > 0):
            problems.append("dominates disagrees with the gaps")
    elif query.kind == "psne":
        (s,) = query.detail
        stay = payoff(s, s, spec)
        best = F(obj["best_deviation"])
        if F(obj["stay_payoff"]) != stay:
            problems.append("stay payoff differs from core.payoff(s, s)")
        if payoff(obj["deviation"], s, spec) != best:
            problems.append("deviation does not earn best_deviation")
        if obj["is_psne"] != (best <= stay):
            problems.append("is_psne disagrees with the payoffs")
    return problems


WORKLOADS = {w.name: w for w in (FullGame, SampledResume, ExactVerdicts)}
